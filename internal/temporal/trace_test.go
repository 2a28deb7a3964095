package temporal

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

// traceScript drives a delta-recorded trace and its reference, a list of
// per-tick Clones, through one byte program.  Each op mutates one of three
// live states and records it; the live states keep changing after they are
// recorded, so a trace that kept a reference instead of the values would
// show it.
type traceScript struct {
	tr    *Trace
	want  []State // Clone of every recorded state; nil for the nil State
	live  []State // a, b (another schema) and a two-lane state on a's schema
	cur   int
	names int
}

func newTraceScript(capacity int) *traceScript {
	a := NewState().SetNumber("n0", 1).SetBool("b0", true).SetString("e0", "GO")
	b := NewState().SetString("other", "x").SetNumber("n0", -1).SetBool("b1", false) // a's width
	c := NewStateWithLanes(a.Schema(), 2)
	return &traceScript{tr: NewTraceWithCapacity(time.Millisecond, capacity), live: []State{a, b, c}}
}

// traceValue decodes a number with the bit patterns a delta compare can get wrong:
// NaNs with distinct payloads, -0 against +0, and infinities.
func traceValue(b byte) float64 {
	switch b % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(0x7ff8000000000001) // another NaN payload
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return 0
	case 4:
		return math.Inf(1)
	default:
		return float64(b)*0.25 - 20
	}
}

func (sc *traceScript) record(s State) {
	sc.tr.Append(s)
	if s == nil {
		sc.want = append(sc.want, nil)
	} else {
		sc.want = append(sc.want, s.Clone())
	}
}

// step runs one op (op, arg) and records at least one tick.
func (sc *traceScript) step(op, arg byte) {
	s := sc.live[sc.cur]
	slot := int(arg) % max(s.Schema().Len(), 1)
	switch op % 10 {
	case 0:
		s.SetSlotNumber(slot, traceValue(arg/8))
	case 1:
		s.SetSlotBool(slot, arg&1 == 1)
	case 2:
		s.SetSlotString(slot, "S"+strconv.Itoa(int(arg%4)))
	case 3: // the kind flips to absent; the value stays behind it
		s.SetSlot(slot, Value{})
	case 4: // every kind cleared, every value stale
		s.Reset()
	case 5: // a mid-run intern: the plane width changes
		sc.names++
		s.SetNumber("late"+strconv.Itoa(sc.names), traceValue(arg))
	case 6: // a schema switch (or a lane-width switch)
		sc.cur = int(arg) % len(sc.live)
		s = sc.live[sc.cur]
	case 7:
		sc.record(nil)
		return
	case 8: // a hold: the same state for up to 64 ticks
		for i := 0; i < int(arg)%64; i++ {
			sc.record(s)
		}
	case 9: // several slots at once
		for j := 0; j < s.Schema().Len(); j += 1 + int(arg)%3 {
			s.SetSlotNumber(j, traceValue(arg+byte(j)))
		}
	}
	sc.record(s)
}

// sameState reports how got differs from want, bit for bit: schema, lane
// width, plane width, every kind byte and every value (stale values behind
// KindInvalid included).
func sameState(got, want State) error {
	if got == nil || want == nil {
		if got != want {
			return fmt.Errorf("got %v, want %v", got, want)
		}
		return nil
	}
	if got.schema != want.schema || got.lanes != want.lanes || len(got.kinds) != len(want.kinds) || len(got.vals) != len(want.vals) {
		return fmt.Errorf("layout: schema %p lanes %d width %d, want %p %d %d",
			got.schema, got.lanes, len(got.kinds), want.schema, want.lanes, len(want.kinds))
	}
	for j := range want.kinds {
		if got.kinds[j] != want.kinds[j] || math.Float64bits(got.vals[j]) != math.Float64bits(want.vals[j]) {
			return fmt.Errorf("slot %d: kind %d bits %#x, want kind %d bits %#x",
				j, got.kinds[j], math.Float64bits(got.vals[j]), want.kinds[j], math.Float64bits(want.vals[j]))
		}
	}
	return nil
}

// check compares every reader of the trace with the clones.
func (sc *traceScript) check(t *testing.T) {
	t.Helper()
	tr, want := sc.tr, sc.want
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for i := len(want) - 1; i >= 0; i-- { // backwards: At must not depend on an earlier read
		if err := sameState(tr.At(i), want[i]); err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
	}
	walked := 0
	tr.Walk(func(i int, s State) {
		if i != walked {
			t.Fatalf("Walk visited tick %d after %d ticks", i, walked)
		}
		walked++
		if err := sameState(s, want[i]); err != nil {
			t.Fatalf("Walk tick %d: %v", i, err)
		}
	})
	if walked != len(want) {
		t.Fatalf("Walk visited %d ticks, want %d", walked, len(want))
	}
	var last State
	if len(want) > 0 {
		last = want[len(want)-1]
	}
	if err := sameState(tr.Last(), last); err != nil {
		t.Fatalf("Last: %v", err)
	}
	names := map[string]bool{"absent": true}
	for _, s := range sc.live {
		for j := 0; j < s.Schema().Len(); j++ {
			names[s.Schema().Name(j)] = true
		}
	}
	for name := range names {
		nums, bools := tr.Series(name), tr.BoolSeries(name)
		for i, w := range want {
			wn, wb := math.NaN(), false
			if w != nil {
				if j, ok := w.Schema().Lookup(name); ok {
					wn, wb = w.SlotNumber(j), w.SlotBool(j)
				}
			}
			if math.Float64bits(nums[i]) != math.Float64bits(wn) || bools[i] != wb {
				t.Fatalf("tick %d %s: Series %v BoolSeries %v, want %v %v", i, name, nums[i], bools[i], wn, wb)
			}
		}
	}
}

// TestTraceRecordingMatchesClones is the recording differential: At, Walk,
// Last, Series and BoolSeries must equal a list of per-tick Clones over
// number, bool and enum writes, kind flips to absent and back, NaN payloads,
// -0, stale values behind KindInvalid after Reset, mid-run interns, schema
// and lane-width switches, nil states, and runs over many keyframe intervals.
func TestTraceRecordingMatchesClones(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			sc := newTraceScript(int(seed) * 200) // with and without a capacity hint
			for len(sc.want) < 1500 {
				sc.step(byte(r.Intn(256)), byte(r.Intn(256)))
			}
			if n := len(sc.tr.keys); n < 3 {
				t.Fatalf("%d keyframes, want a run over at least 3 keyframe intervals", n)
			}
			sc.check(t)
		})
	}

	t.Run("steady", func(t *testing.T) {
		// Long stretches of one slot changing per tick: keyframes come only
		// from the interval, and the deltas carry everything in between.
		sc := newTraceScript(4 * traceKeyframe)
		for i := 0; i < 4*traceKeyframe+7; i++ {
			sc.step(0, byte(i))
		}
		if n, want := len(sc.tr.keys), 5; n != want {
			t.Errorf("%d keyframes over %d ticks, want %d", n, sc.tr.Len(), want)
		}
		sc.check(t)
	})

	t.Run("switch", func(t *testing.T) {
		// Another schema at the same width and lane width: only the schema
		// pointer tells the two states apart.
		sc := newTraceScript(0)
		for _, op := range [][2]byte{{0, 1}, {6, 1}, {0, 1}, {6, 0}, {8, 3}, {6, 1}} {
			sc.step(op[0], op[1])
		}
		sc.check(t)
	})

	t.Run("empty", func(t *testing.T) {
		sc := newTraceScript(0)
		sc.check(t)
		sc.step(7, 0) // the nil State alone
		sc.step(7, 0)
		sc.check(t)
	})
}

// TestTraceConcurrentReaders reads one recorded trace from several goroutines
// at once; under -race it is the evidence that no reader mutates the trace.
func TestTraceConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sc := newTraceScript(0)
	for len(sc.want) < 400 {
		sc.step(byte(r.Intn(256)), byte(r.Intn(256)))
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < sc.tr.Len(); i += 3 {
				if err := sameState(sc.tr.At(i), sc.want[i]); err != nil {
					errs[g] = fmt.Errorf("At(%d): %v", i, err)
					return
				}
			}
			sc.tr.Walk(func(i int, s State) {
				if err := sameState(s, sc.want[i]); err != nil && errs[g] == nil {
					errs[g] = fmt.Errorf("Walk tick %d: %v", i, err)
				}
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// FuzzTraceRecording runs the recording differential on fuzzer-chosen op
// programs: each byte pair is one op and its argument (see traceScript.step).
func FuzzTraceRecording(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 5})
	f.Add([]byte{4, 0, 0, 0, 3, 1, 0, 8, 6, 1, 7, 0, 6, 0, 0, 9})
	f.Add([]byte{8, 63, 8, 63, 8, 63, 8, 63, 5, 1, 8, 63, 9, 2})
	f.Add([]byte{6, 2, 0, 3, 5, 5, 8, 40, 7, 7, 6, 0, 3, 1, 4, 4, 8, 10})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		sc := newTraceScript(len(prog))
		for i := 0; i+1 < len(prog); i += 2 {
			sc.step(prog[i], prog[i+1])
		}
		sc.check(t)
	})
}

// TestTraceWalkAllocations pins Walk's allocations to its scratch state and
// closure: nothing per tick.
func TestTraceWalkAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are unreliable under -race; skipped under -short")
	}
	allocs := func(ticks int) float64 {
		sc := newTraceScript(ticks)
		for i := 0; i < ticks; i++ {
			sc.step(0, byte(i))
		}
		n := 0
		return testing.AllocsPerRun(5, func() { sc.tr.Walk(func(int, State) { n++ }) })
	}
	if short, long := allocs(100), allocs(2000); long != short || long > 3 {
		t.Errorf("Walk allocates %v objects over 100 ticks and %v over 2000, want the same <= 3", short, long)
	}
}

// TestTraceReplaceSchemaOnClone pins how a reused recorder hands a trace
// its own schema: after ReplaceSchema onto a Clone, every tick reads the
// same names, values and enumeration strings against the clone, and names
// or strings interned afterwards into either schema stay out of the other.
func TestTraceReplaceSchemaOnClone(t *testing.T) {
	sc := NewSchema()
	st := NewStateWith(sc)
	tr := NewTrace(time.Millisecond)
	for i := 0; i < 300; i++ {
		st.Set("n", Number(float64(i%7)))
		st.Set("gear", String([]string{"P", "D", "R"}[i%3]))
		st.Set("on", Bool(i%2 == 0))
		tr.Append(st)
	}
	want := make([]string, tr.Len())
	tr.Walk(func(i int, s State) { want[i] = s.String() })

	clone := sc.Clone()
	tr.ReplaceSchema(sc, clone)
	sc.Intern("later")
	sc.InternString("N")
	clone.Intern("other")
	if _, ok := clone.Lookup("later"); ok {
		t.Error("a name interned into the source schema after Clone shows in the clone")
	}
	if _, ok := sc.Lookup("other"); ok {
		t.Error("a name interned into the clone shows in the source schema")
	}
	if _, ok := clone.LookupString("N"); ok {
		t.Error("a string interned into the source schema after Clone shows in the clone")
	}
	for _, i := range []int{0, 1, 127, 128, 129, 299} {
		s := tr.At(i)
		if s.Schema() != clone {
			t.Fatalf("tick %d reads against %p, want the clone %p", i, s.Schema(), clone)
		}
		if got := s.String(); got != want[i] {
			t.Errorf("tick %d after ReplaceSchema = %s, want %s", i, got, want[i])
		}
	}
}
