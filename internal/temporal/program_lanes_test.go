package temporal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// laneVocabulary extends the random-formula vocabulary with enumeration
// atoms, so lane stepping's enumeration kernel is exercised alongside the
// numeric and boolean atoms randomPastFormula generates.
func randomLaneFormula(r *rand.Rand, depth int, pool *[]Formula) Formula {
	if r.Intn(6) == 0 {
		colors := []string{"red", "green", "blue"}
		op := OpEq
		if r.Intn(2) == 0 {
			op = OpNe
		}
		f := Compare("S", op, String(colors[r.Intn(len(colors))]))
		*pool = append(*pool, f)
		return f
	}
	return randomPastFormula(r, depth, pool)
}

// setRandomLaneVar writes one variable's value for one lane of the widened
// state and the same value into that lane's scalar shadow state (the state
// the lane's reference steppers read).  With small probability the value is
// absent (the slot is cleared) or of a surprising kind (a string in a numeric
// slot, a number in the enum slot), so the mixed-kind fallbacks and the
// unknown-state-is-false convention are covered.  The draws also probe change
// gating: a boolean slot sometimes holds the number 0 or 1 (the value bits of
// false and true under another kind), a numeric slot sometimes holds a bool,
// and numbers include NaN and -0.
func setRandomLaneVar(r *rand.Rand, wide State, lane int, scalar State, name string) {
	slot := wide.Schema().Intern(name)
	i := slot*wide.Lanes() + lane
	absent := func() {
		wide.SetSlot(i, Value{})
		scalar.SetSlot(slot, Value{})
	}
	number := func(f float64) {
		wide.SetSlotNumber(i, f)
		scalar.SetSlotNumber(slot, f)
	}
	boolean := func(b bool) {
		wide.SetSlotBool(i, b)
		scalar.SetSlotBool(slot, b)
	}
	switch name {
	case "A", "B", "C":
		switch r.Intn(12) {
		case 0:
			absent()
		case 1:
			number(float64(r.Intn(2)))
		default:
			boolean(r.Intn(2) == 0)
		}
	case "N", "M":
		switch r.Intn(16) {
		case 0:
			absent()
		case 1:
			wide.SetSlotString(i, "oops")
			scalar.SetSlotString(slot, "oops")
		case 2:
			boolean(r.Intn(2) == 0)
		case 3:
			number(math.NaN())
		case 4:
			number(math.Copysign(0, -1))
		default:
			number(float64(r.Intn(5)))
		}
	case "S":
		switch r.Intn(12) {
		case 0:
			absent()
		case 1:
			number(float64(r.Intn(3)))
		default:
			colors := []string{"red", "green", "blue"}
			c := colors[r.Intn(len(colors))]
			wide.SetSlotString(i, c)
			scalar.SetSlotString(slot, c)
		}
	}
}

// laneDiff configures one lane-versus-reference differential run.
type laneDiff struct {
	seed  int64
	lanes int
	steps int
	// hold returns how many steps a freshly drawn variable value is held;
	// nil re-randomises every variable of every lane on every step.
	hold func() int
	// resetAt and swapAt are the steps (-1: never) before which the program
	// and every reference stepper are Reset, and before which the trace
	// moves to a fresh schema that interns the vocabulary at different
	// slots.
	resetAt, swapAt int
}

// laneVars is the variable vocabulary of the lane differentials.
var laneVars = []string{"A", "B", "C", "N", "M", "S"}

// run evaluates a batch of overlapping random formulas — plus bounded-past
// wrappers whose windows are both shorter and longer than the input holds —
// over d.lanes independent random traces, once through a lane-stepped program
// over the widened state and once through one string-keyed reference Stepper
// per formula per lane fed that lane's trace, and fails on the first
// differing verdict.
func (d laneDiff) run(t testing.TB) {
	t.Helper()
	r := rand.New(rand.NewSource(d.seed))
	schema := NewSchema()
	laneProg := NewProgram(time.Millisecond, schema)

	var pool []Formula
	var formulas []Formula
	for i := 0; i < 8; i++ {
		formulas = append(formulas, randomLaneFormula(r, 3, &pool))
	}
	for i := 0; i < 4; i++ {
		w := time.Duration(1+r.Intn(4)) * time.Millisecond
		if i%2 == 1 {
			w = time.Duration(20+r.Intn(60)) * time.Millisecond
		}
		sub := pool[r.Intn(len(pool))]
		if i < 2 {
			formulas = append(formulas, PrevFor(sub, w))
		} else {
			formulas = append(formulas, PrevWithin(sub, w))
		}
	}
	var taps []Tap
	for _, f := range formulas {
		taps = append(taps, laneProg.MustAdd(f))
	}
	if err := laneProg.SetLanes(d.lanes); err != nil {
		t.Fatalf("seed %d: SetLanes(%d): %v", d.seed, d.lanes, err)
	}

	refs := make([][]*Stepper, d.lanes) // refs[l][i]: formula i on lane l
	for l := range refs {
		for _, f := range formulas {
			refs[l] = append(refs[l], mustReference(t, f))
		}
	}

	var wide State
	shadows := make([]State, d.lanes)
	fresh := func(sc *Schema) {
		wide = NewStateWithLanes(sc, d.lanes)
		for l := range shadows {
			shadows[l] = NewStateWith(sc)
		}
	}
	fresh(schema)
	held := make([][]int, d.lanes) // steps left before a variable is redrawn
	for l := range held {
		held[l] = make([]int, len(laneVars))
	}

	prevMasks := make(map[Tap]uint64) // each tap's mask after the previous step
	for step := 0; step < d.steps; step++ {
		if step == d.swapAt {
			sc := NewSchema()
			sc.Intern("pad")
			for i := len(laneVars) - 1; i >= 0; i-- {
				sc.Intern(laneVars[i])
			}
			fresh(sc)
			for l := range held {
				for v := range held[l] {
					held[l][v] = 0
				}
			}
		}
		if step == d.resetAt {
			laneProg.Reset()
			for _, lane := range refs {
				for _, s := range lane {
					s.Reset()
				}
			}
		}
		if d.hold == nil {
			wide.Reset()
		}
		for l := 0; l < d.lanes; l++ {
			if d.hold == nil {
				shadows[l].Reset()
			}
			for v, name := range laneVars {
				if held[l][v] > 0 {
					held[l][v]--
					continue
				}
				setRandomLaneVar(r, wide, l, shadows[l], name)
				if d.hold != nil {
					held[l][v] = d.hold() - 1
				}
			}
		}
		laneProg.StepLanes(wide)
		full := step == 0 || step == d.resetAt || step == d.swapAt
		if err := checkChangedTaps(laneProg, taps, prevMasks, full); err != nil {
			t.Fatalf("seed %d step %d width %d: %v", d.seed, step, d.lanes, err)
		}
		for l := 0; l < d.lanes; l++ {
			for i, s := range refs[l] {
				want := s.Step(shadows[l])
				got := laneProg.OutputMask(taps[i])&(1<<uint(l)) != 0
				if got != want {
					t.Fatalf("seed %d step %d lane %d/%d: lane output %v != reference %v for %s",
						d.seed, step, l, d.lanes, got, want, formulas[i])
				}
			}
		}
	}
}

// checkChangedTaps requires p.ChangedTaps to list, each once, exactly the
// taps whose OutputMask differs from prev — every tap after a full pass —
// and records this step's masks in prev.
func checkChangedTaps(p *Program, taps []Tap, prev map[Tap]uint64, full bool) error {
	listed := make(map[Tap]bool)
	for _, tp := range p.ChangedTaps() {
		if listed[tp] {
			return fmt.Errorf("ChangedTaps lists tap %d twice", tp)
		}
		if !slices.Contains(taps, tp) {
			return fmt.Errorf("ChangedTaps lists node %d, which is no tap", tp)
		}
		listed[tp] = true
	}
	for _, tp := range taps {
		m, was := p.OutputMask(tp), prev[tp]
		if want := full || m != was; listed[tp] != want {
			return fmt.Errorf("tap %d (mask %b, previous %b, full pass %v): listed %v, want %v", tp, m, was, full, listed[tp], want)
		}
	}
	for _, tp := range taps {
		prev[tp] = p.OutputMask(tp)
	}
	return nil
}

// TestStepLanesMatchesReference is the lane mode's differential test: a
// batch of overlapping random formulas evaluated over L independent random
// traces must produce, via one lane-stepped program over the widened state,
// exactly the per-step verdicts of each formula's reference Stepper fed each
// lane's trace.  Width 1 is Program.Step.  Every variable is redrawn on every
// step.
func TestStepLanesMatchesReference(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 8, 64}
	for seed := int64(0); seed < 28; seed++ {
		laneDiff{seed: seed, lanes: widths[int(seed)%len(widths)], steps: 60, resetAt: -1, swapAt: -1}.run(t)
	}
}

// TestStepLanesHeldInputsMatchesReference is the differential in the quiet
// regime change-driven evaluation relies on: each variable holds its value
// for 1-50 steps, so most steps change few atoms and the bounded-past windows
// (1-4 and 20-79 steps) run both shorter and longer than the holds; midway
// the trace moves to a fresh schema, and later every evaluator is Reset.
func TestStepLanesHeldInputsMatchesReference(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 8, 64}
	for seed := int64(0); seed < 28; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		laneDiff{
			seed:    seed,
			lanes:   widths[int(seed)%len(widths)],
			steps:   300,
			hold:    func() int { return 1 + r.Intn(50) },
			resetAt: 200,
			swapAt:  100,
		}.run(t)
	}
}

// TestStepLanesStateNarrowerThanSchema pins the out-of-range slot rule: a
// name interned after the lane state was sized reads as absent on every lane
// — what the reference does — instead of slicing past the state's planes.
func TestStepLanesStateNarrowerThanSchema(t *testing.T) {
	schema := NewSchema()
	wide := NewStateWithLanes(schema, 4)
	narrow := NewStateWith(schema)
	f := MustParse("!(N < 3) & !A & !(S == 'red')")
	lanes := NewProgram(time.Millisecond, schema)
	tap := lanes.MustAdd(f)
	if err := lanes.SetLanes(4); err != nil {
		t.Fatal(err)
	}
	if !mustReference(t, f).Step(narrow) {
		t.Fatalf("reference %s over absent variables = false, want true", f)
	}
	lanes.StepLanes(wide)
	if got := lanes.OutputMask(tap); got != 0b1111 {
		t.Fatalf("lane %s over a state narrower than its schema = %04b, want 1111", f, got)
	}
}

// TestStepLanesResetReuse proves Reset rewinds lane state completely: the
// same program re-stepped over the same widened trace reproduces identical
// masks.
func TestStepLanesResetReuse(t *testing.T) {
	schema := NewSchema()
	p := NewProgram(time.Millisecond, schema)
	tap := p.MustAdd(MustParse("once(A) & !prev(B) & hist(N < 4)"))
	if err := p.SetLanes(3); err != nil {
		t.Fatal(err)
	}
	run := func() []uint64 {
		r := rand.New(rand.NewSource(7))
		wide := NewStateWithLanes(schema, 3)
		var got []uint64
		for step := 0; step < 40; step++ {
			for l := 0; l < 3; l++ {
				wide.SetSlotBool(schema.Intern("A")*3+l, r.Intn(2) == 0)
				wide.SetSlotBool(schema.Intern("B")*3+l, r.Intn(2) == 0)
				wide.SetSlotNumber(schema.Intern("N")*3+l, float64(r.Intn(6)))
			}
			p.StepLanes(wide)
			got = append(got, p.OutputMask(tap))
		}
		return got
	}
	first := run()
	p.Reset()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d: mask %b after reset != %b before", i, second[i], first[i])
		}
	}
}

// TestSetLanesRejects covers the lane-mode guard: widths outside
// [1, MaxLanes] are invalid, and every program lane-steps at any width
// inside it.
func TestSetLanesRejects(t *testing.T) {
	q := NewProgram(time.Millisecond, NewSchema())
	q.MustAdd(And(Var("A"), True, CompareVars("X", OpLe, "Y")))
	for _, w := range []int{1, 4, MaxLanes} {
		if err := q.SetLanes(w); err != nil {
			t.Fatalf("SetLanes(%d) rejected a valid width: %v", w, err)
		}
	}
	if err := q.SetLanes(0); err == nil {
		t.Fatal("SetLanes(0) accepted")
	}
	if err := q.SetLanes(MaxLanes + 1); err == nil {
		t.Fatal("SetLanes(65) accepted")
	}
	if err := q.SetLanes(MaxLanes); err != nil {
		t.Fatalf("SetLanes(%d): %v", MaxLanes, err)
	}
}

// TestCompareLanesMatchesCompareNumbers checks the lane compare kernels —
// including compareLanes' unrolled widths 1 and 4 and eqLanes — against the
// scalar compareNumbers for every operator at widths 1-8, over every vector
// of values below, equal to and above the constant and NaN.
func TestCompareLanesMatchesCompareNumbers(t *testing.T) {
	const c = 2.0
	values := []float64{1, c, 3, math.NaN()}
	vec := make([]float64, 8)
	for width := 1; width <= 8; width++ {
		combos := 1 << (2 * width)
		for combo := 0; combo < combos; combo++ {
			for l := 0; l < width; l++ {
				vec[l] = values[combo>>(2*l)&3]
			}
			v := vec[:width]
			for op := OpEq; op <= OpGe; op++ {
				var want uint64
				for l, f := range v {
					want |= b2u(compareNumbers(f, c, op)) << uint(l)
				}
				if got := compareLanes(v, c, op); got != want {
					t.Fatalf("compareLanes(%v, %v, %v) = %b, want %b", v, c, op, got, want)
				}
				if op == OpEq {
					if got := eqLanes(v, c); got != want {
						t.Fatalf("eqLanes(%v, %v) = %b, want %b", v, c, got, want)
					}
				}
			}
		}
	}
}
