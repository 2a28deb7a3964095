package temporal

import (
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestStateSetGet(t *testing.T) {
	s := NewState().
		SetBool("DoorClosed", true).
		SetNumber("ElevatorSpeed", 0.5).
		SetString("DriveCommand", "GO")

	if !s.Bool("DoorClosed") {
		t.Error("DoorClosed should be true")
	}
	if got := s.Number("ElevatorSpeed"); got != 0.5 {
		t.Errorf("ElevatorSpeed = %v, want 0.5", got)
	}
	if got := s.StringVal("DriveCommand"); got != "GO" {
		t.Errorf("DriveCommand = %q, want GO", got)
	}
	if s.Has("Missing") {
		t.Error("Missing should not be present")
	}
	if !s.Has("DoorClosed") {
		t.Error("DoorClosed should be present")
	}
}

func TestStateClone(t *testing.T) {
	s := NewState().SetBool("A", true)
	c := s.Clone()
	c.SetBool("A", false)
	if !s.Bool("A") {
		t.Error("Clone must not alias the original state")
	}
}

func TestStateNamesSorted(t *testing.T) {
	s := NewState().SetBool("zeta", true).SetBool("alpha", true).SetBool("mid", true)
	want := []string{"alpha", "mid", "zeta"}
	if got := s.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestStateString(t *testing.T) {
	s := NewState().SetBool("B", true).SetNumber("A", 1)
	if got := s.String(); got != "{A=1, B=true}" {
		t.Errorf("String() = %q", got)
	}
}

func TestTraceAppendAndAt(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	tr.Append(NewState().SetNumber("x", 0))
	tr.AppendClone(NewState().SetNumber("x", 1))
	if tr.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", tr.Len())
	}
	if got := tr.At(1).Number("x"); got != 1 {
		t.Errorf("At(1).x = %v, want 1", got)
	}
	if got := tr.Last().Number("x"); got != 1 {
		t.Errorf("Last().x = %v, want 1", got)
	}
	if got := tr.Time(2); got != 2*time.Millisecond {
		t.Errorf("Time(2) = %v", got)
	}
}

func TestTraceDefaultPeriod(t *testing.T) {
	tr := NewTrace(0)
	if tr.Period != time.Millisecond {
		t.Errorf("default period = %v, want 1ms", tr.Period)
	}
}

func TestTraceEmptyLast(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	if tr.Last() != nil {
		t.Error("Last() on empty trace should be nil")
	}
}

func TestTraceStepsFor(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{200 * time.Millisecond, 200},
	}
	for _, tt := range tests {
		if got := tr.StepsFor(tt.d); got != tt.want {
			t.Errorf("StepsFor(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

// TestTraceAppendCloneIndependentOfLive records snapshots of one live state
// and mutates it after each: every snapshot keeps the values it was recorded
// with.
func TestTraceAppendCloneIndependentOfLive(t *testing.T) {
	live := NewState()
	tr := NewTraceWithCapacity(time.Millisecond, 3)
	for i := 0; i < 3; i++ {
		live.SetNumber("n", float64(i)).SetBool("b", i%2 == 0).SetString("s", "S"+strconv.Itoa(i))
		tr.AppendClone(live)
	}
	live.SetNumber("n", -1).SetBool("b", false).SetString("s", "live")
	live.Set("n", Value{})
	for i := 0; i < 3; i++ {
		want := "{b=" + strconv.FormatBool(i%2 == 0) + ", n=" + strconv.Itoa(i) + ", s='S" + strconv.Itoa(i) + "'}"
		if got := tr.At(i).String(); got != want {
			t.Errorf("snapshot %d = %s, want %s", i, got, want)
		}
	}
}

// TestTraceAtReturnsIndependentCopy mutates the states At returns, in place
// and by interning names that grow their planes: the trace still reads every
// tick as recorded, and a second At of the same tick is a fresh copy.
func TestTraceAtReturnsIndependentCopy(t *testing.T) {
	live := NewState().SetNumber("a", 1).SetString("m", "ACC")
	tr := NewTraceWithCapacity(time.Millisecond, 2)
	tr.AppendClone(live)
	live.SetNumber("a", 2)
	tr.AppendClone(live)

	first, second := tr.At(0), tr.At(1)
	first.SetNumber("a", 10)      // in place
	first.SetBool("grown", true)  // interns a name: first's planes grow
	first.SetNumber("extra", 3.5) // and grow again
	second.SetString("m", "LCA")
	if got := first.String(); got != "{a=10, extra=3.5, grown=true, m='ACC'}" {
		t.Errorf("mutated copy = %s", got)
	}
	for i, want := range []string{"{a=1, m='ACC'}", "{a=2, m='ACC'}"} {
		if got := tr.At(i).String(); got != want {
			t.Errorf("At(%d) after mutating earlier copies = %s, want %s", i, got, want)
		}
	}
	if tr.At(1) == tr.At(1) {
		t.Error("At returned the same register file twice")
	}
	if got := tr.Last().String(); got != "{a=2, m='ACC'}" {
		t.Errorf("Last() = %s, want {a=2, m='ACC'}", got)
	}
}

// TestTraceMidRunInternStartsKeyframe interns a name between recordings: the
// next tick starts a keyframe of the wider register file, and the earlier,
// narrower ticks still read their own values and treat the new name as
// absent.
func TestTraceMidRunInternStartsKeyframe(t *testing.T) {
	live := NewState().SetNumber("x", 0)
	tr := NewTraceWithCapacity(time.Millisecond, 8)
	for i := 0; i < 3; i++ {
		tr.AppendClone(live.SetNumber("x", float64(i)))
	}
	if len(tr.keys) != 1 || tr.keys[0].width != 1 {
		t.Fatalf("before the intern: keyframes %+v, want one of width 1", tr.keys)
	}
	live.SetBool("late", true)
	for i := 3; i < 5; i++ {
		tr.AppendClone(live.SetNumber("x", float64(i)))
	}
	if len(tr.keys) != 2 || tr.keys[1].tick != 3 || tr.keys[1].width != 2 {
		t.Errorf("after the intern: keyframes %+v, want a second one of width 2 at tick 3", tr.keys)
	}
	for i := 0; i < 5; i++ {
		st := tr.At(i)
		if got := st.Number("x"); got != float64(i) {
			t.Errorf("tick %d: x = %v, want %d", i, got, i)
		}
		if got, want := st.Has("late"), i >= 3; got != want {
			t.Errorf("tick %d: Has(late) = %v, want %v", i, got, want)
		}
	}
}

func TestTraceSeries(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	for i := 0; i < 3; i++ {
		tr.Append(NewState().SetNumber("a", float64(i)*2).SetBool("b", i%2 == 0))
	}
	if got := tr.Series("a"); !reflect.DeepEqual(got, []float64{0, 2, 4}) {
		t.Errorf("Series = %v", got)
	}
	if got := tr.BoolSeries("b"); !reflect.DeepEqual(got, []bool{true, false, true}) {
		t.Errorf("BoolSeries = %v", got)
	}
}

// TestNilStateReads locks the nil-State contract: nil is the absent snapshot
// (e.g. the last state of an empty trace) and every read treats it as a
// state with no variables, as the map-backed representation did.
func TestNilStateReads(t *testing.T) {
	var s State
	if s.Get("x").IsValid() {
		t.Error("nil state Get should be invalid")
	}
	if s.Has("x") {
		t.Error("nil state Has should be false")
	}
	if s.Bool("x") {
		t.Error("nil state Bool should be false")
	}
	if n := s.Number("x"); n == n { // NaN
		t.Errorf("nil state Number = %v, want NaN", n)
	}
	if got := s.StringVal("x"); got != "" {
		t.Errorf("nil state StringVal = %q, want empty", got)
	}
	if s.Slot(0).IsValid() {
		t.Error("nil state Slot should be invalid")
	}
	if s.Schema() != nil {
		t.Error("nil state Schema should be nil")
	}
	if names := s.Names(); names != nil {
		t.Errorf("nil state Names = %v, want nil", names)
	}
	if got := s.String(); got != "{}" {
		t.Errorf("nil state String = %q, want {}", got)
	}
	if c := s.Clone(); c == nil || c.Has("x") {
		t.Error("cloning the nil state should yield a fresh empty state")
	}

	// An evaluator observing the nil state treats every atom as absent.
	p := NewProgram(0, nil)
	tap := p.MustAdd(MustParse("x > 1 | flag"))
	if p.Step(nil); p.Output(tap) {
		t.Error("program over the nil state should be false")
	}
	ref, err := CompileReference(MustParse("x > 1 | flag"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step(nil) {
		t.Error("reference stepper over the nil state should be false")
	}
}
