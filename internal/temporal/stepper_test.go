package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCompileRejectsFutureTime(t *testing.T) {
	if _, err := CompileReference(Eventually(Var("A")), time.Millisecond); err == nil {
		t.Fatal("CompileReference should reject future-time formulas")
	}
	if _, err := CompileReference(Implies(Var("A"), Next(Var("B"))), time.Millisecond); err == nil {
		t.Fatal("CompileReference should reject formulas containing next()")
	}
	if _, err := CompileReference(Always(Var("A")), time.Millisecond); err == nil {
		t.Fatal("CompileReference should reject formulas containing always()")
	}
}

func TestStepperDefaultPeriod(t *testing.T) {
	s, err := CompileReference(Var("A"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Step(NewState().SetBool("A", true)) {
		t.Error("step should be true")
	}
	if s.Steps() != 1 {
		t.Errorf("Steps() = %d, want 1", s.Steps())
	}
}

// stepperMatchesBatch checks that incremental evaluation — the reference
// Stepper and a one-formula Program — matches the batch trace semantics for
// every index of the trace.
func stepperMatchesBatch(t *testing.T, f Formula, tr *Trace) {
	t.Helper()
	s, err := CompileReference(f, tr.Period)
	if err != nil {
		t.Fatalf("compile %s: %v", f, err)
	}
	p := NewProgram(tr.Period, nil)
	tap := p.MustAdd(f)
	for i := 0; i < tr.Len(); i++ {
		want := f.Eval(tr, i)
		if got := s.Step(tr.At(i)); got != want {
			t.Fatalf("formula %s at index %d: stepper=%v batch=%v", f, i, got, want)
		}
		p.Step(tr.At(i))
		if got := p.Output(tap); got != want {
			t.Fatalf("formula %s at index %d: program=%v batch=%v", f, i, got, want)
		}
	}
}

func TestStepperMatchesBatchSemantics(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{
		"A": {false, true, true, false, true, true, true, false},
		"B": {true, false, true, true, false, true, false, false},
	})
	formulas := []Formula{
		Var("A"),
		Not(Var("A")),
		And(Var("A"), Var("B")),
		Or(Var("A"), Var("B")),
		Implies(Var("A"), Var("B")),
		Iff(Var("A"), Var("B")),
		Prev(Var("A")),
		Once(Var("A")),
		Historically(Var("B")),
		Became(Var("A")),
		Initially(Var("B")),
		PrevFor(Var("A"), 2*time.Millisecond),
		PrevWithin(Var("A"), 3*time.Millisecond),
		PrevFor(Var("A"), 0),
		Implies(Prev(Var("A")), Or(Var("B"), Became(Var("A")))),
		And(Once(Var("A")), Not(Historically(Var("B"))), PrevWithin(Var("B"), 2*time.Millisecond)),
	}
	for _, f := range formulas {
		t.Run(f.String(), func(t *testing.T) {
			stepperMatchesBatch(t, f, tr)
		})
	}
}

func TestStepperNumericFormulas(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	vals := []float64{0, 1.5, 2.5, 1.9, 3.0, 0.5}
	for _, v := range vals {
		tr.Append(NewState().SetNumber("accel", v).SetString("src", "CA"))
	}
	f := Implies(Eq("src", String("CA")), Le("accel", 2))
	stepperMatchesBatch(t, f, tr)
}

func TestStepperReset(t *testing.T) {
	f := Once(Var("A"))
	s := mustReference(t, f)
	s.Step(NewState().SetBool("A", true))
	if !s.Step(NewState().SetBool("A", false)) {
		t.Fatal("Once should hold after A was true")
	}
	s.Reset()
	if s.Steps() != 0 {
		t.Errorf("Steps() after reset = %d", s.Steps())
	}
	if s.Step(NewState().SetBool("A", false)) {
		t.Fatal("after Reset, Once should be false again")
	}
}

// TestStepperResetAllNodeKinds checks Reset rewinds every operator — nested
// ones included, such as a historically under a prev — by requiring each
// formula's second pass over the trace to match batch evaluation again.
func TestStepperResetAllNodeKinds(t *testing.T) {
	parts := []Formula{
		Prev(Var("A")),
		Or(Once(Var("A")), Historically(Var("B"))),
		Implies(Became(Var("A")), Var("B")),
		Iff(Initially(Var("A")), Var("A")),
		Not(PrevFor(Var("A"), 2*time.Millisecond)),
		Or(True, PrevWithin(Var("B"), 2*time.Millisecond)),
		Prev(Historically(Var("B"))),
		Prev(Became(Var("A"))),
	}
	tr := boolTrace(t, map[string][]bool{
		"A": {true, false, true, true},
		"B": {true, true, false, true},
	})
	for _, f := range append(parts, And(parts...)) {
		s := mustReference(t, f)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < tr.Len(); i++ {
				if got, want := s.Step(tr.At(i)), f.Eval(tr, i); got != want {
					t.Fatalf("%s pass %d step %d = %v, want %v", f, pass, i, got, want)
				}
			}
			s.Reset()
		}
	}
}

func TestPropStepperEquivalence(t *testing.T) {
	// For random traces and a representative compound formula, the
	// incremental stepper agrees with batch evaluation at every index.
	formula := Implies(
		And(Prev(Var("A")), PrevWithin(Var("B"), 4*time.Millisecond)),
		Or(Became(Var("B")), Once(Var("A"))),
	)
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%64)+1)
		s, err := CompileReference(formula, tr.Period)
		if err != nil {
			return false
		}
		p := NewProgram(tr.Period, nil)
		tap := p.MustAdd(formula)
		for i := 0; i < tr.Len(); i++ {
			p.Step(tr.At(i))
			want := formula.Eval(tr, i)
			if s.Step(tr.At(i)) != want || p.Output(tap) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
