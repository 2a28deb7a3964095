package temporal

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// boolTrace builds a trace from sequences of boolean variable values.
func boolTrace(t *testing.T, vars map[string][]bool) *Trace {
	t.Helper()
	tr := NewTrace(time.Millisecond)
	n := 0
	for _, vs := range vars {
		n = len(vs)
		break
	}
	for i := 0; i < n; i++ {
		s := NewState()
		for name, vs := range vars {
			s.SetBool(name, vs[i])
		}
		tr.Append(s)
	}
	return tr
}

func evalAll(f Formula, tr *Trace) []bool {
	out := make([]bool, tr.Len())
	for i := range out {
		out[i] = f.Eval(tr, i)
	}
	return out
}

func TestPropositionalOperators(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{
		"A": {true, true, false, false},
		"B": {true, false, true, false},
	})
	tests := []struct {
		name string
		f    Formula
		want []bool
	}{
		{"var", Var("A"), []bool{true, true, false, false}},
		{"not", Not(Var("A")), []bool{false, false, true, true}},
		{"and", And(Var("A"), Var("B")), []bool{true, false, false, false}},
		{"or", Or(Var("A"), Var("B")), []bool{true, true, true, false}},
		{"implies", Implies(Var("A"), Var("B")), []bool{true, false, true, true}},
		{"iff", Iff(Var("A"), Var("B")), []bool{true, false, false, true}},
		{"true", True, []bool{true, true, true, true}},
		{"false", False, []bool{false, false, false, false}},
		{"empty and", And(), []bool{true, true, true, true}},
		{"empty or", Or(), []bool{false, false, false, false}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := evalAll(tt.f, tr); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("%s: got %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestComparisonAtoms(t *testing.T) {
	tr := NewTrace(time.Millisecond)
	tr.Append(NewState().SetNumber("accel", 1.5).SetString("cmd", "STOP").SetNumber("limit", 2))
	tr.Append(NewState().SetNumber("accel", 2.5).SetString("cmd", "GO").SetNumber("limit", 2))

	tests := []struct {
		name string
		f    Formula
		want []bool
	}{
		{"le", Le("accel", 2), []bool{true, false}},
		{"lt", Lt("accel", 2.5), []bool{true, false}},
		{"ge", Ge("accel", 1.5), []bool{true, true}},
		{"gt", Gt("accel", 2), []bool{false, true}},
		{"eq string", Eq("cmd", String("STOP")), []bool{true, false}},
		{"ne string", Ne("cmd", String("STOP")), []bool{false, true}},
		{"var vs var", CompareVars("accel", OpLe, "limit"), []bool{true, false}},
		{"missing var", Le("nothere", 10), []bool{false, false}},
		{"missing rhs var", CompareVars("accel", OpLe, "nothere"), []bool{false, false}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := evalAll(tt.f, tr); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("%s: got %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestPastTimeOperators(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{
		"P": {false, true, true, false, true},
	})
	tests := []struct {
		name string
		f    Formula
		want []bool
	}{
		{"prev", Prev(Var("P")), []bool{false, false, true, true, false}},
		{"once", Once(Var("P")), []bool{false, false, true, true, true}},
		{"hist", Historically(Var("P")), []bool{true, false, false, false, false}},
		{"became", Became(Var("P")), []bool{false, true, false, false, true}},
		{"initially", Initially(Var("P")), []bool{false, false, false, false, false}},
		{"prevfor 2ms", PrevFor(Var("P"), 2*time.Millisecond), []bool{false, false, false, true, false}},
		{"prevwithin 2ms", PrevWithin(Var("P"), 2*time.Millisecond), []bool{false, false, true, true, true}},
		{"prevfor zero duration", PrevFor(Var("P"), 0), []bool{true, true, true, true, true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := evalAll(tt.f, tr); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("%s: got %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestBecameInitialState(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{"P": {true, true, false, true}})
	want := []bool{true, false, false, true}
	if got := evalAll(Became(Var("P")), tr); !reflect.DeepEqual(got, want) {
		t.Errorf("became = %v, want %v", got, want)
	}
}

func TestHistoricallyTrueAtStart(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{"P": {false, false}})
	// Vacuously true at index 0 (no previous states).
	if !Historically(Var("P")).Eval(tr, 0) {
		t.Error("Historically should be vacuously true at the initial state")
	}
}

func TestInitiallyTrue(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{"P": {true, false, false}})
	want := []bool{true, true, true}
	if got := evalAll(Initially(Var("P")), tr); !reflect.DeepEqual(got, want) {
		t.Errorf("initially = %v, want %v", got, want)
	}
	empty := NewTrace(time.Millisecond)
	if Initially(Var("P")).Eval(empty, 0) {
		t.Error("Initially on an empty trace should be false")
	}
}

func TestFutureTimeOperators(t *testing.T) {
	tr := boolTrace(t, map[string][]bool{
		"P": {false, true, false, false},
	})
	tests := []struct {
		name string
		f    Formula
		want []bool
	}{
		{"next", Next(Var("P")), []bool{true, false, false, false}},
		{"eventually", Eventually(Var("P")), []bool{true, true, false, false}},
		{"always not P", Always(Not(Var("P"))), []bool{false, false, true, true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := evalAll(tt.f, tr); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("%s: got %v, want %v", tt.f, got, tt.want)
			}
		})
	}
}

func TestVarsMergedAndSorted(t *testing.T) {
	f := Implies(And(Var("zeta"), Gt("alpha", 1)), Or(Prev(Var("mid")), Eq("alpha", Number(2))))
	want := []string{"alpha", "mid", "zeta"}
	if got := f.Vars(); !reflect.DeepEqual(got, want) {
		t.Errorf("Vars() = %v, want %v", got, want)
	}
	if got := CompareVars("x", OpEq, "x").Vars(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("CompareVars same var Vars() = %v", got)
	}
}

func TestAntecedentConsequent(t *testing.T) {
	f := Implies(Var("A"), Var("B"))
	if Antecedent(f).String() != "A" || Consequent(f).String() != "B" {
		t.Error("Antecedent/Consequent did not extract the implication parts")
	}
	if Antecedent(Var("A")) != nil || Consequent(Var("A")) != nil {
		t.Error("non-implication formulas must return nil parts")
	}
}

func TestIsPastTime(t *testing.T) {
	past := []Formula{
		Var("A"),
		Implies(Prev(Var("A")), Var("B")),
		And(Once(Var("A")), Historically(Var("B")), Became(Var("C"))),
		Or(PrevFor(Var("A"), time.Second), PrevWithin(Var("B"), time.Second)),
		Iff(Initially(Var("A")), Not(Var("B"))),
	}
	for _, f := range past {
		if !IsPastTime(f) {
			t.Errorf("IsPastTime(%s) = false, want true", f)
		}
	}
	future := []Formula{
		Eventually(Var("A")),
		Implies(Var("A"), Eventually(Var("B"))),
		And(Var("A"), Next(Var("B"))),
		Not(Always(Var("A"))),
		Or(Var("A"), Always(Var("B"))),
		Iff(Var("A"), Next(Var("B"))),
		Prev(Next(Var("A"))),
	}
	for _, f := range future {
		if IsPastTime(f) {
			t.Errorf("IsPastTime(%s) = true, want false", f)
		}
	}
}

func TestReferencesFuture(t *testing.T) {
	if !ReferencesFuture(Implies(Var("A"), Eventually(Var("B")))) {
		t.Error("Achieve-style goal with eventually must reference the future")
	}
	if ReferencesFuture(Implies(Prev(Var("A")), Var("B"))) {
		t.Error("past-time goal must not reference the future")
	}
	nested := []Formula{
		Next(Eventually(Var("A"))),
		Always(Eventually(Var("A"))),
		Not(Eventually(Var("A"))),
		And(Var("B"), Eventually(Var("A"))),
		Or(Var("B"), Eventually(Var("A"))),
		Iff(Var("B"), Eventually(Var("A"))),
		Prev(Eventually(Var("A"))),
		Once(Eventually(Var("A"))),
		Historically(Eventually(Var("A"))),
		Became(Eventually(Var("A"))),
		PrevFor(Eventually(Var("A")), time.Second),
		PrevWithin(Eventually(Var("A")), time.Second),
		Initially(Eventually(Var("A"))),
	}
	for _, f := range nested {
		if !ReferencesFuture(f) {
			t.Errorf("ReferencesFuture(%s) = false, want true", f)
		}
	}
	if ReferencesFuture(Always(Var("A"))) {
		t.Error("Always alone is bounded by the trace and not flagged as a future reference")
	}
}

func TestFormulaStrings(t *testing.T) {
	tests := []struct {
		f    Formula
		want string
	}{
		{Implies(Var("A"), Var("B")), "(A) => (B)"},
		{Not(Var("A")), "!(A)"},
		{And(Var("A"), Var("B")), "(A) & (B)"},
		{Or(Var("A"), Var("B")), "(A) | (B)"},
		{Iff(Var("A"), Var("B")), "(A) <=> (B)"},
		{Prev(Var("A")), "prev(A)"},
		{Once(Var("A")), "once(A)"},
		{Historically(Var("A")), "hist(A)"},
		{Became(Var("A")), "became(A)"},
		{Initially(Var("A")), "initially(A)"},
		{Next(Var("A")), "next(A)"},
		{Eventually(Var("A")), "eventually(A)"},
		{Always(Var("A")), "always(A)"},
		{Le("x", 2), "x <= 2"},
		{Eq("c", String("STOP")), "c == 'STOP'"},
		{CompareVars("a", OpGt, "b"), "a > b"},
		{And(), "true"},
		{Or(), "false"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCompareOpString(t *testing.T) {
	ops := map[CompareOp]string{OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", CompareOp(99): "?"}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("op.String() = %q, want %q", got, want)
		}
	}
}

// --- property-based tests -------------------------------------------------

// randomTrace builds a random boolean trace over variables A and B.
func randomTrace(r *rand.Rand, n int) *Trace {
	tr := NewTrace(time.Millisecond)
	for i := 0; i < n; i++ {
		tr.Append(NewState().
			SetBool("A", r.Intn(2) == 0).
			SetBool("B", r.Intn(2) == 0))
	}
	return tr
}

func TestPropDeMorgan(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%32)+1)
		lhs := Not(And(Var("A"), Var("B")))
		rhs := Or(Not(Var("A")), Not(Var("B")))
		for i := 0; i < tr.Len(); i++ {
			if lhs.Eval(tr, i) != rhs.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropImplicationAsDisjunction(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%32)+1)
		lhs := Implies(Var("A"), Var("B"))
		rhs := Or(Not(Var("A")), Var("B"))
		for i := 0; i < tr.Len(); i++ {
			if lhs.Eval(tr, i) != rhs.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropBecameDefinition(t *testing.T) {
	// @P  =  P ∧ l¬P  (thesis Figure 2.5), except in the initial state where
	// Became(P) reduces to P because Prev is false there.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%32)+1)
		became := Became(Var("A"))
		def := And(Var("A"), Not(Prev(Var("A"))))
		for i := 1; i < tr.Len(); i++ {
			if became.Eval(tr, i) != def.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropOnceMonotone(t *testing.T) {
	// Once(P) is monotone: once true it stays true.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%48)+2)
		once := Once(Var("A"))
		seen := false
		for i := 0; i < tr.Len(); i++ {
			v := once.Eval(tr, i)
			if seen && !v {
				return false
			}
			if v {
				seen = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropHistoricallyDualOfOnce(t *testing.T) {
	// Historically(P) == !Once(!P)
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%48)+1)
		lhs := Historically(Var("A"))
		rhs := Not(Once(Not(Var("A"))))
		for i := 0; i < tr.Len(); i++ {
			if lhs.Eval(tr, i) != rhs.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPrevWithinSubsumesPrev(t *testing.T) {
	// l P implies l<T P for any T >= one step.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%48)+1)
		prev := Prev(Var("A"))
		within := PrevWithin(Var("A"), 5*time.Millisecond)
		for i := 0; i < tr.Len(); i++ {
			if prev.Eval(tr, i) && !within.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPrevForImpliesPrevWithin(t *testing.T) {
	// ln<T P implies l<T P whenever the window is non-empty.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTrace(r, int(n%48)+2)
		pf := PrevFor(Var("A"), 3*time.Millisecond)
		pw := PrevWithin(Var("A"), 3*time.Millisecond)
		for i := 0; i < tr.Len(); i++ {
			if pf.Eval(tr, i) && !pw.Eval(tr, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
