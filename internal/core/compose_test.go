package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/goals"
	"repro/internal/temporal"
)

func mustGoal(name, formal string) goals.Goal {
	return goals.MustParse(name, "", formal)
}

func TestComposabilityStrings(t *testing.T) {
	for c, want := range map[Composability]string{
		Emergent:                          "emergent",
		PartiallyComposable:               "emergent but partially composable",
		PartiallyComposableWithRedundancy: "emergent but partially composable with redundancy",
		FullyComposable:                   "fully composable",
		FullyComposableWithRedundancy:     "fully composable with redundancy",
		Composability(0):                  "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestComposabilityClasses reproduces the classification structure of
// Figures 3.3-3.6 on the thesis' ObjectInPath => StopVehicle example.
func TestComposabilityClasses(t *testing.T) {
	parent := mustGoal("G", "ObjectInPath => StopVehicle")

	t.Run("fully composable (Fig 3.3, Eq 3.5-3.6)", func(t *testing.T) {
		// Subgoals: ObjectInPath <=> CA.StopVehicle and CA.StopVehicle => StopVehicle.
		// Exactness (Eq 3.1) additionally needs the domain properties that
		// the vehicle stops only via CA and CA stops only in reaction to an
		// object — the "other and-reductions are prohibited" clause of §3.2.1.
		d := Decomposition{
			Parent: parent,
			Reductions: [][]goals.Goal{{
				mustGoal("G1", "ObjectInPath <=> CAStop"),
				mustGoal("G2", "CAStop => StopVehicle"),
			}},
			Assumptions: []temporal.Formula{
				temporal.MustParse("StopVehicle => CAStop"),
				temporal.MustParse("CAStop => ObjectInPath"),
			},
		}
		space := goals.BooleanStateSpace("ObjectInPath", "CAStop", "StopVehicle")
		res := Classify(d, space)
		if res.Class != FullyComposable {
			t.Fatalf("Class = %v (%s)", res.Class, res)
		}
		if !res.SubgoalsSufficient || !res.SubgoalsNecessary {
			t.Errorf("expected sufficient and necessary, got %s", res)
		}
	})

	t.Run("fully composable with redundancy (Fig 3.4, Eq 3.12-3.13)", func(t *testing.T) {
		d := Decomposition{
			Parent: parent,
			Reductions: [][]goals.Goal{
				{
					mustGoal("G1a", "ObjectInPath => CAStop"),
					mustGoal("G1b", "CAStop => StopVehicle"),
				},
				{
					mustGoal("G2a", "ObjectInPath => ACCStop"),
					mustGoal("G2b", "ACCStop => StopVehicle"),
				},
			},
			Assumptions: []temporal.Formula{
				temporal.MustParse("StopVehicle => (CAStop | ACCStop)"),
				temporal.MustParse("CAStop => ObjectInPath"),
				temporal.MustParse("ACCStop => ObjectInPath"),
			},
		}
		space := goals.BooleanStateSpace("ObjectInPath", "CAStop", "ACCStop", "StopVehicle")
		res := Classify(d, space)
		if res.Class != FullyComposableWithRedundancy {
			t.Fatalf("Class = %v (%s)", res.Class, res)
		}
	})

	t.Run("emergent but partially composable (Fig 3.5, Eq 3.17-3.20)", func(t *testing.T) {
		// Only detected objects are handled; undetected objects are the
		// hidden goal X, so the subgoals are necessary but not sufficient.
		d := Decomposition{
			Parent: parent,
			Reductions: [][]goals.Goal{{
				mustGoal("G1", "Detected => StopVehicle"),
			}},
			Assumptions: []temporal.Formula{
				// Stopping happens only in reaction to a detection, and a
				// detection only occurs when an object is in the path, so a
				// subgoal violation always implies a parent violation.
				temporal.MustParse("Detected => ObjectInPath"),
				temporal.MustParse("StopVehicle => Detected"),
			},
		}
		space := goals.BooleanStateSpace("ObjectInPath", "Detected", "StopVehicle")
		res := Classify(d, space)
		if res.Class != PartiallyComposable {
			t.Fatalf("Class = %v (%s)", res.Class, res)
		}
		if res.DemonState == nil {
			t.Error("expected a demon state witnessing the hidden goal X")
		}
	})

	t.Run("partially composable with redundancy: angelic emergence (Eq 3.31)", func(t *testing.T) {
		// The defined reduction is sufficient, but the vehicle may also be
		// stopped by unknown behaviour Y, so it is not necessary.
		d := Decomposition{
			Parent: parent,
			Reductions: [][]goals.Goal{{
				mustGoal("G1", "ObjectInPath => CAStop"),
				mustGoal("G2", "CAStop => StopVehicle"),
			}},
		}
		space := goals.BooleanStateSpace("ObjectInPath", "CAStop", "StopVehicle")
		res := Classify(d, space)
		if res.Class != PartiallyComposableWithRedundancy {
			t.Fatalf("Class = %v (%s)", res.Class, res)
		}
		if res.AngelState == nil {
			t.Error("expected an angel state witnessing emergent behaviour Y")
		}
	})

	t.Run("emergent", func(t *testing.T) {
		d := Decomposition{
			Parent: parent,
			Reductions: [][]goals.Goal{{
				mustGoal("G1", "Unrelated => AlsoUnrelated"),
			}},
		}
		space := goals.BooleanStateSpace("ObjectInPath", "StopVehicle", "Unrelated", "AlsoUnrelated")
		res := Classify(d, space)
		if res.Class != Emergent {
			t.Fatalf("Class = %v (%s)", res.Class, res)
		}
	})
}

func TestClassifyDegenerateInputs(t *testing.T) {
	parent := mustGoal("G", "A => B")
	if got := Classify(Decomposition{Parent: parent}, goals.BooleanStateSpace("A", "B")); got.Class != Emergent {
		t.Errorf("no reductions should classify as emergent, got %v", got.Class)
	}
	d := Decomposition{Parent: parent, Reductions: [][]goals.Goal{{mustGoal("G1", "B")}}}
	if got := Classify(d, nil); got.Class != Emergent {
		t.Errorf("empty state space should classify as emergent, got %v", got.Class)
	}
}

func TestClassifyNilParentFormula(t *testing.T) {
	d := Decomposition{
		Parent:     goals.Goal{Name: "G"},
		Reductions: [][]goals.Goal{{mustGoal("G1", "A")}},
	}
	res := Classify(d, goals.BooleanStateSpace("A"))
	// A nil parent formula is treated as vacuously true, so the subgoals are
	// sufficient but not necessary.
	if !res.SubgoalsSufficient {
		t.Error("nil parent formula should be treated as vacuously true")
	}
}

func TestClassificationResultString(t *testing.T) {
	r := ClassificationResult{Class: FullyComposable, SubgoalsSufficient: true, SubgoalsNecessary: true}
	if !strings.Contains(r.String(), "fully composable") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestSplitConjunctiveGoal(t *testing.T) {
	t.Run("conjunction body", func(t *testing.T) {
		g := mustGoal("G", "A & X")
		subs, ok := SplitConjunctiveGoal(g)
		if !ok || len(subs) != 2 {
			t.Fatalf("split failed: ok=%v len=%d", ok, len(subs))
		}
		if subs[0].Formal.String() != "A" || subs[1].Formal.String() != "X" {
			t.Errorf("unexpected split: %v / %v", subs[0].Formal, subs[1].Formal)
		}
	})
	t.Run("disjunctive antecedent (Eq 3.35-3.38)", func(t *testing.T) {
		g := mustGoal("G", "(InPathDetected | InPathNotDetected) => StopVehicle")
		subs, ok := SplitConjunctiveGoal(g)
		if !ok || len(subs) != 2 {
			t.Fatalf("split failed: ok=%v len=%d", ok, len(subs))
		}
		// Each case subgoal entails nothing alone, but their conjunction is
		// equivalent to the parent.
		space := goals.BooleanStateSpace("InPathDetected", "InPathNotDetected", "StopVehicle")
		d := Decomposition{Parent: g, Reductions: [][]goals.Goal{subs}}
		if res := Classify(d, space); res.Class != FullyComposable {
			t.Errorf("case split should be fully composable, got %s", res)
		}
	})
	t.Run("not splittable", func(t *testing.T) {
		if _, ok := SplitConjunctiveGoal(mustGoal("G", "A => B")); ok {
			t.Error("simple implication should not split")
		}
		if _, ok := SplitConjunctiveGoal(mustGoal("G", "A | B")); ok {
			t.Error("disjunction body should not split conjunctively")
		}
		if _, ok := SplitConjunctiveGoal(goals.Goal{}); ok {
			t.Error("nil formula should not split")
		}
	})
}

func TestORReduceGoal(t *testing.T) {
	keepVar := func(name string) func(temporal.Formula) bool {
		return func(f temporal.Formula) bool { return f.String() == name }
	}

	t.Run("disjunction body (Eq 3.42-3.43)", func(t *testing.T) {
		g := mustGoal("G", "A | X")
		sub, ok := ORReduceGoal(g, keepVar("A"))
		if !ok {
			t.Fatal("OR-reduction should apply")
		}
		if sub.Formal.String() != "A" {
			t.Errorf("reduced formula = %q", sub.Formal)
		}
		// The reduction is more restrictive: it entails the parent.
		for _, s := range goals.BooleanStateSpace("A", "X") {
			tr := temporal.NewTrace(0)
			tr.Append(s)
			if sub.Formal.Eval(tr, 0) && !g.Formal.Eval(tr, 0) {
				t.Error("OR-reduced goal must entail the parent goal")
			}
		}
	})
	t.Run("conjunctive antecedent (Eq 3.44-3.46)", func(t *testing.T) {
		g := mustGoal("G", "(A & X) => B")
		sub, ok := ORReduceGoal(g, keepVar("A"))
		if !ok {
			t.Fatal("OR-reduction should apply")
		}
		if sub.Formal.String() != "(A) => (B)" {
			t.Errorf("reduced formula = %q", sub.Formal)
		}
	})
	t.Run("no reduction", func(t *testing.T) {
		if _, ok := ORReduceGoal(mustGoal("G", "A => B"), keepVar("A")); ok {
			t.Error("simple implication should not OR-reduce")
		}
		if _, ok := ORReduceGoal(mustGoal("G", "A & B"), keepVar("A")); ok {
			t.Error("conjunction body should not OR-reduce")
		}
		if _, ok := ORReduceGoal(goals.Goal{}, keepVar("A")); ok {
			t.Error("nil formula should not OR-reduce")
		}
		// Keeping everything is not a reduction.
		if _, ok := ORReduceGoal(mustGoal("G", "A | B"), func(temporal.Formula) bool { return true }); ok {
			t.Error("keeping all disjuncts is not a reduction")
		}
		// Keeping nothing is not allowed either.
		if _, ok := ORReduceGoal(mustGoal("G", "A | B"), func(temporal.Formula) bool { return false }); ok {
			t.Error("dropping all disjuncts is not a reduction")
		}
	})
}

func TestSafetyEnvelope(t *testing.T) {
	g := mustGoal("Achieve[AutoAccelBelowThreshold]", "VehicleAcceleration <= 2")
	sub, ok := SafetyEnvelope(g, "AccelerationRequest", 0.5)
	if !ok {
		t.Fatal("SafetyEnvelope should apply to a threshold goal")
	}
	if sub.Formal.String() != "AccelerationRequest <= 1.5" {
		t.Errorf("envelope formula = %q", sub.Formal)
	}

	// Works on the consequent of an implication too.
	g2 := mustGoal("G", "IsSubsystem => VehicleAcceleration < 2")
	sub2, ok := SafetyEnvelope(g2, "Request", 0.25)
	if !ok {
		t.Fatal("SafetyEnvelope should apply to the consequent threshold")
	}
	if sub2.Formal.String() != "Request < 1.75" {
		t.Errorf("envelope formula = %q", sub2.Formal)
	}

	// Not a threshold goal.
	if _, ok := SafetyEnvelope(mustGoal("G", "A | B"), "x", 1); ok {
		t.Error("non-threshold goal should not produce an envelope")
	}
	if _, ok := SafetyEnvelope(goals.Goal{}, "x", 1); ok {
		t.Error("nil formula should not produce an envelope")
	}
}

func TestPropORReductionEntailsParent(t *testing.T) {
	// Any OR-reduction of q(A ∨ B ∨ C) to a subset entails the original.
	f := func(keepA, keepB, keepC, a, b, c bool) bool {
		if !keepA && !keepB && !keepC {
			return true
		}
		g := mustGoal("G", "A | B | C")
		keepSet := map[string]bool{"A": keepA, "B": keepB, "C": keepC}
		sub, ok := ORReduceGoal(g, func(f temporal.Formula) bool { return keepSet[f.String()] })
		if !ok {
			return true // keeping everything: nothing to check
		}
		s := temporal.NewState().SetBool("A", a).SetBool("B", b).SetBool("C", c)
		tr := temporal.NewTrace(0)
		tr.Append(s)
		if sub.Formal.Eval(tr, 0) && !g.Formal.Eval(tr, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSafetyEnvelopeMonotone(t *testing.T) {
	// A larger envelope is never less restrictive: if the enveloped goal
	// holds with margin m2 >= m1, it holds with margin m1.
	f := func(x float64, m1, m2 uint8) bool {
		g := mustGoal("G", "v <= 2")
		lo, hi := float64(m1%10)/10, float64(m2%10)/10
		if lo > hi {
			lo, hi = hi, lo
		}
		subLo, ok1 := SafetyEnvelope(g, "req", lo)
		subHi, ok2 := SafetyEnvelope(g, "req", hi)
		if !ok1 || !ok2 {
			return false
		}
		s := temporal.NewState().SetNumber("req", x)
		tr := temporal.NewTrace(0)
		tr.Append(s)
		// Satisfying the tighter (hi) envelope implies satisfying the looser (lo).
		if subHi.Formal.Eval(tr, 0) && !subLo.Formal.Eval(tr, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
