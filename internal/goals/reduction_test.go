package goals

import (
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestBooleanStateSpace(t *testing.T) {
	sp := BooleanStateSpace("A", "B", "A")
	if len(sp) != 4 {
		t.Fatalf("len = %d, want 4 (duplicates removed)", len(sp))
	}
	seen := make(map[string]bool)
	for _, s := range sp {
		seen[s.String()] = true
	}
	if len(seen) != 4 {
		t.Errorf("states not distinct: %v", seen)
	}
}

func TestBooleanStateSpacePanicsOnTooManyVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for > 20 variables")
		}
	}()
	vars := make([]string, 21)
	for i := range vars {
		vars[i] = string(rune('a' + i))
	}
	BooleanStateSpace(vars...)
}

// chainReduction is the decomposition of Table 3.1: G: A=>B decomposed as
// {A=>C, C=>D, D=>B}.
func chainReduction() AndReduction {
	return AndReduction{
		Parent: MustParse("G", "goal", "A => B"),
		Subgoals: []Goal{
			MustParse("G1_1", "", "A => C"),
			MustParse("G1_2", "", "C => D"),
			MustParse("G1_3", "", "D => B"),
		},
	}
}

// TestCheckAndReductionInformalSubgoal checks a one-subgoal reduction with
// a nil formula: condition 4 compares renderings, a nil formula renders as
// the empty string, so an informal subgoal of a formal parent is no
// restatement, and two informal goals are.  A nil formula holds, as in
// Verdicts, so the informal subgoal cannot entail A => B.
func TestCheckAndReductionInformalSubgoal(t *testing.T) {
	space := BooleanStateSpace("A", "B")
	informal := Goal{Name: "informal", InformalDef: "x"}
	check := CheckAndReduction(AndReduction{Parent: MustParse("G", "goal", "A => B"), Subgoals: []Goal{informal}}, space)
	if !check.NonTrivial || check.Entails || !check.Consistent {
		t.Errorf("informal subgoal of A => B: %+v, want non-trivial, not entailing, consistent", check)
	}
	check = CheckAndReduction(AndReduction{Parent: Goal{Name: "G", InformalDef: "y"}, Subgoals: []Goal{informal}}, space)
	if check.NonTrivial {
		t.Errorf("informal subgoal of an informal parent: %+v, want a restatement", check)
	}
}

func TestAndReductionTables3_1_3_2(t *testing.T) {
	// Table 3.1: both {A=>C, C=>D, D=>B} and {A=>E, E=>B} are complete
	// and-reductions of G: A=>B.
	space := BooleanStateSpace("A", "B", "C", "D", "E")

	red1 := chainReduction()
	check1 := CheckAndReduction(red1, space)
	if !check1.Complete() {
		t.Errorf("Table 3.1 first and-reduction should be complete: %+v", check1)
	}

	red2 := AndReduction{
		Parent: MustParse("G", "goal", "A => B"),
		Subgoals: []Goal{
			MustParse("G2_1", "", "A => E"),
			MustParse("G2_2", "", "E => B"),
		},
	}
	check2 := CheckAndReduction(red2, space)
	if !check2.Complete() {
		t.Errorf("Table 3.1 second and-reduction should be complete: %+v", check2)
	}

	// Table 3.2: with the hidden dependency F => !C (emergence X1), the
	// first reduction no longer entails the parent unless !F is also
	// guaranteed; dropping subgoal C=>D breaks entailment, demonstrating a
	// partial and-reduction.
	partial := AndReduction{
		Parent: red1.Parent,
		Subgoals: []Goal{
			MustParse("G1_1", "", "A => C"),
			MustParse("G1_3", "", "D => B"),
		},
	}
	checkPartial := CheckAndReduction(partial, space)
	if checkPartial.Entails {
		t.Error("partial and-reduction must not entail the parent")
	}
	if !checkPartial.Consistent {
		t.Error("dropping a subgoal should leave a consistent, partial and-reduction")
	}
	if checkPartial.Counterexample == nil {
		t.Error("failed entailment should produce a counterexample state")
	}
}

func TestAndReductionMinimality(t *testing.T) {
	// Adding a redundant subgoal (a duplicate of an existing one) breaks
	// minimality and is reported.
	space := BooleanStateSpace("A", "B", "C", "D")
	red := chainReduction()
	red.Subgoals = append(red.Subgoals, MustParse("Gdup", "", "A => C"))
	check := CheckAndReduction(red, space)
	if !check.Entails {
		t.Fatal("entailment should still hold")
	}
	if check.Minimal {
		t.Error("duplicated subgoal should break minimality")
	}
	if len(check.RedundantSubgoals) == 0 {
		t.Error("redundant subgoal indices should be reported")
	}
	if check.Complete() {
		t.Error("non-minimal reduction should not be complete")
	}
}

func TestAndReductionConsistency(t *testing.T) {
	space := BooleanStateSpace("A", "B")
	red := AndReduction{
		Parent: MustParse("G", "", "A => B"),
		Subgoals: []Goal{
			MustParse("G1", "", "A"),
			MustParse("G2", "", "!A"),
		},
	}
	check := CheckAndReduction(red, space)
	if check.Consistent {
		t.Error("mutually incompatible subgoals should not be consistent")
	}
	if check.Complete() {
		t.Error("inconsistent reduction should not be complete")
	}
}

func TestAndReductionNonTrivial(t *testing.T) {
	space := BooleanStateSpace("A", "B")
	parent := MustParse("G", "", "A => B")

	restatement := AndReduction{Parent: parent, Subgoals: []Goal{MustParse("G1", "", "A => B")}}
	if CheckAndReduction(restatement, space).NonTrivial {
		t.Error("a restatement of the parent is not a decomposition")
	}

	// A single stronger subgoal is allowed (OR-reduction style).
	stronger := AndReduction{Parent: parent, Subgoals: []Goal{MustParse("G1", "", "B")}}
	check := CheckAndReduction(stronger, space)
	if !check.NonTrivial || !check.Entails {
		t.Errorf("single stronger subgoal should be a non-trivial entailing reduction: %+v", check)
	}

	empty := AndReduction{Parent: parent}
	if CheckAndReduction(empty, space).NonTrivial {
		t.Error("empty subgoal set is trivial")
	}

	// Restatement plus a domain assumption counts as relying on domain
	// knowledge (Darimont condition 4).
	withAssumption := AndReduction{
		Parent:      parent,
		Subgoals:    []Goal{MustParse("G1", "", "A => B")},
		Assumptions: []temporal.Formula{temporal.MustParse("B => A")},
	}
	if !CheckAndReduction(withAssumption, space).NonTrivial {
		t.Error("restatement relying on domain knowledge is non-trivial")
	}
}

func TestAndReductionWithAssumptions(t *testing.T) {
	// The ObjectInPath example of §3.2.1: the subgoals entail the parent
	// only under the domain assumption relating detection to reality.
	space := BooleanStateSpace("ObjectInPath", "Detected", "CAStop", "StopVehicle")
	parent := MustParse("G", "brake when object in path", "ObjectInPath => StopVehicle")
	red := AndReduction{
		Parent: parent,
		Subgoals: []Goal{
			MustParse("G1", "", "Detected => CAStop"),
			MustParse("G2", "", "CAStop => StopVehicle"),
		},
	}
	if CheckAndReduction(red, space).Entails {
		t.Fatal("without the detection assumption the subgoals must not entail the parent")
	}
	red.Assumptions = []temporal.Formula{temporal.MustParse("ObjectInPath => Detected")}
	check := CheckAndReduction(red, space)
	if !check.Entails {
		t.Fatalf("with the detection assumption the subgoals should entail the parent: %+v", check)
	}
}

func TestCheckAndReductionEmptySpace(t *testing.T) {
	check := CheckAndReduction(chainReduction(), nil)
	if check.Complete() {
		t.Error("empty state space should not certify a reduction")
	}
}

func TestPropChainEntailment(t *testing.T) {
	// Property: for every state, if all chain subgoals hold then the
	// parent holds (soundness of the entailment check on random states).
	red := chainReduction()
	f := func(a, b, c, d bool) bool {
		s := temporal.NewState().SetBool("A", a).SetBool("B", b).SetBool("C", c).SetBool("D", d)
		all := true
		for _, g := range red.Subgoals {
			if !HoldsInState(g.Formal, s) {
				all = false
			}
		}
		if !all {
			return true
		}
		return HoldsInState(red.Parent.Formal, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Len() != 0 {
		t.Fatal("new registry should be empty")
	}
	g1 := MustParse("Maintain[A]", "", "A")
	g2 := MustParse("Achieve[B]", "", "B => eventually(C)")
	r.Add(g1)
	r.Add(g2)
	r.Add(g1) // replace, not duplicate

	if r.Len() != 2 {
		t.Errorf("Len() = %d, want 2", r.Len())
	}
	if got := r.MustGet("Achieve[B]"); got.Name != "Achieve[B]" {
		t.Error("MustGet failed")
	}
	if all := r.All(); len(all) != 2 || all[0].Name != "Maintain[A]" || all[1].Name != "Achieve[B]" {
		t.Errorf("All() = %v", all)
	}
}

func TestRegistryMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet should panic for a missing goal")
		}
	}()
	NewRegistry().MustGet("missing")
}
