package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// FuzzDecompositionAnalyses checks the two Chapter 3 analyses, Classify and
// goals.CheckAndReduction, against their definitions: the per-state loops
// below, which evaluate every formula through goals.HoldsInState each time a
// condition needs it.  Each input decodes to a small decomposition over a
// BooleanStateSpace of three or four variables, with one or two reductions
// and up to two assumptions; formulas mix the connectives with prev, once,
// hist, became, initially, next, eventually and always, whose verdicts on a
// one-state trace are the edge cases of the state-wise semantics.  Every
// field must match, and each witness state must be the very state of the
// space the definition picks (the first in space order).
func FuzzDecompositionAnalyses(f *testing.F) {
	// Hand-written seeds: the Table 3.1 chain A=>B by {A=>C, C=>D, D=>B}
	// (a complete reduction, whose minimality needs every column), A=>B by
	// {A=>C, C=>B, C=>B} (the last two columns redundant), the
	// ObjectInPath example of Figure 3.4 with two reductions under two of
	// its assumptions, which exclude states, and a restatement of the
	// parent under an assumption.  In decodeFormula's encoding, 0 i is
	// variable i (A, B, C, D) and 6 a b is a => b.
	f.Add([]byte{1, 6, 0, 0, 0, 1, 0, 2, 6, 0, 0, 0, 2, 6, 0, 2, 0, 3, 6, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 6, 0, 0, 0, 1, 0, 2, 6, 0, 0, 0, 2, 6, 0, 2, 0, 1, 6, 0, 2, 0, 1, 0})
	f.Add([]byte{1, 6, 0, 0, 0, 3, 1, 1, 6, 0, 0, 0, 1, 6, 0, 1, 0, 3, 1, 6, 0, 0, 0, 2, 6, 0, 2, 0, 3,
		2, 6, 0, 3, 5, 0, 1, 0, 2, 6, 0, 1, 0, 0})
	f.Add([]byte{0, 6, 0, 0, 0, 1, 0, 0, 6, 0, 0, 0, 1, 1, 6, 0, 1, 0, 0})
	r := rand.New(rand.NewPCG(31, 3))
	for range 48 {
		seed := make([]byte, 8+r.IntN(56))
		for i := range seed {
			seed[i] = byte(r.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, space := decodeDecomposition(data)
		got, want := Classify(d, space), classifyByDefinition(d, space)
		if got.DemonState != want.DemonState || got.AngelState != want.AngelState || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nClassify = %+v\nwant       %+v", describe(d), got, want)
		}
		for _, subgoals := range d.Reductions {
			red := goals.AndReduction{Parent: d.Parent, Subgoals: subgoals, Assumptions: d.Assumptions}
			got, want := goals.CheckAndReduction(red, space), checkAndReductionByDefinition(red, space)
			if got.Counterexample != want.Counterexample || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s\nCheckAndReduction(%v) = %+v\nwant %+v", describe(d), subgoals, got, want)
			}
		}
	})
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros once it runs
// out, so every input decodes to a finite decomposition.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeDecomposition builds the decomposition an input names: the variable
// count, the parent, the reductions with their subgoals, then the
// assumptions.
func decodeDecomposition(data []byte) (Decomposition, goals.StateSpace) {
	in := fuzzBytes(data)
	vars := []string{"A", "B", "C", "D"}[:3+in.next()%2]
	d := Decomposition{Parent: goals.New("G", "", decodeFormula(&in, vars, 3))}
	for r := range 1 + in.next()%2 {
		var red []goals.Goal
		for i := range 1 + in.next()%3 {
			red = append(red, goals.New(fmt.Sprintf("G%d_%d", r+1, i+1), "", decodeFormula(&in, vars, 2)))
		}
		d.Reductions = append(d.Reductions, red)
	}
	for range in.next() % 3 {
		d.Assumptions = append(d.Assumptions, decodeFormula(&in, vars, 2))
	}
	return d, goals.BooleanStateSpace(vars...)
}

// decodeFormula reads one formula of at most depth operator levels.
func decodeFormula(in *fuzzBytes, vars []string, depth int) temporal.Formula {
	op := in.next() % 16
	if depth == 0 {
		op %= 3
	}
	sub := func() temporal.Formula { return decodeFormula(in, vars, depth-1) }
	switch op {
	case 0, 1:
		return temporal.Var(vars[in.next()%len(vars)])
	case 2:
		if in.next()%2 == 0 {
			return temporal.True
		}
		return temporal.False
	case 3:
		return temporal.Not(sub())
	case 4:
		return temporal.And(sub(), sub())
	case 5:
		return temporal.Or(sub(), sub())
	case 6:
		return temporal.Implies(sub(), sub())
	case 7:
		return temporal.Iff(sub(), sub())
	case 8:
		return temporal.Prev(sub())
	case 9:
		return temporal.Once(sub())
	case 10:
		return temporal.Historically(sub())
	case 11:
		return temporal.Became(sub())
	case 12:
		return temporal.Initially(sub())
	case 13:
		return temporal.Next(sub())
	case 14:
		return temporal.Eventually(sub())
	default:
		return temporal.Always(sub())
	}
}

func describe(d Decomposition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "parent: %s", d.Parent.Formal)
	for i, red := range d.Reductions {
		fmt.Fprintf(&b, "\nreduction %d:", i+1)
		for _, g := range red {
			fmt.Fprintf(&b, " {%s}", g.Formal)
		}
	}
	for _, a := range d.Assumptions {
		fmt.Fprintf(&b, "\nassumption: %s", a)
	}
	return b.String()
}

// classifyByDefinition is Classify as a loop over the states that checks
// each condition through goals.HoldsInState: the implementation the verdict
// table replaced.
func classifyByDefinition(d Decomposition, space goals.StateSpace) ClassificationResult {
	var res ClassificationResult
	if len(space) == 0 || len(d.Reductions) == 0 {
		res.Class = Emergent
		return res
	}

	res.SubgoalsSufficient = true
	res.SubgoalsNecessary = true

	for _, s := range space {
		if !holdsAllInState(d.Assumptions, s) {
			continue
		}
		parent := goals.HoldsInState(d.Parent.Formal, s)
		satisfied := false
		for _, red := range d.Reductions {
			if holdsAllInState(formals(red), s) {
				satisfied = true
				break
			}
		}
		allSubgoals := true
		for _, red := range d.Reductions {
			allSubgoals = allSubgoals && holdsAllInState(formals(red), s)
		}

		if satisfied && !parent {
			res.SubgoalsSufficient = false
			if res.DemonState == nil {
				res.DemonState = s
			}
		}
		if parent && !satisfied {
			if !allSubgoals {
				res.SubgoalsNecessary = false
				if res.AngelState == nil {
					res.AngelState = s
				}
			}
		}
	}

	redundant := len(d.Reductions) > 1
	switch {
	case res.SubgoalsSufficient && res.SubgoalsNecessary:
		if redundant {
			res.Class = FullyComposableWithRedundancy
		} else {
			res.Class = FullyComposable
		}
	case res.SubgoalsNecessary && !res.SubgoalsSufficient:
		res.Class = PartiallyComposable
	case res.SubgoalsSufficient && !res.SubgoalsNecessary:
		res.Class = PartiallyComposableWithRedundancy
	default:
		res.Class = Emergent
	}
	return res
}

// checkAndReductionByDefinition is goals.CheckAndReduction as one loop over
// the states per condition, and one more per removed subgoal, each checking
// through goals.HoldsInState: the implementation the verdict table replaced.
func checkAndReductionByDefinition(red goals.AndReduction, space goals.StateSpace) goals.ReductionCheck {
	var check goals.ReductionCheck
	if len(space) == 0 {
		return check
	}

	all := append(formals(red.Subgoals), red.Assumptions...)

	check.Entails = true
	for _, s := range space {
		if holdsAllInState(all, s) && !goals.HoldsInState(red.Parent.Formal, s) {
			check.Entails = false
			check.Counterexample = s
			break
		}
	}

	for _, s := range space {
		if holdsAllInState(all, s) {
			check.Consistent = true
			break
		}
	}

	check.Minimal = true
	if check.Entails {
		for i := range red.Subgoals {
			var reduced []temporal.Formula
			for j, g := range red.Subgoals {
				if j != i {
					reduced = append(reduced, g.Formal)
				}
			}
			reduced = append(reduced, red.Assumptions...)
			entailsWithout := true
			for _, s := range space {
				if holdsAllInState(reduced, s) && !goals.HoldsInState(red.Parent.Formal, s) {
					entailsWithout = false
					break
				}
			}
			if entailsWithout {
				check.Minimal = false
				check.RedundantSubgoals = append(check.RedundantSubgoals, i)
			}
		}
	}

	switch {
	case len(red.Subgoals) > 1:
		check.NonTrivial = true
	case len(red.Subgoals) == 1:
		same := red.Subgoals[0].Formal.String() == red.Parent.Formal.String()
		check.NonTrivial = !same || len(red.Assumptions) > 0
	}
	return check
}

func holdsAllInState(fs []temporal.Formula, s temporal.State) bool {
	for _, f := range fs {
		if !goals.HoldsInState(f, s) {
			return false
		}
	}
	return true
}

func formals(gs []goals.Goal) []temporal.Formula {
	fs := make([]temporal.Formula, len(gs))
	for i, g := range gs {
		fs[i] = g.Formal
	}
	return fs
}
