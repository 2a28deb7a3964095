package goals

import (
	"fmt"

	"repro/internal/temporal"
)

// AndReduction is a candidate decomposition of a parent goal into subgoals,
// following Darimont's and-reduction (thesis §3.1.2).  The thesis' own
// composability definitions (package core) are built on top of it.
type AndReduction struct {
	// Parent is the goal being decomposed.
	Parent Goal
	// Subgoals are the proposed subgoals.
	Subgoals []Goal
	// Assumptions are domain properties (indirect control relationships,
	// initial-state facts) that the decomposition relies on; they are
	// conjoined with the subgoals when checking entailment, mirroring the
	// thesis' "critical assumptions".
	Assumptions []temporal.Formula
}

// ReductionCheck reports which of Darimont's four and-reduction conditions
// hold for a candidate decomposition, evaluated over a finite state space.
type ReductionCheck struct {
	// Entails is condition (1): the conjunction of subgoals (and
	// assumptions) entails the parent goal in every state of the space.
	Entails bool
	// Minimal is condition (2): no proper subset of the subgoals entails
	// the parent.
	Minimal bool
	// Consistent is condition (3): the subgoals are not mutually
	// incompatible (some state satisfies them all).
	Consistent bool
	// NonTrivial is condition (4): the decomposition is not a simple
	// restatement of the parent goal.
	NonTrivial bool
	// RedundantSubgoals indexes subgoals whose removal preserves
	// entailment; non-empty exactly when Minimal is false.
	RedundantSubgoals []int
	// Counterexample is a state in which all subgoals hold but the parent
	// does not (nil when Entails is true).
	Counterexample temporal.State
}

// Complete reports whether all four conditions hold, i.e. the subgoals are a
// complete and-reduction of the parent goal over the state space.
func (c ReductionCheck) Complete() bool {
	return c.Entails && c.Minimal && c.Consistent && c.NonTrivial
}

// StateSpace is a finite set of candidate system states used for bounded
// (exact, for propositional goals over the enumerated variables) checking of
// decompositions.
type StateSpace []temporal.State

// BooleanStateSpace enumerates every assignment of the given boolean state
// variables.  For the propositional goals of Chapter 3 this makes the
// decomposition checks exact.  The size of the result is 2^len(vars); the
// function panics above 20 variables to guard against accidental blow-up.
func BooleanStateSpace(vars ...string) StateSpace {
	if len(vars) > 20 {
		panic(fmt.Sprintf("goals: BooleanStateSpace over %d variables is too large", len(vars)))
	}
	sorted := sortedUnique(vars)
	n := 1 << len(sorted)
	out := make(StateSpace, 0, n)
	for mask := 0; mask < n; mask++ {
		s := temporal.NewState()
		for i, v := range sorted {
			s.SetBool(v, mask&(1<<i) != 0)
		}
		out = append(out, s)
	}
	return out
}

// HoldsInState evaluates a state-wise formula on a single state by wrapping
// it in a one-element trace.  A nil formula (an informal definition) holds.
func HoldsInState(f temporal.Formula, s temporal.State) bool {
	if f == nil {
		return true
	}
	tr := temporal.NewTrace(0)
	tr.Append(s)
	return f.Eval(tr, 0)
}

// CheckAndReduction evaluates Darimont's four conditions for the candidate
// decomposition over the state space.  Temporal operators in the goals are
// evaluated state-wise (each state of the space is treated as both initial
// and current), which is exact for the propositional goals of Chapter 3 and
// conservative otherwise.
func CheckAndReduction(red AndReduction, space StateSpace) ReductionCheck {
	var check ReductionCheck
	if len(space) == 0 {
		return check
	}

	all := make([]temporal.Formula, 0, len(red.Subgoals)+len(red.Assumptions))
	for _, g := range red.Subgoals {
		all = append(all, g.Formal)
	}
	all = append(all, red.Assumptions...)

	// Condition 1: entailment.
	check.Entails = true
	for _, s := range space {
		if evalAllOnState(all, s) && !HoldsInState(red.Parent.Formal, s) {
			check.Entails = false
			check.Counterexample = s
			break
		}
	}

	// Condition 3: consistency.
	for _, s := range space {
		if evalAllOnState(all, s) {
			check.Consistent = true
			break
		}
	}

	// Condition 2: minimal sufficiency — removing any single subgoal must
	// break entailment.  Assumptions are domain properties, not subgoals,
	// and are never removed.
	check.Minimal = true
	if check.Entails {
		for i := range red.Subgoals {
			reduced := make([]temporal.Formula, 0, len(all)-1)
			for j, g := range red.Subgoals {
				if j == i {
					continue
				}
				reduced = append(reduced, g.Formal)
			}
			reduced = append(reduced, red.Assumptions...)
			entailsWithout := true
			for _, s := range space {
				if evalAllOnState(reduced, s) && !HoldsInState(red.Parent.Formal, s) {
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

	// Condition 4: not a restatement.  More than one subgoal always
	// qualifies; a single subgoal qualifies only when it differs
	// syntactically from the parent (proof "relies on domain knowledge" is
	// approximated by the presence of assumptions).
	switch {
	case len(red.Subgoals) > 1:
		check.NonTrivial = true
	case len(red.Subgoals) == 1:
		same := red.Subgoals[0].Formal.String() == red.Parent.Formal.String()
		check.NonTrivial = !same || len(red.Assumptions) > 0
	default:
		check.NonTrivial = false
	}
	return check
}

func evalAllOnState(fs []temporal.Formula, s temporal.State) bool {
	for _, f := range fs {
		if !HoldsInState(f, s) {
			return false
		}
	}
	return true
}

// Registry is a named collection of goals, used for the thesis' goal
// catalogues (elevator goals, the nine vehicle safety goals, ICPA-derived
// subgoals).
type Registry struct {
	goals map[string]Goal
	order []string
}

// NewRegistry returns an empty goal registry.
func NewRegistry() *Registry {
	return &Registry{goals: make(map[string]Goal)}
}

// Add registers a goal, replacing any previous goal with the same name.
func (r *Registry) Add(g Goal) {
	if _, exists := r.goals[g.Name]; !exists {
		r.order = append(r.order, g.Name)
	}
	r.goals[g.Name] = g
}

// MustGet returns the named goal and panics when it is absent; intended for
// the static catalogues where absence is a programming error.
func (r *Registry) MustGet(name string) Goal {
	g, ok := r.goals[name]
	if !ok {
		panic(fmt.Sprintf("goals: no goal named %q", name))
	}
	return g
}

// Len returns the number of registered goals.
func (r *Registry) Len() int { return len(r.goals) }

// All returns the goals in insertion order.
func (r *Registry) All() []Goal {
	out := make([]Goal, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.goals[n])
	}
	return out
}
