package goals

import (
	"fmt"
	"slices"

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

// HoldsInState evaluates a state-wise formula on a single state: the state
// wrapped in a one-element trace, with the formula evaluated at index 0.  A
// nil formula (an informal definition) holds.  It is one cell of the Verdicts
// table, which the Chapter 3 analyses read instead of calling it per check.
func HoldsInState(f temporal.Formula, s temporal.State) bool {
	if f == nil {
		return true
	}
	tr := temporal.NewTrace(0)
	tr.Append(s)
	return f.Eval(tr, 0)
}

// Verdicts evaluates each formula once in each state of the space and
// returns the verdict table: one row per state in space order, one column
// per formula, Verdicts(space, fs...)[j][i] == HoldsInState(fs[i], space[j]).
// CheckAndReduction and core.Classify answer every condition from the
// table's columns, so no formula is evaluated twice in a state.
func Verdicts(space StateSpace, fs ...temporal.Formula) [][]bool {
	rows := make([][]bool, len(space))
	cells := make([]bool, len(space)*len(fs))
	for j, s := range space {
		row := cells[j*len(fs) : (j+1)*len(fs) : (j+1)*len(fs)]
		for i, f := range fs {
			row[i] = HoldsInState(f, s)
		}
		rows[j] = row
	}
	return rows
}

// CheckAndReduction evaluates Darimont's four conditions for the candidate
// decomposition over the state space.  Temporal operators in the goals are
// evaluated state-wise (each state of the space is treated as both initial
// and current), which is exact for the propositional goals of Chapter 3 and
// conservative otherwise.  Every condition is read from one Verdicts table
// whose columns are the parent, the subgoals and then the assumptions; the
// minimality check drops one subgoal column at a time.
func CheckAndReduction(red AndReduction, space StateSpace) ReductionCheck {
	var check ReductionCheck
	if len(space) == 0 {
		return check
	}

	fs := make([]temporal.Formula, 0, 1+len(red.Subgoals)+len(red.Assumptions))
	fs = append(fs, red.Parent.Formal)
	for _, g := range red.Subgoals {
		fs = append(fs, g.Formal)
	}
	fs = append(fs, red.Assumptions...)
	rows := Verdicts(space, fs...)

	// counterexample returns the first state in which every subgoal but the
	// skipped one and every assumption hold while the parent does not, or
	// -1 when there is none (skip -1 keeps every subgoal).
	counterexample := func(skip int) int {
		return slices.IndexFunc(rows, func(row []bool) bool {
			return !row[0] && holdsAllBut(row[1:], skip)
		})
	}

	// Condition 1: entailment.
	if j := counterexample(-1); j >= 0 {
		check.Counterexample = space[j]
	} else {
		check.Entails = true
	}

	// Condition 3: consistency.
	check.Consistent = slices.ContainsFunc(rows, func(row []bool) bool {
		return holdsAllBut(row[1:], -1)
	})

	// Condition 2: minimal sufficiency — removing any single subgoal must
	// break entailment.  Assumptions are domain properties, not subgoals,
	// and are never removed.
	if check.Entails {
		for i := range red.Subgoals {
			if counterexample(i) < 0 {
				check.RedundantSubgoals = append(check.RedundantSubgoals, i)
			}
		}
	}
	check.Minimal = len(check.RedundantSubgoals) == 0

	// Condition 4: not a restatement.  More than one subgoal always
	// qualifies; a single subgoal qualifies only when it differs
	// syntactically from the parent (proof "relies on domain knowledge" is
	// approximated by the presence of assumptions).
	switch {
	case len(red.Subgoals) > 1:
		check.NonTrivial = true
	case len(red.Subgoals) == 1:
		// A nil (informal-only) formula renders as the empty string, as
		// Verdicts lets it hold: an informal subgoal is no restatement of a
		// formal parent.
		var sub, parent string
		if f := red.Subgoals[0].Formal; f != nil {
			sub = f.String()
		}
		if f := red.Parent.Formal; f != nil {
			parent = f.String()
		}
		check.NonTrivial = sub != parent || len(red.Assumptions) > 0
	}
	return check
}

// holdsAllBut reports whether every verdict of the row holds, the one at
// index skip aside.
func holdsAllBut(row []bool, skip int) bool {
	for i, ok := range row {
		if !ok && i != skip {
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
