// Package core implements the primary contributions of the thesis "System
// Safety as an Emergent Property in Composite Systems" (Black, 2009):
//
//   - the formal framework for composable and emergent goals of Chapter 3
//     (fully composable, fully composable with redundancy, emergent,
//     emergent-but-partially-composable, conjunctive split, OR-reduction
//     and the safety-envelope restriction), and
//   - Indirect Control Path Analysis (ICPA) of Chapter 4: the system control
//     model, indirect-control-path search, indirect-control relationships,
//     goal coverage strategies, the goal elaboration record, realizability
//     pattern tables (Table 4.5 and Appendix B) and the ICPA table itself.
//
// The run-time counterpart (hierarchical monitoring, hit/false-positive/
// false-negative classification) lives in package monitor.
package core

import (
	"fmt"
	"slices"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// Composability classifies a decomposition of a parent goal per Chapter 3.
type Composability int

// Composability classes (thesis §3.2–§3.3).
const (
	// Emergent: the subgoals are neither sufficient nor necessary for the
	// parent goal; the decomposition says nothing definite about G.
	Emergent Composability = iota + 1
	// PartiallyComposable (emergent but partially composable, Eq. 3.14):
	// every subgoal is necessary for the parent goal — a subgoal violation
	// implies a parent violation — but satisfying all subgoals does not
	// guarantee the parent because a hidden goal X remains.
	PartiallyComposable
	// PartiallyComposableWithRedundancy (Eq. 3.23): satisfying any one
	// defined and-reduction guarantees the parent goal, but the parent can
	// also be satisfied by undefined behaviour Y (and each reduction may
	// carry hidden assumptions X_i).
	PartiallyComposableWithRedundancy
	// FullyComposable (Eq. 3.1): the conjunction of the subgoals is
	// materially equivalent to the parent goal.
	FullyComposable
	// FullyComposableWithRedundancy (Eq. 3.9): the disjunction of the
	// chosen and-reductions is materially equivalent to the parent goal.
	FullyComposableWithRedundancy
)

// String names the composability class.
func (c Composability) String() string {
	switch c {
	case Emergent:
		return "emergent"
	case PartiallyComposable:
		return "emergent but partially composable"
	case PartiallyComposableWithRedundancy:
		return "emergent but partially composable with redundancy"
	case FullyComposable:
		return "fully composable"
	case FullyComposableWithRedundancy:
		return "fully composable with redundancy"
	default:
		return "unknown"
	}
}

// Decomposition is a chosen decomposition of a parent goal into one or more
// and-reductions (more than one reduction expresses goal redundancy), plus
// the critical assumptions (domain properties such as indirect-control
// relationships) the decomposition relies on.
type Decomposition struct {
	// Parent is the system-level goal being decomposed.
	Parent goals.Goal
	// Reductions holds one subgoal set per and-reduction.  A single
	// reduction is the non-redundant case of §3.2.1; multiple reductions
	// express redundant goal coverage (§3.2.2).
	Reductions [][]goals.Goal
	// Assumptions are domain properties conjoined with the subgoals when
	// checking entailment (the "critical assumptions" recorded by ICPA).
	Assumptions []temporal.Formula
}

// ClassificationResult is the outcome of classifying a decomposition over a
// finite state space.
type ClassificationResult struct {
	// Class is the composability classification.
	Class Composability
	// SubgoalsSufficient reports whether satisfying the decomposition
	// (any reduction, under the assumptions) guarantees the parent goal.
	SubgoalsSufficient bool
	// SubgoalsNecessary reports whether the parent goal guarantees the
	// decomposition (so any subgoal violation implies a parent violation).
	SubgoalsNecessary bool
	// DemonState, when non-nil, is a state in which all subgoals and
	// assumptions hold but the parent goal does not — evidence of a hidden
	// goal X (a "demon", thesis §3.3.2).
	DemonState temporal.State
	// AngelState, when non-nil, is a state in which the parent goal holds
	// but no reduction is satisfied — evidence of emergent behaviour Y
	// (an "angel").
	AngelState temporal.State
}

// String summarises the classification.
func (r ClassificationResult) String() string {
	return fmt.Sprintf("%s (sufficient=%v, necessary=%v)", r.Class, r.SubgoalsSufficient, r.SubgoalsNecessary)
}

// Classify determines the composability class of a decomposition over a
// finite state space.  For the propositional goals of Chapter 3 the result
// is exact; temporal operators are evaluated state-wise.
//
// The decomposition is:
//
//   - fully composable (with redundancy when more than one reduction is
//     given) when the disjunction of the reductions' conjunctions is
//     materially equivalent to the parent goal under the assumptions,
//   - partially composable when it is necessary but not sufficient (hidden
//     X remains), or sufficient but not necessary with redundancy (hidden Y
//     remains),
//   - emergent otherwise.
//
// Every state is read from one goals.Verdicts row whose columns are the
// parent, the assumptions and then each reduction's subgoals in order, so
// each formula is evaluated once per state.
func Classify(d Decomposition, space goals.StateSpace) ClassificationResult {
	var res ClassificationResult
	if len(space) == 0 || len(d.Reductions) == 0 {
		res.Class = Emergent
		return res
	}

	fs := append([]temporal.Formula{d.Parent.Formal}, d.Assumptions...)
	for _, red := range d.Reductions {
		for _, g := range red {
			fs = append(fs, g.Formal)
		}
	}

	res.SubgoalsSufficient = true
	res.SubgoalsNecessary = true
	for j, row := range goals.Verdicts(space, fs...) {
		if slices.Contains(row[1:1+len(d.Assumptions)], false) {
			// States excluded by the critical assumptions are outside the
			// decomposition's domain (the assumptions must themselves be
			// assured in the system; ICPA records them for that purpose).
			continue
		}
		parent, satisfied := row[0], false
		subgoals := row[1+len(d.Assumptions):]
		for _, red := range d.Reductions {
			satisfied = satisfied || !slices.Contains(subgoals[:len(red)], false)
			subgoals = subgoals[len(red):]
		}

		switch {
		case satisfied && !parent:
			res.SubgoalsSufficient = false
			if res.DemonState == nil {
				res.DemonState = space[j]
			}
		case parent && !satisfied:
			// No reduction holds, so some subgoal is violated while the
			// parent holds: necessity in the thesis' sense (Eq. 3.16: any
			// subgoal violation implies a parent violation) fails.
			res.SubgoalsNecessary = false
			if res.AngelState == nil {
				res.AngelState = space[j]
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
		// Hidden X: subgoal satisfaction does not guarantee the parent.
		res.Class = PartiallyComposable
	case res.SubgoalsSufficient && !res.SubgoalsNecessary:
		// Hidden Y: the parent can be satisfied without any defined
		// reduction (Eq. 3.23).
		res.Class = PartiallyComposableWithRedundancy
	default:
		res.Class = Emergent
	}
	return res
}

// ---------------------------------------------------------------------------
// Conjunctive and disjunctive goal handling (thesis §3.3.4, §3.3.5)
// ---------------------------------------------------------------------------

// SplitConjunctiveGoal splits a goal whose body is a conjunction, or whose
// antecedent is a disjunction, into independently assurable subgoals
// (thesis §3.3.4):
//
//	q(A ∧ X)        →  qA, qX
//	(A ∨ X) ⇒ B     →  A ⇒ B, X ⇒ B
//
// The returned subgoals can be pursued even when some of them are
// unrealizable; assuring a subset still prevents the corresponding hazards.
// The boolean result reports whether a split was possible.
func SplitConjunctiveGoal(g goals.Goal) ([]goals.Goal, bool) {
	if g.Formal == nil {
		return nil, false
	}
	if ant, con := temporal.Antecedent(g.Formal), temporal.Consequent(g.Formal); ant != nil {
		// (A ∨ X) ⇒ B  →  A ⇒ B and X ⇒ B.
		parts := temporal.Disjuncts(ant)
		if len(parts) > 1 {
			out := make([]goals.Goal, 0, len(parts))
			for i, p := range parts {
				out = append(out, goals.Goal{
					Name:        fmt.Sprintf("%s/case-%d", g.Name, i+1),
					InformalDef: fmt.Sprintf("Case %d of the disjunctive antecedent of %s.", i+1, g.Name),
					Formal:      temporal.Implies(p, con),
				})
			}
			return out, true
		}
		return nil, false
	}
	parts := temporal.Conjuncts(g.Formal)
	if len(parts) > 1 {
		out := make([]goals.Goal, 0, len(parts))
		for i, p := range parts {
			out = append(out, goals.Goal{
				Name:        fmt.Sprintf("%s/part-%d", g.Name, i+1),
				InformalDef: fmt.Sprintf("Conjunct %d of %s.", i+1, g.Name),
				Formal:      p,
			})
		}
		return out, true
	}
	return nil, false
}

// ORReduceGoal applies OR-reduction to a disjunctive goal (thesis §3.3.5):
//
//	q(A ∨ X)       →  qA
//	(A ∧ X) ⇒ B    →  A ⇒ B
//
// keeping only the disjunct (or dropping the conjunct of the antecedent)
// indicated by keep, where keep selects variables that remain in the reduced
// goal.  The resulting goal is more restrictive than the original: it
// prohibits some behaviour the original would allow, which is the price of
// handling an unknown or unrealizable X.  The boolean result reports whether
// a reduction applied.
func ORReduceGoal(g goals.Goal, keep func(temporal.Formula) bool) (goals.Goal, bool) {
	if g.Formal == nil {
		return g, false
	}
	if ant, con := temporal.Antecedent(g.Formal), temporal.Consequent(g.Formal); ant != nil {
		// (A ∧ X) ⇒ B: drop antecedent conjuncts not kept — the antecedent
		// becomes weaker, hence the goal more restrictive.
		parts := temporal.Conjuncts(ant)
		if len(parts) > 1 {
			var kept []temporal.Formula
			for _, p := range parts {
				if keep(p) {
					kept = append(kept, p)
				}
			}
			if len(kept) > 0 && len(kept) < len(parts) {
				return goals.Goal{
					Name:        g.Name + "/or-reduced",
					InformalDef: "OR-reduction of " + g.Name + " (more restrictive).",
					Formal:      temporal.Implies(temporal.And(kept...), con),
				}, true
			}
		}
		return g, false
	}
	parts := temporal.Disjuncts(g.Formal)
	if len(parts) > 1 {
		var kept []temporal.Formula
		for _, p := range parts {
			if keep(p) {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 && len(kept) < len(parts) {
			return goals.Goal{
				Name:        g.Name + "/or-reduced",
				InformalDef: "OR-reduction of " + g.Name + " (more restrictive).",
				Formal:      temporal.Or(kept...),
			}, true
		}
	}
	return g, false
}

// SafetyEnvelope produces the restrictive subgoal of §3.3.5 for a threshold
// goal: a goal of the form q(v ≤ limit) (or <) on the sensed variable is
// met by constraining the requesting variable to limit − envelope.  The
// returned goal constrains reqVar instead of the original variable.
func SafetyEnvelope(g goals.Goal, reqVar string, envelope float64) (goals.Goal, bool) {
	cmp, ok := thresholdOf(g.Formal)
	if !ok {
		return g, false
	}
	reduced := goals.Goal{
		Name: g.Name + "/envelope",
		InformalDef: fmt.Sprintf("%s restricted by a safety envelope of %g on %s.",
			g.Name, envelope, reqVar),
		Formal: temporal.Compare(reqVar, cmp.op, temporal.Number(cmp.limit-envelope)),
	}
	return reduced, true
}

type threshold struct {
	variable string
	op       temporal.CompareOp
	limit    float64
}

// thresholdOf recognises goals of the form "v <= limit" or "v < limit"
// (optionally as the consequent of an implication) and extracts the bound.
func thresholdOf(f temporal.Formula) (threshold, bool) {
	if con := temporal.Consequent(f); con != nil {
		return thresholdOf(con)
	}
	name, op, val, ok := temporal.Comparison(f)
	if ok && (op == temporal.OpLe || op == temporal.OpLt) && val.Kind() == temporal.KindNumber {
		return threshold{variable: name, op: op, limit: val.AsNumber()}, true
	}
	return threshold{}, false
}
