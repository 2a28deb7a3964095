// Package goals models KAOS-style goals, agents and and-reductions as used
// by the thesis "System Safety as an Emergent Property in Composite Systems"
// (Black, 2009).
//
// A Goal pairs an informal, natural-language definition with a formal
// temporal-logic definition (thesis Figure 2.6); goal names follow the
// Achieve / Cease / Maintain / Avoid patterns of Table 2.2.  Agents are
// the entities that monitor and control state variables; a goal is
// realizable by an agent when the agent can monitor every monitored variable
// and control every controlled variable of the goal (thesis §2.3.2).
// And-reductions capture Darimont's four conditions for a set of subgoals to
// constitute a decomposition of a parent goal (thesis §3.1.2).
package goals

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/temporal"
)

// Goal is a formally specified system or subsystem goal.
type Goal struct {
	// Name is the KAOS-style goal name, e.g. "Maintain[DoorClosedOrElevatorStopped]".
	Name string
	// InformalDef is the natural-language definition shown in the thesis'
	// goal boxes.
	InformalDef string
	// Formal is the formal definition.  Entailment goals (P ⇒ Q) are
	// interpreted as holding in every state, which is how monitors check
	// them.
	Formal temporal.Formula
	// Monitored lists the state variables the responsible agent must be
	// able to observe; when empty they are inferred from the antecedent of
	// an implication (or the whole formula otherwise).
	Monitored []string
	// Controlled lists the state variables the responsible agent must be
	// able to control; when empty they are inferred from the consequent of
	// an implication.
	Controlled []string
	// Assignee names the agent(s) responsible for the goal, when decided.
	Assignee []string
}

// New constructs a goal from its name, informal text and formal definition.
func New(name, informal string, formal temporal.Formula) Goal {
	return Goal{Name: name, InformalDef: informal, Formal: formal}
}

// MustParse constructs a goal whose formal definition is given in the
// temporal package's ASCII notation; it panics when the formula is invalid,
// which is appropriate for the static goal catalogues in this repository.
func MustParse(name, informal, formal string) Goal {
	return New(name, informal, temporal.MustParse(formal))
}

// WithVars returns a copy of the goal with explicit monitored and controlled
// variable sets.
func (g Goal) WithVars(monitored, controlled []string) Goal {
	g.Monitored = append([]string(nil), monitored...)
	g.Controlled = append([]string(nil), controlled...)
	return g
}

// WithAssignee returns a copy of the goal assigned to the named agents.
func (g Goal) WithAssignee(agents ...string) Goal {
	g.Assignee = append([]string(nil), agents...)
	return g
}

// MonitoredVars returns the monitored-variable set M of the goal relation
// G(M, C).  When not given explicitly it is the variable set of the
// antecedent of an implication, or empty for non-implication formulas.
func (g Goal) MonitoredVars() []string {
	if g.Monitored != nil {
		return sortedUnique(g.Monitored)
	}
	if ant := temporal.Antecedent(g.Formal); ant != nil {
		return ant.Vars()
	}
	return nil
}

// ControlledVars returns the controlled-variable set C of the goal relation
// G(M, C).  When not given explicitly it is the variable set of the
// consequent of an implication, or the whole formula's variables otherwise.
func (g Goal) ControlledVars() []string {
	if g.Controlled != nil {
		return sortedUnique(g.Controlled)
	}
	if con := temporal.Consequent(g.Formal); con != nil {
		return con.Vars()
	}
	if g.Formal == nil {
		return nil
	}
	return g.Formal.Vars()
}

// Vars returns all state variables referenced by the goal's formal
// definition.
func (g Goal) Vars() []string {
	if g.Formal == nil {
		return nil
	}
	return g.Formal.Vars()
}

// String renders the goal in the thesis' goal-box format.
func (g Goal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Goal: %s\n", g.Name)
	if g.InformalDef != "" {
		fmt.Fprintf(&b, "InformalDef: %s\n", g.InformalDef)
	}
	if g.Formal != nil {
		fmt.Fprintf(&b, "FormalDef: %s", g.Formal.String())
	}
	return b.String()
}

func sortedUnique(in []string) []string {
	seen := make(map[string]struct{}, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
