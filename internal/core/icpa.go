package core

import (
	"fmt"
	"strings"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// GoalAssignment is the goal-assignment dimension of a goal coverage
// strategy (thesis §4.5.1).
type GoalAssignment int

// Goal assignments.
const (
	// SingleResponsibility assigns the safety goal to one agent.
	SingleResponsibility GoalAssignment = iota + 1
	// RedundantResponsibility assigns primary responsibility to one group
	// of agents and secondary responsibility to another; satisfying either
	// satisfies the parent goal.
	RedundantResponsibility
	// SharedResponsibility requires coordinated subgoals of two or more
	// agents to be met together to satisfy the parent goal.
	SharedResponsibility
)

// String names the goal assignment.
func (a GoalAssignment) String() string {
	switch a {
	case SingleResponsibility:
		return "Single Responsibility"
	case RedundantResponsibility:
		return "Redundant Responsibility"
	case SharedResponsibility:
		return "Shared Responsibility"
	default:
		return "Unassigned"
	}
}

// GoalScope is the goal-scope dimension of a goal coverage strategy (thesis
// §4.5.2).
type GoalScope int

// Goal scopes.
const (
	// Nonrestrictive subgoals meet the parent goal with no additional
	// limitation on functional behaviour.
	Nonrestrictive GoalScope = iota + 1
	// Restrictive subgoals meet the parent goal but prohibit some
	// behaviour the parent goal would allow (safety margins, OR-reduction,
	// worst-case actuation delays).
	Restrictive
)

// String names the goal scope.
func (s GoalScope) String() string {
	switch s {
	case Nonrestrictive:
		return "Nonrestrictive"
	case Restrictive:
		return "Restrictive"
	default:
		return "Unspecified"
	}
}

// CoverageStrategy is a plan for allocating subgoals to ensure a high-level
// goal is met: a goal assignment plus a goal scope (thesis §4.5).
type CoverageStrategy struct {
	// Assignment is the goal-assignment dimension.
	Assignment GoalAssignment
	// Scope is the goal-scope dimension.
	Scope GoalScope
	// Responsible lists the agents given (primary) responsibility.
	Responsible []string
	// Secondary lists agents with secondary (redundant) responsibility.
	Secondary []string
	// Note documents why the strategy was chosen (e.g. "assumes worst-case
	// actuator response times").
	Note string
}

// String renders the coverage strategy for the ICPA table.
func (c CoverageStrategy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Goal Assignment: %s", c.Assignment)
	if len(c.Responsible) > 0 {
		fmt.Fprintf(&b, " (%s", strings.Join(c.Responsible, " & "))
		if len(c.Secondary) > 0 {
			fmt.Fprintf(&b, "; secondary: %s", strings.Join(c.Secondary, " & "))
		}
		fmt.Fprintf(&b, ")")
	}
	fmt.Fprintf(&b, "\nGoal Scope: %s", c.Scope)
	if c.Note != "" {
		fmt.Fprintf(&b, " (%s)", c.Note)
	}
	return b.String()
}

// Tactic identifies a goal elaboration or realizability tactic (thesis
// §4.1.2, §4.5.1, §4.5.2).
type Tactic int

// Tactics.
const (
	// TacticNone marks an elaboration step that records reasoning without
	// a named tactic.
	TacticNone Tactic = iota
	// TacticIntroduceActuation introduces an actuation goal on a variable
	// or predicate (Letier & van Lamsweerde, Figure 4.1).
	TacticIntroduceActuation
	// TacticIntroduceAccuracy introduces an accuracy (sensing) goal.
	TacticIntroduceAccuracy
	// TacticSplitByChaining splits lack of monitorability/controllability
	// by chaining through an intermediate variable (Figure 4.2).
	TacticSplitByChaining
	// TacticSplitByCase splits by case (Figure 4.3).
	TacticSplitByCase
	// TacticSafetyMargin restricts a threshold by a safety margin
	// (Eq. 4.31).
	TacticSafetyMargin
	// TacticORReduction applies OR-reduction to a disjunctive goal
	// (§3.3.5, §4.5.2).
	TacticORReduction
)

// String names the tactic.
func (t Tactic) String() string {
	switch t {
	case TacticIntroduceActuation:
		return "Introduce actuation goal"
	case TacticIntroduceAccuracy:
		return "Introduce accuracy goal"
	case TacticSplitByChaining:
		return "Split lack of monitorability/controllability by chaining"
	case TacticSplitByCase:
		return "Split lack of monitorability/controllability by case"
	case TacticSafetyMargin:
		return "Safety margin"
	case TacticORReduction:
		return "OR-reduction"
	default:
		return "(none)"
	}
}

// ElaborationStep is one row of the goal-elaboration section of an ICPA
// table: a derived formula or argument, the tactic used, and the numbered
// indirect-control relationships it relies on (the critical assumptions).
type ElaborationStep struct {
	// Derivation is the derived expression or argument, rendered as text.
	Derivation string
	// Tactic is the named tactic applied at this step.
	Tactic Tactic
	// UsesRelationships lists the IDs of indirect-control relationships
	// relied on; they become critical assumptions of the decomposition.
	UsesRelationships []int
	// Note is a free-text comment shown next to the step.
	Note string
}

// SubsystemGoal is a subsystem safety subgoal produced by ICPA, together
// with the capability and monitoring information the thesis records for it.
type SubsystemGoal struct {
	// Subsystem is the agent the subgoal is assigned to.
	Subsystem string
	// Goal is the subgoal itself.
	Goal goals.Goal
	// Controls lists the variables the subsystem controls to meet the
	// subgoal.
	Controls []string
	// Observes lists the variables the subsystem observes to meet the
	// subgoal.
	Observes []string
	// MonitorAt names the hierarchy level at which the subgoal is
	// monitored at run time (Table 5.3); empty means the subsystem itself.
	MonitorAt string
	// Redundant marks subgoals that provide redundant (secondary)
	// coverage of the parent goal.
	Redundant bool
	// Restrictive marks subgoals that are more restrictive than the
	// parent goal.
	Restrictive bool
}

// Analysis is one Indirect Control Path Analysis: the parent system safety
// goal, the traced indirect control paths, the numbered indirect-control
// relationships, the chosen goal coverage strategy, the goal elaboration and
// the resulting subsystem subgoals (thesis Figure 4.7).
type Analysis struct {
	// Goal is the system safety goal under analysis.
	Goal goals.Goal
	// Model is the functional decomposition analysed.
	Model *SystemModel
	// Paths are the indirect control paths of the goal's variables.
	Paths []ControlPath
	// Relationships are the numbered indirect-control relationships.
	Relationships []ControlRelationship
	// Coverage is the chosen goal coverage strategy.
	Coverage CoverageStrategy
	// Elaboration is the recorded goal elaboration.
	Elaboration []ElaborationStep
	// Subgoals are the resulting subsystem safety subgoals.
	Subgoals []SubsystemGoal

	nextRelationshipID int
}

// NewAnalysis starts an ICPA for the goal against the system model
// (step 1 of Figure 1.2: the goal is already formally defined).
func NewAnalysis(g goals.Goal, model *SystemModel) *Analysis {
	return &Analysis{Goal: g, Model: model, nextRelationshipID: 1}
}

// TracePaths performs step 2: identify the direct and indirect control
// sources of every state variable in the parent goal, up to maxDepth levels
// of indirection (0 = unlimited).
func (a *Analysis) TracePaths(maxDepth int) []ControlPath {
	a.Paths = a.Model.IndirectControlPaths(a.Goal, maxDepth)
	return a.Paths
}

// AddRelationship performs step 3 for one relationship: record a formally
// defined indirect control relationship for the named parent-goal variable,
// returning its assigned ID.
func (a *Analysis) AddRelationship(variable string, subsystems []string, formula temporal.Formula, comment string) int {
	id := a.nextRelationshipID
	a.nextRelationshipID++
	a.Relationships = append(a.Relationships, ControlRelationship{
		ID:         id,
		Variable:   variable,
		Subsystems: append([]string(nil), subsystems...),
		Formula:    formula,
		Comment:    comment,
	})
	return id
}

// SetCoverage performs step 4: choose the goal coverage strategy.
func (a *Analysis) SetCoverage(c CoverageStrategy) { a.Coverage = c }

// AddElaboration performs step 5 for one step: record a derivation, the
// tactic applied and the relationship IDs it relies on.
func (a *Analysis) AddElaboration(derivation string, tactic Tactic, relationshipIDs []int, note string) {
	a.Elaboration = append(a.Elaboration, ElaborationStep{
		Derivation:        derivation,
		Tactic:            tactic,
		UsesRelationships: append([]int(nil), relationshipIDs...),
		Note:              note,
	})
}

// AddSubgoal performs step 6 for one subgoal: record a resulting subsystem
// safety subgoal.
func (a *Analysis) AddSubgoal(sg SubsystemGoal) { a.Subgoals = append(a.Subgoals, sg) }

// CheckRealizability checks each derived subgoal against the capability sets
// of its assigned subsystem in the model, returning a map from subgoal name
// to the result.  Subgoals assigned to agents absent from the model are
// reported as unrealizable with a lack-of-control cause.
func (a *Analysis) CheckRealizability() map[string]goals.Realizability {
	out := make(map[string]goals.Realizability, len(a.Subgoals))
	for _, sg := range a.Subgoals {
		ag, ok := a.Model.Agent(sg.Subsystem)
		if !ok {
			out[sg.Goal.Name] = goals.Realizability{
				Causes:            []goals.UnrealizabilityCause{goals.CauseLackOfControl},
				MissingControlled: sg.Goal.ControlledVars(),
			}
			continue
		}
		g := sg.Goal
		if len(sg.Observes) > 0 || len(sg.Controls) > 0 {
			g = g.WithVars(sg.Observes, sg.Controls)
		}
		out[sg.Goal.Name] = goals.CheckRealizability(g, ag)
	}
	return out
}

// Render produces the plain-text ICPA table (thesis Figure 4.7 layout):
// system safety goal, indirect control paths with numbered relationships,
// goal coverage strategy, goal elaboration and resulting subgoals.
func (a *Analysis) Render() string {
	var b strings.Builder
	line := strings.Repeat("=", 78)
	thin := strings.Repeat("-", 78)

	fmt.Fprintln(&b, line)
	fmt.Fprintln(&b, "INDIRECT CONTROL PATH ANALYSIS")
	fmt.Fprintln(&b, line)
	fmt.Fprintln(&b, "System Safety Goal")
	fmt.Fprintln(&b, thin)
	fmt.Fprintln(&b, a.Goal.String())
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Indirect Control Paths")
	fmt.Fprintln(&b, thin)
	for _, p := range a.Paths {
		fmt.Fprintf(&b, "Variable: %s\n", p.Variable)
		for _, s := range p.Sources {
			fmt.Fprintf(&b, "  L%d %-22s (%s) controls: %s\n",
				s.Level, s.Agent, s.Kind, strings.Join(s.Controls, ", "))
		}
	}
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Indirect Control Relationships")
	fmt.Fprintln(&b, thin)
	for _, r := range a.Relationships {
		fmt.Fprintf(&b, "%02d [%s | %s]\n    %s\n    %% %s\n",
			r.ID, r.Variable, strings.Join(r.Subsystems, ", "), formulaText(r.Formula), r.Comment)
	}
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Goal Coverage Strategy")
	fmt.Fprintln(&b, thin)
	fmt.Fprintln(&b, a.Coverage.String())
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Goal Elaboration")
	fmt.Fprintln(&b, thin)
	for _, e := range a.Elaboration {
		refs := make([]string, len(e.UsesRelationships))
		for i, id := range e.UsesRelationships {
			refs[i] = fmt.Sprintf("%02d", id)
		}
		fmt.Fprintf(&b, "%s\n    Tactic: %s", e.Derivation, e.Tactic)
		if len(refs) > 0 {
			fmt.Fprintf(&b, "   Uses: %s", strings.Join(refs, ", "))
		}
		if e.Note != "" {
			fmt.Fprintf(&b, "\n    %% %s", e.Note)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b)

	fmt.Fprintln(&b, "Subsystem Safety Goals")
	fmt.Fprintln(&b, thin)
	for _, sg := range a.Subgoals {
		fmt.Fprintf(&b, "Subsystem: %s\n", sg.Subsystem)
		if len(sg.Controls) > 0 {
			fmt.Fprintf(&b, "Controls: %s\n", strings.Join(sg.Controls, ", "))
		}
		if len(sg.Observes) > 0 {
			fmt.Fprintf(&b, "Observes: %s\n", strings.Join(sg.Observes, ", "))
		}
		fmt.Fprintln(&b, sg.Goal.String())
		var marks []string
		if sg.Redundant {
			marks = append(marks, "redundant coverage")
		}
		if sg.Restrictive {
			marks = append(marks, "restrictive scope")
		}
		if sg.MonitorAt != "" {
			marks = append(marks, "monitored at "+sg.MonitorAt)
		}
		if len(marks) > 0 {
			fmt.Fprintf(&b, "[%s]\n", strings.Join(marks, "; "))
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, line)
	return b.String()
}

func formulaText(f temporal.Formula) string {
	if f == nil {
		return "(informal)"
	}
	return f.String()
}
