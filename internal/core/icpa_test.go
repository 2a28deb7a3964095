package core

import (
	"strings"
	"testing"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// buildDoorDriveAnalysis reproduces (in reduced form) the ICPA of the goal
// Maintain[DoorClosedOrElevatorStopped] from Tables 4.1-4.4.
func buildDoorDriveAnalysis() *Analysis {
	m := miniElevatorModel()
	// After ICPA the controllers cross-monitor each other's commands
	// (Table 4.4 Observes rows).
	m.AddAgent(goals.NewAgent("DriveController", goals.KindSoftware,
		[]string{"DispatchRequest", "DoorClosed", "DoorMotorCommand"}, []string{"DriveCommand"}))
	m.AddAgent(goals.NewAgent("DoorController", goals.KindSoftware,
		[]string{"DispatchRequest", "ElevatorSpeed", "DriveCommand", "DoorBlocked"}, []string{"DoorMotorCommand"}))

	parent := goals.MustParse("Maintain[DoorClosedOrElevatorStopped]",
		"At all times the door shall be closed or the elevator speed shall be STOPPED.",
		"DoorClosed | IsStopped_es")

	a := NewAnalysis(parent, m)
	a.TracePaths(0)

	relInit := a.AddRelationship("DoorClosed", []string{"DoorController", "DoorMotor"},
		temporal.MustParse("initially(DoorClosed & DoorMotorCommand == 'OPEN')"),
		"In the initial state the door is open and commanded OPEN")
	relDoorClose := a.AddRelationship("DoorClosed", []string{"DoorController", "DoorMotor"},
		temporal.MustParse("prevfor[200ms](!DoorBlocked & DoorMotorCommand == 'CLOSE') => DoorClosed"),
		"An unblocked door commanded CLOSE for the maximum close delay will be closed")
	relDoorReversal := a.AddRelationship("DoorClosed", []string{"Passenger"},
		temporal.MustParse("prev(DoorBlocked) => DoorMotorCommand == 'OPEN'"),
		"If the door is blocked, the door shall be commanded OPEN (door reversal safety goal)")
	relDriveEq := a.AddRelationship("ElevatorSpeed", []string{"Drive"},
		temporal.MustParse("IsStopped_drs <=> IsStopped_es"),
		"If the drive is stopped, the elevator is stopped, and vice versa")
	relDriveStop := a.AddRelationship("ElevatorSpeed", []string{"DriveController", "Drive"},
		temporal.MustParse("prevfor[500ms](DriveCommand == 'STOP') => IsStopped_drs"),
		"A drive commanded STOP for the maximum stop delay will be stopped")

	a.SetCoverage(CoverageStrategy{
		Assignment:  SharedResponsibility,
		Scope:       Restrictive,
		Responsible: []string{"DoorController", "DriveController"},
		Note:        "Assumes worst-case actuator response times; real response may be slower.",
	})

	a.AddElaboration("(dc | IsStopped(es)) <= (IsStopped(es) => dc) & (dc => IsStopped(es)) split by case on the initial state",
		TacticSplitByCase, []int{relInit, relDriveEq}, "Goal satisfied in the initial state")
	a.AddElaboration("IsStopped(es) => dc covered by the DoorController subgoal",
		TacticIntroduceAccuracy, []int{relDoorClose, relDoorReversal}, "Minimum delay to open the door")
	a.AddElaboration("dc => IsStopped(es) covered by the DriveController subgoal",
		TacticIntroduceActuation, []int{relDriveEq, relDriveStop}, "Minimum delay to move the elevator")

	a.AddSubgoal(SubsystemGoal{
		Subsystem: "DoorController",
		Goal: goals.MustParse("Achieve[CloseDoorWhenElevatorMovingOrMoved]",
			"If the door is not blocked and the elevator is moving or has been commanded to move, the door shall be commanded to CLOSE.",
			"(prev(!IsStopped_es | DriveCommand == 'GO') & prev(!DoorBlocked)) => DoorMotorCommand == 'CLOSE'"),
		Controls:    []string{"DoorMotorCommand"},
		Observes:    []string{"ElevatorSpeed", "DriveCommand", "DoorBlocked"},
		Restrictive: true,
	})
	a.AddSubgoal(SubsystemGoal{
		Subsystem: "DriveController",
		Goal: goals.MustParse("Achieve[StopElevatorWhenDoorOpenOrOpened]",
			"If the doors are not closed or have been commanded open, the drive shall be commanded to STOP.",
			"prev(!DoorClosed | DoorMotorCommand == 'OPEN') => DriveCommand == 'STOP'"),
		Controls:    []string{"DriveCommand"},
		Observes:    []string{"DoorClosed", "DoorMotorCommand"},
		Restrictive: true,
	})
	return a
}

func TestAnalysisWorkflow(t *testing.T) {
	a := buildDoorDriveAnalysis()

	if len(a.Paths) != 2 {
		t.Fatalf("TracePaths should trace both goal variables, got %d", len(a.Paths))
	}
	if len(a.Relationships) != 5 {
		t.Fatalf("expected 5 relationships, got %d", len(a.Relationships))
	}
	// Relationships are numbered from 1 in the order they are recorded.
	for i, r := range a.Relationships {
		if r.ID != i+1 {
			t.Errorf("relationship %d has ID %d", i, r.ID)
		}
	}
	if r := a.Relationships[2]; !strings.Contains(r.Comment, "blocked") {
		t.Errorf("relationship 3 = %+v", r)
	}
	used := make(map[int]bool)
	for _, e := range a.Elaboration {
		for _, id := range e.UsesRelationships {
			used[id] = true
		}
	}
	if len(used) != 5 {
		t.Errorf("all 5 relationships are referenced by the elaboration, got %d", len(used))
	}
	if len(a.Subgoals) != 2 || a.Subgoals[0].Subsystem != "DoorController" || a.Subgoals[1].Subsystem != "DriveController" {
		t.Errorf("subgoals should be assigned to DoorController and DriveController: %+v", a.Subgoals)
	}
}

func TestAnalysisRealizabilityOfTable4_4Subgoals(t *testing.T) {
	a := buildDoorDriveAnalysis()
	results := a.CheckRealizability()
	if len(results) != 2 {
		t.Fatalf("expected 2 realizability results, got %d", len(results))
	}
	for name, r := range results {
		if !r.Realizable {
			t.Errorf("subgoal %s should be realizable after cross-monitoring is added: %s", name, r)
		}
	}
}

func TestAnalysisRealizabilityMissingAgent(t *testing.T) {
	m := NewSystemModel("empty")
	parent := goals.MustParse("G", "", "A => B")
	a := NewAnalysis(parent, m)
	a.AddSubgoal(SubsystemGoal{
		Subsystem: "Ghost",
		Goal:      goals.MustParse("G1", "", "prev(A) => B"),
	})
	res := a.CheckRealizability()
	if r := res["G1"]; r.Realizable {
		t.Error("subgoal assigned to an unknown agent must be unrealizable")
	}
}

func TestAnalysisDecompositionAndVerify(t *testing.T) {
	// A propositional mock of the shared-responsibility decomposition:
	// under the critical assumption that a moving elevator implies a GO
	// command and a non-closed door implies an OPEN command (worst-case
	// actuation abstracted away), the two subgoals compose the parent.
	m := NewSystemModel("abstract door/drive")
	m.AddAgent(goals.NewAgent("DoorController", goals.KindSoftware, []string{"Moving"}, []string{"DoorClosed"}))
	m.AddAgent(goals.NewAgent("DriveController", goals.KindSoftware, []string{"DoorClosed"}, []string{"Moving"}))

	parent := goals.MustParse("Maintain[DoorClosedOrElevatorStopped]", "", "DoorClosed | !Moving")
	a := NewAnalysis(parent, m)
	a.TracePaths(0)
	relGo := a.AddRelationship("Moving", []string{"DriveController"},
		temporal.MustParse("Moving => GoCommanded"), "the elevator moves only when commanded to move")
	relOpen := a.AddRelationship("DoorClosed", []string{"DoorController"},
		temporal.MustParse("!DoorClosed => OpenCommanded"), "the door is open only when commanded open")
	a.SetCoverage(CoverageStrategy{Assignment: SharedResponsibility, Scope: Restrictive,
		Responsible: []string{"DoorController", "DriveController"}})
	a.AddElaboration("coordination via command observation", TacticSplitByCase, []int{relGo, relOpen}, "")
	a.AddSubgoal(SubsystemGoal{
		Subsystem:   "DoorController",
		Goal:        goals.MustParse("Achieve[CloseDoorWhenMoving]", "", "GoCommanded => DoorClosed"),
		Restrictive: true,
	})
	a.AddSubgoal(SubsystemGoal{
		Subsystem:   "DriveController",
		Goal:        goals.MustParse("Achieve[StopWhenDoorOpen]", "", "OpenCommanded => !Moving"),
		Restrictive: true,
	})

	// The decomposition: the two subgoals as one shared reduction, under the
	// relationships the elaboration relies on.
	d := Decomposition{Parent: a.Goal}
	var reduction []goals.Goal
	for _, sg := range a.Subgoals {
		reduction = append(reduction, sg.Goal)
	}
	d.Reductions = [][]goals.Goal{reduction}
	for _, id := range a.Elaboration[0].UsesRelationships {
		d.Assumptions = append(d.Assumptions, a.Relationships[id-1].Formula)
	}
	if len(d.Reductions[0]) != 2 {
		t.Fatalf("Decomposition reductions = %+v", d.Reductions)
	}
	if len(d.Assumptions) != 2 {
		t.Fatalf("Decomposition assumptions = %d, want 2", len(d.Assumptions))
	}

	space := goals.BooleanStateSpace("DoorClosed", "Moving", "GoCommanded", "OpenCommanded")
	res := Classify(d, space)
	if !res.SubgoalsSufficient {
		t.Errorf("subgoals + assumptions should be sufficient for the parent: %s", res)
	}
	// The subgoals are restrictive (they constrain commands, not just the
	// hazardous state), so the parent can hold while a subgoal is violated:
	// partial composability with hidden Y, not full composability.
	if res.SubgoalsNecessary {
		t.Errorf("restrictive subgoals should not be necessary for the parent: %s", res)
	}
	if res.Class != PartiallyComposableWithRedundancy {
		t.Errorf("Class = %v, want partially composable with redundancy", res.Class)
	}
}

func TestAnalysisRender(t *testing.T) {
	a := buildDoorDriveAnalysis()
	out := a.Render()
	for _, want := range []string{
		"INDIRECT CONTROL PATH ANALYSIS",
		"System Safety Goal",
		"Maintain[DoorClosedOrElevatorStopped]",
		"Indirect Control Paths",
		"Variable: DoorClosed",
		"Variable: IsStopped_es",
		"Indirect Control Relationships",
		"Goal Coverage Strategy",
		"Shared Responsibility",
		"Restrictive",
		"Goal Elaboration",
		"Split lack of monitorability/controllability by case",
		"Subsystem Safety Goals",
		"Subsystem: DoorController",
		"Subsystem: DriveController",
		"restrictive scope",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q", want)
		}
	}
}

func TestCoverageStrategyString(t *testing.T) {
	c := CoverageStrategy{
		Assignment:  RedundantResponsibility,
		Scope:       Restrictive,
		Responsible: []string{"Arbiter"},
		Secondary:   []string{"CA", "ACC"},
		Note:        "worst-case delays",
	}
	s := c.String()
	for _, want := range []string{"Redundant Responsibility", "Arbiter", "secondary: CA & ACC", "Restrictive", "worst-case delays"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	for v, want := range map[GoalAssignment]string{
		SingleResponsibility: "Single Responsibility", RedundantResponsibility: "Redundant Responsibility",
		SharedResponsibility: "Shared Responsibility", GoalAssignment(0): "Unassigned",
	} {
		if got := v.String(); got != want {
			t.Errorf("GoalAssignment(%d) = %q, want %q", v, got, want)
		}
	}
	for v, want := range map[GoalScope]string{
		Nonrestrictive: "Nonrestrictive", Restrictive: "Restrictive", GoalScope(0): "Unspecified",
	} {
		if got := v.String(); got != want {
			t.Errorf("GoalScope(%d) = %q, want %q", v, got, want)
		}
	}
	tactics := map[Tactic]string{
		TacticIntroduceActuation: "Introduce actuation goal",
		TacticIntroduceAccuracy:  "Introduce accuracy goal",
		TacticSplitByChaining:    "Split lack of monitorability/controllability by chaining",
		TacticSplitByCase:        "Split lack of monitorability/controllability by case",
		TacticSafetyMargin:       "Safety margin",
		TacticORReduction:        "OR-reduction",
		TacticNone:               "(none)",
	}
	for v, want := range tactics {
		if got := v.String(); got != want {
			t.Errorf("Tactic(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestRenderNilFormulaRelationship(t *testing.T) {
	a := NewAnalysis(goals.MustParse("G", "", "A => B"), NewSystemModel("x"))
	a.AddRelationship("A", []string{"X"}, nil, "informally specified relationship")
	out := a.Render()
	if !strings.Contains(out, "(informal)") {
		t.Error("nil relationship formulas should render as (informal)")
	}
}
