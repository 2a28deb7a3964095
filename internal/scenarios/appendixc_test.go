package scenarios

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vehicle"
)

func TestAppendixCAnalyses(t *testing.T) {
	analyses := AppendixCAnalyses()
	if len(analyses) != 9 {
		t.Fatalf("Appendix C should contain one analysis per system goal, got %d", len(analyses))
	}
	for _, a := range analyses {
		if len(a.Paths) == 0 {
			t.Errorf("%s: indirect control paths missing", a.Goal.Name)
		}
		if len(a.Relationships) < 5 {
			t.Errorf("%s: expected the shared indirect-control relationships, got %d", a.Goal.Name, len(a.Relationships))
		}
		if len(a.Subgoals) == 0 {
			t.Errorf("%s: no subgoals derived", a.Goal.Name)
		}
		if len(criticalAssumptions(a)) == 0 {
			t.Errorf("%s: elaboration should reference critical assumptions", a.Goal.Name)
		}
		out := a.Render()
		if !strings.Contains(out, a.Goal.Name) || !strings.Contains(out, "Goal Coverage Strategy") {
			t.Errorf("%s: rendering incomplete", a.Goal.Name)
		}
	}
}

func TestAppendixCCoverageStrategies(t *testing.T) {
	for _, a := range AppendixCAnalyses() {
		switch a.Goal.Name {
		case Goal3Agreement:
			if a.Coverage.Assignment != core.SingleResponsibility {
				t.Errorf("goal 3 should use single responsibility, got %v", a.Coverage.Assignment)
			}
			if subgoalsFor(a, "Arbiter") != 1 || len(a.Subgoals) != 1 {
				t.Errorf("goal 3 should have only the Arbiter subgoal, got %d", len(a.Subgoals))
			}
		default:
			if a.Coverage.Assignment != core.RedundantResponsibility {
				t.Errorf("%s should use redundant responsibility, got %v", a.Goal.Name, a.Coverage.Assignment)
			}
			if subgoalsFor(a, "Arbiter") != 1 {
				t.Errorf("%s should assign a subgoal to the Arbiter", a.Goal.Name)
			}
			redundant := 0
			for _, sg := range a.Subgoals {
				if sg.Redundant {
					redundant++
				}
			}
			if redundant != len(a.Subgoals)-1 {
				t.Errorf("%s: all feature subgoals should be marked redundant", a.Goal.Name)
			}
		}
	}
}

func TestAppendixCDecompositionStructure(t *testing.T) {
	a, ok := VehicleICPA(Goal1AutoAccel)
	if !ok {
		t.Fatal("VehicleICPA(goal 1) should exist")
	}
	var primary, secondary int
	for _, sg := range a.Subgoals {
		if sg.Redundant {
			secondary++
		} else {
			primary++
		}
	}
	if primary == 0 || secondary == 0 {
		t.Fatalf("redundant-responsibility decomposition should have 2 reductions, got %d primary and %d secondary subgoals",
			primary, secondary)
	}
	if primary != 1 || secondary != 5 {
		t.Errorf("expected 1 Arbiter subgoal + 5 feature subgoals, got %d and %d", primary, secondary)
	}
	if len(criticalAssumptions(a)) == 0 {
		t.Error("decomposition should carry the indirect-control relationships as assumptions")
	}
	if _, ok := VehicleICPA("NoSuchGoal"); ok {
		t.Error("VehicleICPA should reject unknown goals")
	}
}

func TestAppendixCSubgoalRealizability(t *testing.T) {
	// The Arbiter subgoals constrain variables the Arbiter controls, so
	// they must be realizable by the Arbiter in the model.  The feature
	// subgoals observe vehicle-level state (speed, pedals) that the model
	// grants them, and control their own requests.
	a, _ := VehicleICPA(Goal1AutoAccel)
	res := a.CheckRealizability()
	arbiterGoal, _ := arbiterSubgoal(Goal1AutoAccel)
	if r, ok := res[arbiterGoal.Name]; !ok || !r.Realizable {
		t.Errorf("the Arbiter subgoal should be realizable by the Arbiter: %v", r)
	}
	for _, f := range featureSubgoalAssignments(Goal1AutoAccel) {
		sub, _ := featureSubgoal(Goal1AutoAccel, f)
		if r, ok := res[sub.Name]; !ok || !r.Realizable {
			t.Errorf("feature subgoal %s should be realizable: %v", sub.Name, r)
		}
	}
}

func TestLessonsFromICPA(t *testing.T) {
	lessons := LessonsFromICPA()
	if len(lessons) < 5 {
		t.Fatalf("expected the §5.3.2 lessons, got %d", len(lessons))
	}
	joined := strings.Join(lessons, " ")
	for _, want := range []string{"steering arbitration", "selected", "restrictive", "redundancy"} {
		if !strings.Contains(strings.ToLower(joined), want) {
			t.Errorf("lessons should mention %q", want)
		}
	}
}

func TestAppendixCPathsReachFeatures(t *testing.T) {
	a, _ := VehicleICPA(Goal2AutoJerk)
	var agents []string
	for _, p := range a.Model.IndirectControlPaths(a.Goal, 0) {
		for _, s := range p.Sources {
			agents = append(agents, s.Agent)
		}
	}
	for _, want := range []string{"Arbiter", "CA", "ACC", "PA", "Driver", "Powertrain"} {
		found := false
		for _, got := range agents {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("indirect control of the jerk goal should include %s: %v", want, agents)
		}
	}
	_ = vehicle.FeatureNames
}

// subgoalsFor counts the subgoals the analysis assigns to the subsystem.
func subgoalsFor(a *core.Analysis, subsystem string) int {
	n := 0
	for _, sg := range a.Subgoals {
		if sg.Subsystem == subsystem {
			n++
		}
	}
	return n
}

// criticalAssumptions returns the relationships with a formal definition
// that the goal elaboration relies on.
func criticalAssumptions(a *core.Analysis) []core.ControlRelationship {
	used := make(map[int]bool)
	for _, e := range a.Elaboration {
		for _, id := range e.UsesRelationships {
			used[id] = true
		}
	}
	var out []core.ControlRelationship
	for _, r := range a.Relationships {
		if used[r.ID] && r.Formula != nil {
			out = append(out, r)
		}
	}
	return out
}
