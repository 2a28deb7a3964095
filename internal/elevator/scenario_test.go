package elevator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/goals"
	"repro/internal/monitor"
	"repro/internal/temporal"
)

// TestNominalScenarioNoViolations is the baseline: a defect-free ride
// violates no system goal and no subgoal.
func TestNominalScenarioNoViolations(t *testing.T) {
	res := Run(NominalScenario())
	if res.Summary.Hits != 0 || res.Summary.FalseNegatives != 0 || res.Summary.FalsePositives != 0 {
		t.Fatalf("nominal run should be violation-free, got %s", res.Summary)
	}
	if len(res.Suite.Report()) != 0 {
		t.Errorf("nominal run report should be empty: %v", res.Suite.Report())
	}
	// The ride actually happened: the car ends at floor 4.
	if pos := res.Trace.Last().Number(SigElevatorPosition); pos < 8.9 || pos > 9.1 {
		t.Errorf("car should end at floor 4 (9 m), got %v m", pos)
	}
}

// TestDoorDefectScenarioHit: the open-while-moving defect violates both the
// system goal and the DoorController subgoal, so the hierarchy reports a hit.
func TestDoorDefectScenarioHit(t *testing.T) {
	res := Run(DoorDefectScenario())
	if res.Summary.Hits == 0 {
		t.Fatalf("door defect should produce a hit, got %s", res.Summary)
	}
	// The parent goal violation is matched specifically by the door
	// controller's subgoal.
	ds := res.Detections[GoalDoorClosedOrStopped]
	foundHit := false
	for _, d := range ds {
		if d.Kind == monitor.Hit {
			foundHit = true
			if len(d.MatchedSubgoals) == 0 {
				t.Error("hit should name the matching subgoal")
			}
		}
	}
	if !foundHit {
		t.Error("expected a hit for Maintain[DoorClosedOrElevatorStopped]")
	}
}

// TestOverweightScenarioHit: moving an overloaded car violates the
// overweight goal and the DriveController subgoal.
func TestOverweightScenarioHit(t *testing.T) {
	res := Run(OverweightScenario())
	ds := res.Detections[GoalDriveStoppedWhenOverweight]
	if len(ds) == 0 {
		t.Fatal("overweight scenario should produce detections for the overweight goal")
	}
	hit := false
	for _, d := range ds {
		if d.Kind == monitor.Hit {
			hit = true
		}
	}
	if !hit {
		t.Errorf("expected a hit, got %v", ds)
	}
}

// TestHoistwayDefectRedundancyMasks: with the emergency brake in place the
// drive controller's subgoal violation is a false positive — the redundant
// coverage keeps the system goal satisfied (thesis §5.1.2: false positives
// identify problems masked by redundant goal coverage).
func TestHoistwayDefectRedundancyMasks(t *testing.T) {
	res := Run(HoistwayDefectScenario())
	if res.Summary.FalsePositives == 0 {
		t.Fatalf("expected a false positive from the masked drive defect, got %s", res.Summary)
	}
	if res.Summary.Hits != 0 || res.Summary.FalseNegatives != 0 {
		t.Errorf("system goal should not be violated when the brake protects it: %s", res.Summary)
	}
	// The car stayed below the hoistway limit.
	for _, pos := range res.Trace.Series(SigElevatorPosition) {
		if pos > HoistwayUpperLimit {
			t.Fatalf("car exceeded the hoistway limit (%v m) despite the emergency brake", pos)
		}
	}
}

// TestHoistwayUnprotectedHit: removing the redundant coverage turns the same
// defect into a system-goal violation detected by the subgoals (a hit).
func TestHoistwayUnprotectedHit(t *testing.T) {
	res := Run(HoistwayUnprotectedScenario())
	ds := res.Detections[GoalBelowHoistwayLimit]
	hit := false
	for _, d := range ds {
		if d.Kind == monitor.Hit {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("expected a hit for the hoistway goal, got %v (summary %s)", ds, res.Summary)
	}
	exceeded := false
	for _, pos := range res.Trace.Series(SigElevatorPosition) {
		if pos > HoistwayUpperLimit {
			exceeded = true
		}
	}
	if !exceeded {
		t.Error("without the brake the car should exceed the hoistway limit")
	}
}

// TestRunDefaultDuration covers the default-duration fallback.
func TestRunDefaultDuration(t *testing.T) {
	sc := NominalScenario()
	sc.Duration = 0
	res := Run(sc)
	if res.Trace.Len() == 0 {
		t.Fatal("default duration should still simulate")
	}
}

// TestDoorDriveDecomposition checks the structure of the decomposition the
// ICPA produces for Maintain[DoorClosedOrElevatorStopped]: one shared
// (non-redundant) reduction with the two Table 4.4 subgoals, carrying the
// critical actuation-delay assumptions.
func TestDoorDriveDecomposition(t *testing.T) {
	a := DoorDriveICPA()
	primary, secondary := reductions(a)
	if len(primary) == 0 || len(secondary) != 0 {
		t.Fatalf("shared-responsibility ICPA should yield one reduction, got %d primary and %d secondary subgoals",
			len(primary), len(secondary))
	}
	if len(primary) != 2 {
		t.Errorf("reduction should contain the two Table 4.4 subgoals, got %d", len(primary))
	}
	if len(criticalAssumptions(a)) == 0 {
		t.Error("the decomposition must carry the indirect-control relationships as assumptions")
	}
	// The hoistway ICPA uses redundant responsibility: two reductions.
	if hp, hs := reductions(HoistwayICPA()); len(hp) == 0 || len(hs) == 0 {
		t.Errorf("redundant-responsibility ICPA should yield two reductions, got %d primary and %d secondary subgoals",
			len(hp), len(hs))
	}
	// Degenerate verification input is handled gracefully.
	d := core.Decomposition{Parent: a.Goal, Reductions: [][]goals.Goal{primary}, Assumptions: criticalAssumptions(a)}
	if res := core.Classify(d, nil); res.Class != core.Emergent {
		t.Errorf("classification over an empty space should be emergent, got %s", res)
	}
}

// reductions splits the analysis' subgoals into the primary reduction and
// the redundant (secondary) one.
func reductions(a *core.Analysis) (primary, secondary []goals.Goal) {
	for _, sg := range a.Subgoals {
		if sg.Redundant {
			secondary = append(secondary, sg.Goal)
		} else {
			primary = append(primary, sg.Goal)
		}
	}
	return primary, secondary
}

// criticalAssumptions returns the formulas of the relationships the goal
// elaboration relies on.
func criticalAssumptions(a *core.Analysis) []temporal.Formula {
	used := make(map[int]bool)
	for _, e := range a.Elaboration {
		for _, id := range e.UsesRelationships {
			used[id] = true
		}
	}
	var out []temporal.Formula
	for _, r := range a.Relationships {
		if used[r.ID] && r.Formula != nil {
			out = append(out, r.Formula)
		}
	}
	return out
}
