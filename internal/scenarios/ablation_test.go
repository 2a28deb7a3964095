package scenarios

import (
	"testing"

	"repro/internal/vehicle"
)

// TestAblationCorrectedDefects runs representative scenarios with every
// seeded defect removed.  The ablation separates the monitoring approach
// from the defects it detects: with the defects corrected, the
// defect-specific violations disappear, while the restrictive-subgoal
// false positives that stem from the goal coverage strategy itself (e.g.
// hard braking inherently exceeding the jerk limit) may remain.
func TestAblationCorrectedDefects(t *testing.T) {
	t.Run("scenario 2 corrected: CA stops the vehicle", func(t *testing.T) {
		sc, _ := ScenarioByNumber(2)
		r := RunWithOptions(sc, Options{CorrectDefects: true})
		if r.Collision {
			t.Error("with the arbitration defect removed, CA's braking should prevent the collision")
		}
		// The defect signature — the command following a source other than
		// the one selected by the acceleration stage — is gone: whenever a
		// subsystem is in control, the command equals the selected request.
		for i := 0; i < r.Trace.Len(); i++ {
			st := r.Trace.At(i)
			if st.Bool(vehicle.SigAccelFromSubsystem) {
				if st.Number(vehicle.SigAccelCommand) != st.Number(vehicle.SigSelectedRequestValue) {
					t.Fatalf("at state %d the command does not match the selected request despite the corrected arbiter", i)
				}
			}
		}
		// Goals 1 and 3 may still be violated by the (legitimate) feature
		// interaction of engaging PA during a CA stop; the ablation isolates
		// the arbitration defect, not every hazard in the design.
	})

	t.Run("scenario 7 corrected: RCA engages", func(t *testing.T) {
		sc, _ := ScenarioByNumber(7)
		r := RunWithOptions(sc, Options{CorrectDefects: true})
		engaged := false
		for i := 0; i < r.Trace.Len(); i++ {
			if r.Trace.At(i).Bool(vehicle.SigActive(vehicle.SourceRCA)) {
				engaged = true
				break
			}
		}
		if !engaged {
			t.Error("with the defect removed, RCA should engage while reversing toward the object")
		}
		if r.Collision {
			t.Error("with RCA engaging, the rear collision should be avoided")
		}
	})

	t.Run("scenario 8 corrected: ACC rejects reverse engagement", func(t *testing.T) {
		sc, _ := ScenarioByNumber(8)
		r := RunWithOptions(sc, Options{CorrectDefects: true})
		if violated(r, Goal9BackwardBlock) {
			t.Error("goal 9 should not be violated once ACC checks the direction of travel")
		}
	})

	t.Run("scenario 9 corrected: PA silent and not mismatched", func(t *testing.T) {
		sc, _ := ScenarioByNumber(9)
		r := RunWithOptions(sc, Options{CorrectDefects: true})
		if violatedAt(r, "Achieve[NoAutoAccelRequestFromStop:PA]", "PA") {
			// PA still legitimately requests acceleration when engaged from
			// a stop; the goal-4 chain is a property of the feature design,
			// not of a seeded defect, so it is still reported.
			t.Log("PA still requests acceleration from a stop when engaged (expected)")
		}
		// The command now equals PA's request whenever PA is selected.
		for i := 0; i < r.Trace.Len(); i++ {
			st := r.Trace.At(i)
			if st.Bool(vehicle.SigSelected(vehicle.SourcePA)) && st.StringVal(vehicle.SigAccelSource) == vehicle.SourcePA {
				req := st.Number(vehicle.SigAccelRequest(vehicle.SourcePA))
				cmd := st.Number(vehicle.SigAccelCommand)
				if req != cmd {
					t.Fatalf("corrected arbiter should pass PA's request through unchanged: req=%v cmd=%v", req, cmd)
				}
			}
		}
	})

	t.Run("defect-specific false positives disappear", func(t *testing.T) {
		sc, _ := ScenarioByNumber(1)
		defective := cachedRun(t, 1)
		corrected := RunWithOptions(sc, Options{CorrectDefects: true})
		// The PA spurious-request subgoal violations are pure defect
		// artefacts and must vanish.
		if violatedAt(corrected, "Maintain[AutoJerkRequestBelowThreshold:PA]", "PA") {
			t.Error("PA jerk subgoal violations should disappear with the defect removed")
		}
		if !violatedAt(defective, "Maintain[AutoJerkRequestBelowThreshold:PA]", "PA") {
			t.Error("sanity: the defective run should show the PA jerk subgoal violations")
		}
	})
}
