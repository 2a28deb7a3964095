package scenarios

import (
	"context"
	"testing"
	"time"

	"repro/internal/monitor"
)

// TestResultTerminatedEarlyDefaultDuration is the regression test for the
// duration-normalization bug: a scenario with an unset Duration runs with the
// 20 s default, and an early-collision run must report TerminatedEarly even
// though the scenario literal said 0.
func TestResultTerminatedEarlyDefaultDuration(t *testing.T) {
	sc, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("no scenario 7")
	}
	sc.Duration = 0
	r := RunWithOptions(sc, Options{})
	if !r.Collision {
		t.Fatal("scenario 7 should collide")
	}
	if r.Scenario.Duration != 20*time.Second {
		t.Errorf("Result.Scenario.Duration = %v, want the normalized 20s default", r.Scenario.Duration)
	}
	if !r.TerminatedEarly() {
		t.Error("an early-collision run with a defaulted duration must report TerminatedEarly")
	}
}

func TestFamilyVariants(t *testing.T) {
	base, _ := ScenarioByNumber(1)
	f := Family{
		Base:            base,
		InitialSpeeds:   []float64{4, 8},
		ObjectDistances: []float64{110, 80},
		OptionSets:      []Options{{}, {CorrectDefects: true}},
	}
	if f.Size() != 8 {
		t.Fatalf("family size = %d, want 8", f.Size())
	}
	jobs := f.Variants()
	if len(jobs) != 8 {
		t.Fatalf("variants = %d, want 8", len(jobs))
	}
	names := make(map[string]bool)
	for _, j := range jobs {
		if names[j.Scenario.Name] {
			t.Errorf("duplicate variant name %q", j.Scenario.Name)
		}
		names[j.Scenario.Name] = true
		if j.Scenario.Number != base.Number || j.Scenario.Duration != base.Duration {
			t.Errorf("variant %q lost base metadata", j.Scenario.Name)
		}
		if j.Scenario.ObjectSpeed != base.ObjectSpeed || j.Scenario.Gear != base.Gear {
			t.Errorf("variant %q changed an axis that was not swept", j.Scenario.Name)
		}
	}
	// The zero family yields exactly the base scenario.
	solo := Family{Base: base}.Variants()
	if len(solo) != 1 || solo[0].Scenario.InitialSpeed != base.InitialSpeed {
		t.Errorf("zero family should yield the base scenario, got %+v", solo)
	}
}

func TestDefaultSweepShape(t *testing.T) {
	sw := DefaultSweep()
	if len(sw.Families) != 10 {
		t.Fatalf("default sweep has %d families, want 10", len(sw.Families))
	}
	if sw.Size() < 100 {
		t.Errorf("default sweep generates %d variants, want >= 100", sw.Size())
	}
	jobs := sw.Jobs()
	if len(jobs) != sw.Size() {
		t.Errorf("Jobs() yields %d, Size() says %d", len(jobs), sw.Size())
	}
}

// TestRunSweep executes a small short-duration sweep through the Engine and
// checks the aggregate bookkeeping against the streamed per-run results.
func TestRunSweep(t *testing.T) {
	base, _ := ScenarioByNumber(7)
	base.Duration = 2 * time.Second
	sw := Sweep{Families: []Family{{
		Base:            base,
		InitialSpeeds:   []float64{0, 1},
		ObjectDistances: []float64{-12, -9},
	}}}
	jobs := sw.Jobs()
	var acc Accumulator
	var want monitor.Summary
	collisions, n := 0, 0
	err := NewEngine(WithWorkers(4)).Stream(context.Background(), sw.Source(), Tee(&acc, SinkFunc(
		func(sr StreamResult) error {
			if sr.Result.Scenario.Name != jobs[n].Scenario.Name {
				t.Errorf("result %d is %q, job is %q: order must be preserved", n, sr.Result.Scenario.Name, jobs[n].Scenario.Name)
			}
			n++
			want = want.Add(sr.Result.Summary)
			if sr.Result.Collision {
				collisions++
			}
			return nil
		})))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if n != 4 {
		t.Fatalf("sweep delivered %d results, want 4", n)
	}
	res := acc.SweepResult()
	if res.Aggregate != want {
		t.Errorf("aggregate = %v, want %v", res.Aggregate, want)
	}
	if res.Collisions != collisions {
		t.Errorf("collisions = %d, want %d", res.Collisions, collisions)
	}
}

// TestSweepSourceForCorrectedDefects is the regression test for the
// corrected defects preset: CorrectDefects overrides every per-feature
// defect subset, so the corrected selection must collapse the defect axis to
// the 20 genuinely distinct evaluations (ten scenarios × two driver
// schedules) instead of repeating each one six times.
func TestSweepSourceForCorrectedDefects(t *testing.T) {
	source, err := SweepSourceFor("defects", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	n := 0
	for src := source(); ; n++ {
		j, ok := src.Next()
		if !ok {
			break
		}
		key := j.DynamicsKey() + "|" + j.MonitorKey()
		if seen[key] {
			t.Errorf("job %d (%s) repeats an earlier evaluation", n, j.Scenario.Name)
		}
		seen[key] = true
	}
	if n != 20 {
		t.Errorf("corrected defects selection yields %d jobs, want 20", n)
	}
}
