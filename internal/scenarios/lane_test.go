package scenarios

// Differential tests for lane-batched execution: an Engine at the default
// lane width and at WithLanes(1) must produce, byte for byte, the reference
// result stream (differential_test.go) — every StreamResult in the same
// order, under the same index and Job.Key, folding to the same aggregate.
// The laned path steps several dynamics groups in lockstep through one
// widened simulation; the reference runs each job alone on a scalar
// simulation with string-keyed Stepper monitors.  The arena-level checks
// also compare every lane's violation report and detections.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vehicle"
)

// assertLanedMatchesScalar is the core differential: one job list streamed by
// grouped summary-only engines at the default lane width and at width 1, each
// byte-identical in stream and aggregate to the reference.
func assertLanedMatchesScalar(t *testing.T, jobs []Job) {
	t.Helper()
	for _, width := range []int{defaultLaneWidth, 1} {
		assertStreamMatchesReference(t, NewEngine(WithRetention(SummaryOnly), WithLanes(width)), jobs)
	}
}

// thesisScenarioJobs returns one job per thesis scenario at an equal trimmed
// duration: ten consecutive distinct DynamicsKeys, so the dispatcher forms
// real multi-lane batches (the shape lane batching exists for, which the
// tolerance sweep — whose consecutive jobs share keys — never produces).
func thesisScenarioJobs(d time.Duration) []Job {
	var jobs []Job
	for _, sc := range Scenarios() {
		sc.Duration = d
		jobs = append(jobs, Job{Scenario: sc})
	}
	return jobs
}

// TestLanedMatchesScalarScenarios proves lane batching on the ten thesis
// scenarios: ten width-1 dynamics groups with equal durations batch into
// 4+4+2 lanes, and the widened runs must reproduce the reference stream byte
// for byte — including each scenario's own collision step and summary.  The
// same batches run directly on a four-lane arena must match every lane's
// violation report and detections too.
func TestLanedMatchesScalarScenarios(t *testing.T) {
	jobs := thesisScenarioJobs(1 * time.Second)
	assertLanedMatchesScalar(t, jobs)
	assertArenaMatchesReference(t, newLaneArena(defaultLaneWidth, matchTolerance), singletons(jobs))
}

// TestLanedMatchesScalarSweeps extends the differential across the sweep
// presets: the tolerance sweep (wide groups, few keys), the defect sweep
// (defect/driver axes — many distinct keys) and the huge sweep (1296
// variants, mixed group widths and a ragged tail).
func TestLanedMatchesScalarSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep presets twice each")
	}
	for _, preset := range []struct {
		name string
		d    time.Duration
	}{
		{"tolerance", 1 * time.Second},
		{"defects", 500 * time.Millisecond},
		{"huge", 500 * time.Millisecond},
	} {
		t.Run(preset.name, func(t *testing.T) {
			assertLanedMatchesScalar(t, sweepJobs(t, preset.name, preset.d))
		})
	}
}

// TestLanedMatchesScalarWithCache layers the result cache over lane-batched
// execution: a first pass primes the first seven jobs, so the second pass
// dispatches a fully cached batch (nothing simulated), a batch with a single
// surviving group (one active lane, counted as ragged) and an uncached
// two-lane batch — and must still match the reference byte for byte.
func TestLanedMatchesScalarWithCache(t *testing.T) {
	jobs := thesisScenarioJobs(500 * time.Millisecond)
	primed := jobs[:7]

	laned := NewEngine(WithRetention(SummaryOnly), WithResultCache())
	streamBytes(t, laned, primed)
	assertStreamMatchesReference(t, laned, jobs)
	wantHits, wantMisses := len(primed), len(jobs)
	if hits, misses := laned.CacheStats(); hits != wantHits || misses != wantMisses {
		t.Fatalf("laned cache stats hits=%d misses=%d, want %d/%d", hits, misses, wantHits, wantMisses)
	}
	// Priming ran 4+3 lanes; the second pass adds the one-survivor batch as
	// ragged and the 2-lane tail as a widened run.
	if want, ls := (LaneStats{Batches: 3, Lanes: 9, Ragged: 1}), laned.LaneStats(); ls != want {
		t.Fatalf("laned+cache LaneStats = %+v, want %+v", ls, want)
	}
}

// TestLaneArenaMatchesScalarArena drives the lane harness directly, outside
// the Engine: every 4-lane batch of thesis-scenario groups (4+4+2, so the
// last batch is ragged) must produce, per lane, the Steps, Summary,
// Collision and violation report a width-1 lane arena — the scalar layout —
// computes for that group on its own.
func TestLaneArenaMatchesScalarArena(t *testing.T) {
	groups := singletons(thesisScenarioJobs(1 * time.Second))
	scalar := newLaneArena(1, matchTolerance)
	la := newLaneArena(4, matchTolerance)
	for lo := 0; lo < len(groups); lo += la.lanes {
		batch := groups[lo:min(lo+la.lanes, len(groups))]
		got := make([]Result, len(batch))
		la.run(batch, got)
		for i, g := range batch {
			want := make([]Result, 1)
			scalar.run([][]Job{g}, want)
			if got[i].Steps == 0 {
				t.Errorf("lane %d (%s): no steps executed", i, g[0].Scenario.Name)
			}
			if gj, wj := mustJSON(t, got[i]), mustJSON(t, want[0]); gj != wj {
				t.Errorf("lane %d (%s): laned result differs\n laned:  %s\n scalar: %s",
					i, g[0].Scenario.Name, gj, wj)
			}
			if !reflect.DeepEqual(la.suite.LaneSuiteOf(i).Report(), scalar.suite.LaneSuiteOf(0).Report()) {
				t.Errorf("lane %d (%s): violation report differs from the scalar arena's", i, g[0].Scenario.Name)
			}
		}
	}
}

// TestLaneEarlyStopPerLane pins per-lane early termination: a batch mixing a
// colliding trajectory (scenario 7 with seeded defects) and non-colliding
// ones must retire only the colliding lane — its Steps stop at the collision
// and TerminatedEarly holds — while sibling lanes run their full schedule,
// each as in its reference run.
func TestLaneEarlyStopPerLane(t *testing.T) {
	sc7, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("no scenario 7")
	}
	sc1, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("no scenario 1")
	}
	jobs := []Job{
		{Scenario: sc7},
		{Scenario: sc7, Options: Options{CorrectDefects: true}},
		{Scenario: sc1},
		{Scenario: sc1, Options: Options{CorrectDefects: true}},
	}

	var laned []Result
	err := NewEngine(WithRetention(SummaryOnly)).Stream(context.Background(), SliceSource(jobs), SinkFunc(func(sr StreamResult) error {
		laned = append(laned, sr.Result)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	refs := referenceOf(t, jobs)

	early := 0
	for i := range jobs {
		l, r := laned[i], refs[i]
		if l.Steps != r.Steps || l.Collision != r.Collision {
			t.Errorf("job %d: laned Steps=%d Collision=%v, reference Steps=%d Collision=%v",
				i, l.Steps, l.Collision, r.Steps, r.Collision)
		}
		if l.TerminatedEarly() != r.TerminatedEarly() {
			t.Errorf("job %d: laned TerminatedEarly=%v, reference %v",
				i, l.TerminatedEarly(), r.TerminatedEarly())
		}
		if l.TerminatedEarly() {
			early++
		}
	}
	if early == 0 || early == len(jobs) {
		t.Fatalf("want a mix of early-stopped and full-schedule lanes, got %d/%d early", early, len(jobs))
	}
	if !laned[0].TerminatedEarly() {
		t.Error("scenario 7 with seeded defects should stop its lane at the collision")
	}
}

// TestLaneStatsCounters pins the lane-batching arithmetic: ten equal-duration
// width-1 groups batch as 4+4+2 (three widened runs, ten lanes, no ragged
// batch), and the counters stay zero at width 1.
func TestLaneStatsCounters(t *testing.T) {
	jobs := thesisScenarioJobs(500 * time.Millisecond)

	engine := NewEngine(WithRetention(SummaryOnly))
	if _, err := engine.Accumulate(context.Background(), SliceSource(jobs)); err != nil {
		t.Fatal(err)
	}
	want := LaneStats{Batches: 3, Lanes: 10, Ragged: 0}
	if ls := engine.LaneStats(); ls != want {
		t.Fatalf("LaneStats = %+v, want %+v", ls, want)
	}
	if mw := engine.LaneStats().MeanWidth(); mw < 3.3 || mw > 3.4 {
		t.Fatalf("MeanWidth = %v, want 10/3", mw)
	}

	off := NewEngine(WithRetention(SummaryOnly), WithLanes(1))
	if _, err := off.Accumulate(context.Background(), SliceSource(jobs)); err != nil {
		t.Fatal(err)
	}
	if ls := off.LaneStats(); ls != (LaneStats{}) {
		t.Fatalf("WithLanes(1) recorded stats %+v, want zero", ls)
	}
	if ls := (LaneStats{}); ls.MeanWidth() != 0 {
		t.Fatalf("zero LaneStats MeanWidth = %v, want 0", ls.MeanWidth())
	}

	// A duration mismatch splits batches: alternating 500 ms / 1 s jobs can
	// never widen, so every batch is dispatched ragged with one group.
	mixed := thesisScenarioJobs(500 * time.Millisecond)
	for i := 1; i < len(mixed); i += 2 {
		mixed[i].Scenario.Duration = 1 * time.Second
	}
	ragged := NewEngine(WithRetention(SummaryOnly))
	if _, err := ragged.Accumulate(context.Background(), SliceSource(mixed)); err != nil {
		t.Fatal(err)
	}
	if ls := ragged.LaneStats(); ls.Batches != 0 || ls.Ragged != len(mixed) {
		t.Fatalf("mixed-duration LaneStats = %+v, want 0 batches and %d ragged", ls, len(mixed))
	}
}

// TestZeroAllocLaneStep extends the PR 5 allocation gates to the widened hot
// path: steady-state lane commits (scalar handle writes through every lane's
// view plus the one plane memmove) and steady-state widened observation (one
// StepLanes pass folding per-lane verdict masks) must not allocate.
func TestZeroAllocLaneStep(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	const lanes = 4
	a := newLaneArena(lanes, matchTolerance)

	// Warm-up: run a real batch so every handle is bound, every enumeration
	// interned and the recorders grown to their watermark.
	jobs := thesisScenarioJobs(100 * time.Millisecond)
	groups := make([][]Job, lanes)
	for l := 0; l < lanes; l++ {
		groups[l] = []Job{jobs[l]}
	}
	out := make([]Result, lanes)
	a.run(groups, out)

	type laneVars struct {
		speed   sim.NumVar
		stopped sim.BoolVar
		source  sim.StringVar
	}
	vars := make([]laneVars, lanes)
	for l := 0; l < lanes; l++ {
		view := a.sim.Bus.Lane(l)
		vars[l] = laneVars{
			speed:   view.NumVar(vehicle.SigVehicleSpeed),
			stopped: view.BoolVar(vehicle.SigVehicleStopped),
			source:  view.StringVar(vehicle.SigAccelSource),
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		for l := range vars {
			vars[l].speed.Write(float64(i + l))
			vars[l].stopped.Write((i+l)%2 == 0)
			vars[l].source.Write(vehicle.SourceACC)
		}
		a.sim.Bus.Commit()
	})
	if allocs != 0 {
		t.Errorf("lane Bus.Commit steady state allocates %v objects/op, want 0", allocs)
	}

	a.suite.Reset(lanes)
	st := a.sim.Bus.State()
	for j := 0; j < 100; j++ {
		a.suite.ObserveLanes(st)
	}
	allocs = testing.AllocsPerRun(1000, func() { a.suite.ObserveLanes(st) })
	if allocs != 0 {
		t.Errorf("ObserveLanes steady state allocates %v objects/op, want 0", allocs)
	}
}
