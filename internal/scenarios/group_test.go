package scenarios

// Differential tests for dynamics-grouped execution: an Engine with grouping
// enabled must produce, byte for byte, the reference result stream
// (differential_test.go) — every StreamResult in the same order, under the
// same index and Job.Key, folding to the same aggregate.  The grouped path
// shares one simulation pass across a dynamics group and classifies its
// recorded violation intervals once per job (FastSummaryAt); the reference
// simulates and classifies every job on its own, so these tests are the
// proof that the sharing is unobservable downstream.

import (
	"context"
	"testing"
	"time"
)

// dynamicsGroups splits jobs into runs of consecutive equal DynamicsKeys, as
// the dispatcher does below maxGroupWidth.
func dynamicsGroups(jobs []Job) [][]Job {
	var groups [][]Job
	for i, j := range jobs {
		if i == 0 || j.DynamicsKey() != jobs[i-1].DynamicsKey() {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], j)
	}
	return groups
}

// TestGroupedMatchesUngroupedTolerance proves grouped execution on the sweep
// it exists for: the tolerance axis is innermost, so every family forms one
// width-3 dynamics group and the grouped engine simulates each trajectory
// once instead of three times.  The grouped stream must match the reference,
// and the same groups run directly on a four-lane arena must match every
// lane's violation report and, at each job's tolerance, its detections.  It
// runs the thesis' full 20 s durations: shorter runs record too few
// violation intervals for the three tolerances to classify differently, and
// the test checks that some family does, so the differential really covers
// per-tolerance classification of a shared pass.
func TestGroupedMatchesUngroupedTolerance(t *testing.T) {
	jobs := ToleranceSweep().Jobs()
	assertStreamMatchesReference(t, NewEngine(WithRetention(SummaryOnly)), jobs)
	groups := dynamicsGroups(jobs)
	if len(groups) != 10 {
		t.Fatalf("tolerance sweep forms %d dynamics groups, want 10", len(groups))
	}
	assertArenaMatchesReference(t, newLaneArena(defaultLaneWidth, matchTolerance), groups)

	sensitive := 0
	refs := referenceOf(t, jobs)
	for i, g := range groups {
		for k := 1; k < len(g); k++ {
			if refs[3*i+k].Summary != refs[3*i].Summary {
				sensitive++
				break
			}
		}
	}
	if sensitive == 0 {
		t.Fatal("no family classifies differently across tolerances: the differential does not exercise per-tolerance classification")
	}
}

// TestGroupedMatchesUngroupedSweeps extends the differential across sweeps
// whose innermost axes are NOT the tolerance — defect sets, driver
// schedules, speeds, gears — where consecutive jobs rarely share dynamics
// and grouped dispatch must degrade to width-1 groups without disturbing
// anything.
func TestGroupedMatchesUngroupedSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the defect and huge sweep presets")
	}
	for _, preset := range []string{"defects", "huge"} {
		t.Run(preset, func(t *testing.T) {
			assertStreamMatchesReference(t, NewEngine(WithRetention(SummaryOnly)), sweepJobs(t, preset, 500*time.Millisecond))
		})
	}
}

// TestGroupedMatchesUngroupedWithCache layers the result cache over grouped
// execution and re-streams the sweep, so partially and fully cached groups
// (the miss-subset path of runLaneTask) are exercised and still produce the
// reference bytes.
func TestGroupedMatchesUngroupedWithCache(t *testing.T) {
	jobs := sweepJobs(t, "tolerance", 500*time.Millisecond)
	grouped := NewEngine(WithRetention(SummaryOnly), WithResultCache())
	for pass := 0; pass < 2; pass++ {
		assertStreamMatchesReference(t, grouped, jobs)
	}
	if hits, misses := grouped.CacheStats(); hits != len(jobs) || misses != len(jobs) {
		t.Fatalf("grouped cache stats hits=%d misses=%d, want %d/%d", hits, misses, len(jobs), len(jobs))
	}
}

// TestGroupStatsToleranceSweep pins the acceptance arithmetic of the grouped
// path: the 30-variant tolerance sweep (10 families x 3 tolerances) forms
// exactly 10 groups and executes exactly ceil(30/3) = 10 simulation passes —
// 20 saved, mean width 3.0.  A second cached pass re-dispatches the groups
// but simulates nothing.
func TestGroupStatsToleranceSweep(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 500 * time.Millisecond
	}
	engine := NewEngine(WithRetention(SummaryOnly), WithResultCache())
	if _, err := engine.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	gs := engine.GroupStats()
	width := len(sw.Families[0].Tolerances)
	wantSims := (sw.Size() + width - 1) / width // ceil(variants / K)
	if gs.Groups != 10 || gs.Jobs != sw.Size() || gs.Sims != wantSims {
		t.Fatalf("first pass stats = %+v, want Groups=10 Jobs=%d Sims=%d", gs, sw.Size(), wantSims)
	}
	if gs.SimsSaved() != sw.Size()-wantSims {
		t.Fatalf("SimsSaved = %d, want %d", gs.SimsSaved(), sw.Size()-wantSims)
	}
	if gs.MeanWidth() != float64(width) {
		t.Fatalf("MeanWidth = %v, want %d", gs.MeanWidth(), width)
	}

	// Second pass: every variant is cached, so the groups are dispatched and
	// counted but no further simulation passes run.
	if _, err := engine.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	gs = engine.GroupStats()
	if gs.Groups != 20 || gs.Jobs != 2*sw.Size() || gs.Sims != wantSims {
		t.Fatalf("second pass stats = %+v, want Groups=20 Jobs=%d Sims=%d", gs, 2*sw.Size(), wantSims)
	}
}

// TestGroupStatsZeroWhenInapplicable: disabling grouping (or running under
// KeepTrace, where grouping never applies) leaves the counters at zero, so
// GroupStats always describes what grouping did.
func TestGroupStatsZeroWhenInapplicable(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 200 * time.Millisecond
	}
	off := NewEngine(WithRetention(SummaryOnly), WithGrouping(false))
	if _, err := off.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	if gs := off.GroupStats(); gs != (GroupStats{}) {
		t.Fatalf("WithGrouping(false) recorded stats %+v, want zero", gs)
	}
	if ls := off.LaneStats(); ls != (LaneStats{}) {
		t.Fatalf("WithGrouping(false) recorded lane stats %+v, want zero", ls)
	}
	if gs := (GroupStats{}); gs.MeanWidth() != 0 {
		t.Fatalf("zero GroupStats MeanWidth = %v, want 0", gs.MeanWidth())
	}

	keep := NewEngine(WithRetention(KeepTrace))
	one := sw.Families[0]
	one.Base.Duration = 200 * time.Millisecond
	if _, err := keep.Accumulate(context.Background(), Sweep{Families: []Family{one}}.Source()); err != nil {
		t.Fatal(err)
	}
	if gs := keep.GroupStats(); gs != (GroupStats{}) {
		t.Fatalf("KeepTrace recorded stats %+v, want zero", gs)
	}
	if ls := keep.LaneStats(); ls != (LaneStats{}) {
		t.Fatalf("KeepTrace recorded lane stats %+v, want zero", ls)
	}
}

// TestGroupWidthBound streams 40 jobs sharing one DynamicsKey through a
// single-worker ordered engine.  The dispatcher must split them at
// maxGroupWidth (16/16/8), deliver all 40 results in source order, and —
// because the pending group holds window tokens before dispatch — never
// deadlock even though the group width exceeds 2*workers.
func TestGroupWidthBound(t *testing.T) {
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	sc.Duration = 200 * time.Millisecond
	jobs := make([]Job, 40)
	for i := range jobs {
		j := Job{Scenario: sc}
		j.Scenario.Name = sc.Name + "#" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		jobs[i] = j
	}
	for _, j := range jobs[1:] {
		if j.DynamicsKey() != jobs[0].DynamicsKey() {
			t.Fatal("width-bound fixture jobs do not share a DynamicsKey")
		}
	}

	engine := NewEngine(WithWorkers(1), WithRetention(SummaryOnly))
	var idx []int
	var results []Result
	err := engine.Stream(context.Background(), SliceSource(jobs), SinkFunc(func(sr StreamResult) error {
		idx = append(idx, sr.Index)
		results = append(results, sr.Result)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(jobs) {
		t.Fatalf("delivered %d results, want %d", len(idx), len(jobs))
	}
	for i, got := range idx {
		if got != i {
			t.Fatalf("result %d delivered under index %d", i, got)
		}
	}
	for i, r := range results {
		if r.Summary != results[0].Summary || r.Steps != results[0].Steps {
			t.Errorf("identical-dynamics job %d produced a different result", i)
		}
		if r.Scenario.Name != jobs[i].Scenario.Name {
			t.Errorf("result %d carries scenario %q, want %q", i, r.Scenario.Name, jobs[i].Scenario.Name)
		}
	}
	gs := engine.GroupStats()
	if gs.Groups != 3 || gs.Jobs != 40 || gs.Sims != 3 {
		t.Fatalf("width bound stats = %+v, want Groups=3 Jobs=40 Sims=3 (16/16/8)", gs)
	}
}
