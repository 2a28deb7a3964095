package scenarios

// Differential tests for lane-arena reuse: a variant executed on an arena that
// is reused batch after batch — one lane-widened bus, per-lane component sets
// and one compiled lane program, rewound between batches — must match the
// reference run of that variant (differential_test.go).  Each arena is
// deliberately reused across every batch of a sweep, exactly as an Engine
// worker reuses it, so these tests prove that LaneSim.Reset, LaneSuite.Reset,
// the component Reset paths and the absolute reconfiguration in
// vehicleSet.configure leave no state behind — at width 1 (the WithLanes(1)
// and WithGrouping(false) layout) and at the default width, where every lane
// follows a differently configured one.

import (
	"context"
	"testing"
	"time"
)

// arenaWidths are the lane widths the reuse differentials drive.
var arenaWidths = []int{1, defaultLaneWidth}

// newTestArenas builds one reusable summary-only lane arena per width in
// arenaWidths.
func newTestArenas() []*laneArena {
	arenas := make([]*laneArena, len(arenaWidths))
	for i, w := range arenaWidths {
		arenas[i] = newLaneArena(w, matchTolerance)
	}
	return arenas
}

// assertArenasMatchReference runs jobs — every job its own dynamics group —
// on each reused arena and compares each lane with the reference.  The jobs
// must share one scheduled duration, as the dispatcher guarantees for a lane
// batch.
func assertArenasMatchReference(t *testing.T, arenas []*laneArena, jobs []Job) {
	t.Helper()
	for _, a := range arenas {
		assertArenaMatchesReference(t, a, singletons(jobs))
	}
}

// TestArenaMatchesFreshThesisScenarios checks arena reuse on the ten thesis
// scenarios in both defect configurations.  Each subtest batches its
// scenario with the next one, so a four-lane batch mixes four distinct
// trajectories and every batch follows a differently configured one.  -short
// trims the durations; the full 20 s runs execute in CI.
func TestArenaMatchesFreshThesisScenarios(t *testing.T) {
	arenas := newTestArenas()
	all := Scenarios()
	for i, sc := range all {
		next := all[(i+1)%len(all)]
		if testing.Short() {
			sc.Duration, next.Duration = 2*time.Second, 2*time.Second
		}
		jobs := []Job{
			{Scenario: sc},
			{Scenario: sc, Options: Options{CorrectDefects: true}},
			{Scenario: next},
			{Scenario: next, Options: Options{CorrectDefects: true}},
		}
		t.Run(sc.Name, func(t *testing.T) {
			assertArenasMatchReference(t, arenas, jobs)
		})
	}
}

// TestArenaMatchesFreshSweeps extends the check across every variant of the
// sweep presets an Engine worker runs the arena over: the 120-variant
// DefaultSweep, the tolerance sweep (which classifies neighbouring lanes at
// different tolerances) and the defect sweep (per-feature corrections and
// perturbed driver schedules).
func TestArenaMatchesFreshSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full sweep presets through the arenas")
	}
	arenas := newTestArenas()
	for _, preset := range []string{"default", "tolerance", "defects"} {
		t.Run(preset, func(t *testing.T) {
			assertArenasMatchReference(t, arenas, sweepJobs(t, preset, 1*time.Second))
		})
	}
}

// TestEngineResultCache checks the per-variant memoization at the ResultSink
// seam: re-streaming the same sweep on one Engine serves every variant from
// the cache, and the cached results are identical to the fresh ones.
func TestEngineResultCache(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 500 * time.Millisecond
	}
	engine := NewEngine(WithRetention(SummaryOnly), WithResultCache())

	collect := func() []Result {
		var out []Result
		err := engine.Stream(context.Background(), sw.Source(), SinkFunc(func(sr StreamResult) error {
			out = append(out, sr.Result)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := collect()
	hits, misses := engine.CacheStats()
	if hits != 0 || misses != sw.Size() {
		t.Fatalf("first pass: hits=%d misses=%d, want 0/%d", hits, misses, sw.Size())
	}

	second := collect()
	hits, misses = engine.CacheStats()
	if hits != sw.Size() || misses != sw.Size() {
		t.Fatalf("second pass: hits=%d misses=%d, want %d/%d", hits, misses, sw.Size(), sw.Size())
	}
	for i := range first {
		if first[i].Summary != second[i].Summary ||
			first[i].Steps != second[i].Steps ||
			first[i].Collision != second[i].Collision ||
			first[i].Scenario.Name != second[i].Scenario.Name {
			t.Fatalf("variant %d: cached result diverges from fresh run", i)
		}
	}

	// An uncached Engine reports zero counters.
	if h, m := NewEngine().CacheStats(); h != 0 || m != 0 {
		t.Fatalf("uncached engine stats = %d/%d, want 0/0", h, m)
	}
}
