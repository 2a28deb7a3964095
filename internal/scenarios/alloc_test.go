package scenarios

// Zero-allocation regression gates for the evaluation hot path.  PR 5's
// contract is that the steady state of a summary-only sweep allocates
// nothing per simulation step — commits, typed handle traffic and the whole
// compiled-program observation run on the SoA register planes — and only
// O(1) bookkeeping per variant on a reused arena.  These tests pin that
// with testing.AllocsPerRun so a future change that reintroduces per-step
// allocation (a Value escaping to the heap, a plane copy growing, a monitor
// slice reallocating) fails loudly instead of showing up as a silent
// throughput regression.
//
// The gates are skipped under -short and under the race detector (whose
// instrumentation perturbs allocation counts).

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// skipIfAllocCountsUnreliable centralizes the -short / race-detector skips.
func skipIfAllocCountsUnreliable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation gate skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
}

// warmSimulation returns a scenario-1 simulation whose components have all
// stepped (every handle bound, every signal and enumeration interned).
func warmSimulation(t *testing.T) *sim.Simulation {
	t.Helper()
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	s := NewSimulation(sc, Options{})
	s.RunDiscard(10 * time.Millisecond)
	return s
}

// TestZeroAllocBusCommit gates the per-step cost of making buffered writes
// visible on a vehicle-sized bus: handle writes of every kind plus the
// plane-memmove commit must not allocate.
func TestZeroAllocBusCommit(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	bus := warmSimulation(t).Bus
	speed := bus.NumVar(vehicle.SigVehicleSpeed)
	stopped := bus.BoolVar(vehicle.SigVehicleStopped)
	source := bus.StringVar(vehicle.SigAccelSource)

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		speed.Write(float64(i))
		stopped.Write(i%2 == 0)
		source.Write(vehicle.SourceACC)
		bus.Commit()
	})
	if allocs != 0 {
		t.Errorf("Bus.Commit steady state allocates %v objects/op, want 0", allocs)
	}
}

// TestZeroAllocProgramObserve gates one observation of the full Table 5.3
// monitoring plan through the shared evaluation program: every atom read is
// a plane load and every verdict lands in a preallocated recorder.
func TestZeroAllocProgramObserve(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	state := temporal.NewState().
		SetBool(vehicle.SigAccelFromSubsystem, true).
		SetNumber(vehicle.SigVehicleAccel, 1.2).
		SetNumber(vehicle.SigVehicleJerk, 0.5).
		SetBool(vehicle.SigAccelSteeringAgreement, true).
		SetBool(vehicle.SigVehicleStopped, false).
		SetBool(vehicle.SigInForwardMotion, true).
		SetString(vehicle.SigAccelSource, vehicle.SourceACC).
		SetString(vehicle.SigSteerSource, vehicle.SourceNone)
	suite := BuildSuiteWithSchema(time.Millisecond, state.Schema())
	// Warm-up resolves lazy enumeration ids and settles the verdicts.
	for i := 0; i < 100; i++ {
		suite.Observe(state)
	}
	allocs := testing.AllocsPerRun(1000, func() { suite.Observe(state) })
	if allocs != 0 {
		t.Errorf("Program observe steady state allocates %v objects/op, want 0", allocs)
	}
}

// TestArenaVariantSteadyStateAllocs gates the arena-reused per-batch path:
// rewinding a lane arena, re-initialising every lane's bus view and
// simulating a 2 000-step batch end to end must cost O(1) allocations —
// nothing proportional to the step count.  It runs at width 1 (one variant
// per batch) and at the default width (a full batch of distinct thesis
// scenarios).  The bound of 16 objects per batch is ~0.008 per step; any
// per-step allocation would blow through it three orders of magnitude over.
func TestArenaVariantSteadyStateAllocs(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	jobs := thesisScenarioJobs(2 * time.Second)
	for _, width := range arenaWidths {
		a := newLaneArena(width, matchTolerance)
		groups := make([][]Job, width)
		for l := range groups {
			groups[l] = []Job{jobs[l]}
		}
		out := make([]Result, width)
		// Warm-up: intern the vocabulary, grow the recorder and scratch
		// capacities to this batch's watermark.
		for i := 0; i < 2; i++ {
			a.run(groups, out)
		}
		allocs := testing.AllocsPerRun(3, func() { a.run(groups, out) })
		if allocs > 16 {
			t.Errorf("width %d: arena-reused batch allocates %v objects/run over %d steps, want O(1) (<= 16)",
				width, allocs, int(jobs[0].Scenario.Duration/Period))
		}
	}
}

// TestArenaBuildAllocs gates the cost of building a width-1 lane arena: the
// per-lane components, the compiled Table 5.3 suite and its lane lowering.
// Engine workers and RunWithOptions borrow pooled arenas, so a build is paid
// once per worker, not once per job; it still sets how fast a cold worker
// gets to its first result.  With the compiler's hash-cons keys built in a
// stack buffer the build allocated 601 objects, and building every key as a
// string cost 1 054 (Go 1.24); with the lane suite's interval tables sized
// once at Seal it allocates 540.
func TestArenaBuildAllocs(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	newLaneArena(1, matchTolerance) // warm: the cached monitoring plan is not the arena's
	if allocs := testing.AllocsPerRun(5, func() { newLaneArena(1, matchTolerance) }); allocs > 601 {
		t.Errorf("building a width-1 lane arena allocates %v objects, want <= 601", allocs)
	}
}

// TestTraceRecordingAllocs gates KeepTrace recording on its production path,
// RunWithOptions (a pooled width-1 lane arena recording a trace): a
// thesis run that records 2 000 more ticks may allocate only the few extra
// trace chunks those ticks fill (three objects per 512 snapshots), not one
// register file per tick.  Cloning every tick would add ~10 000.
func TestTraceRecordingAllocs(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	allocsAt := func(d time.Duration) float64 {
		sc.Duration = d
		return testing.AllocsPerRun(3, func() {
			if n := RunWithOptions(sc, Options{}).Trace.Len(); n != int(d/Period) {
				t.Fatalf("recorded %d states, want %d", n, int(d/Period))
			}
		})
	}
	short, long := allocsAt(2*time.Second), allocsAt(4*time.Second)
	if extra := long - short; extra > 16 {
		t.Errorf("KeepTrace RunWithOptions allocates %v objects at 2 s and %v at 4 s: the extra 2 000 ticks add %v, want <= 16",
			short, long, extra)
	}
}

// TestKeepTraceJobAllocs gates what a KeepTrace job costs on a warmed
// Engine: the pooled arena's batch, the trace, and the copies the Result
// owns (a schema clone, a suite clone and its classification).  Ten 2 s
// thesis scenarios on one worker measure ~42 objects per job (Go 1.24), and
// building a fresh arena per job cost ~600 more.  The bound of 64 leaves
// room for one arena rebuilt in the three measured passes (+18 per job, a
// pooled arena the GC dropped) and for nothing proportional to the jobs.
func TestKeepTraceJobAllocs(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	jobs := thesisScenarioJobs(2 * time.Second)
	e := NewEngine(WithWorkers(1))
	pass := func() {
		n := 0
		err := e.Stream(context.Background(), SliceSource(jobs), SinkFunc(func(sr StreamResult) error {
			if sr.Result.Trace == nil || sr.Result.Suite == nil {
				t.Fatalf("job %d: KeepTrace result without its trace or suite", sr.Index)
			}
			n++
			return nil
		}))
		if err != nil || n != len(jobs) {
			t.Fatalf("stream delivered %d of %d results: %v", n, len(jobs), err)
		}
	}
	pass() // warm: the worker's arena enters the pool
	perJob := testing.AllocsPerRun(3, pass) / float64(len(jobs))
	if perJob > 64 {
		t.Errorf("a KeepTrace job on a warmed Engine allocates %.1f objects, want <= 64", perJob)
	} else {
		t.Logf("a KeepTrace job on a warmed Engine allocates %.1f objects", perJob)
	}
}

// TestTraceRecordingBytes gates the bytes a KeepTrace run allocates: a 20 s
// scenario-1 RunWithOptions, arena, suite and trace included, must allocate
// under a quarter of what one full register-file snapshot per tick would
// hold (9 bytes per slot per tick).  The trace records keyframes plus the
// slots that changed, ~4 of the 77 per tick on this scenario.
func TestTraceRecordingBytes(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	sc.Duration = DefaultDuration
	RunWithOptions(sc, Options{}) // warm: one-time package state is not the run's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunWithOptions(sc, Options{})
	runtime.ReadMemStats(&after)
	ticks := res.Trace.Len()
	if ticks != int(DefaultDuration/Period) {
		t.Fatalf("recorded %d states, want %d", ticks, int(DefaultDuration/Period))
	}
	dense := uint64(res.Trace.Last().Schema().Len()) * 9 * uint64(ticks)
	if got := after.TotalAlloc - before.TotalAlloc; got > dense/4 {
		t.Errorf("a 20 s KeepTrace run allocates %d bytes, want <= %d (a quarter of %d dense snapshot bytes)", got, dense/4, dense)
	} else {
		t.Logf("a 20 s KeepTrace run allocates %d bytes (%.1f%% of %d dense snapshot bytes)", got, 100*float64(got)/float64(dense), dense)
	}
}

// TestZeroAllocVariantKeys gates the per-job key work of a sweep: hashing a
// job to its shard (the coordinator's and every worker's ShardSource), the
// dispatcher's DynamicsKey compare in its two reused buffers, and a result
// cache hit looked up by a key built into a reused buffer must not allocate.
func TestZeroAllocVariantKeys(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	jobs := DefectSweep().Jobs()
	a, b := jobs[1], jobs[len(jobs)-1]
	if allocs := testing.AllocsPerRun(100, func() { _ = a.Shard(3) }); allocs != 0 {
		t.Errorf("Job.Shard allocates %v objects, want 0", allocs)
	}

	var keys groupKeys
	i := 0
	compare := func() {
		j := a
		if i%2 == 1 {
			j = b
		}
		i++
		if !keys.matches(j) {
			keys.open()
		}
	}
	compare()
	compare()
	if allocs := testing.AllocsPerRun(100, compare); allocs != 0 {
		t.Errorf("the dispatcher's DynamicsKey compare allocates %v objects, want 0", allocs)
	}

	c := newVariantCache()
	c.store(a.Key(), Result{Steps: 7})
	var key []byte
	hit := func() {
		key = a.appendKey(key[:0])
		if res, ok := c.lookup(key, a); !ok || res.Steps != 7 {
			t.Fatal("the stored variant misses the cache")
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Errorf("a result cache hit allocates %v objects, want 0", allocs)
	}
}

// TestRenderViolationTableAllocs gates the violation table a KeepTrace sweep
// renders per variant, over the ten thesis results.  Suite.Report sizes its
// rows up front, copies every reported interval into one slab and sorts
// with slices.SortFunc, and RenderViolationTable appends into one builder:
// 4 objects per table (Go 1.24).  A Report that copied each row's intervals
// separately and sorted through sort.Slice's reflective swapper cost 21.8.
func TestRenderViolationTableAllocs(t *testing.T) {
	skipIfAllocCountsUnreliable(t)
	var results []Result
	for n := 1; n <= 10; n++ {
		results = append(results, cachedRun(t, n))
	}
	perTable := testing.AllocsPerRun(10, func() {
		for _, r := range results {
			_ = RenderViolationTable(r)
		}
	}) / float64(len(results))
	if perTable > 4 {
		t.Errorf("RenderViolationTable allocates %.1f objects per thesis table, want <= 4", perTable)
	}
}
