package scenarios

// The reference oracle of this package's execution-path tests, and the
// differential tests of the production path against it.
//
// Production runs every job on a lane arena: a lane-widened bus, one compiled
// lane program (temporal.Program.StepLanes with its change-gated atom
// kernels) and monitor.LaneSuite's mask-folding interval recorders.
// referenceRun shares none of that evaluation: a scalar sim.Simulation built
// by NewSimulation, observed by one temporal.Stepper per goal
// (monitor.NewReference) whose atoms evaluate through the string-keyed State
// API on every step and whose intervals Monitor.Observe records one monitor
// at a time.  It shares the vehicle components, the simulation loop and the
// Hierarchy classification arithmetic (ClassifyAll, FastSummaryAt), which the
// sim and monitor packages test on their own.
//
// Every TestDifferential*, TestArena*, TestLaned* and TestGrouped* test
// compares production output with it: the NDJSON stream and aggregate, and
// wherever production retains them the detections and the violation report.
// Each job's reference is computed once per test binary (referenceOf).

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// buildReferenceSuite instantiates the Table 5.3 monitoring plan with one
// reference (string-keyed) goal stepper per monitor.
func buildReferenceSuite(tolerance int) *monitor.Suite {
	mustReference := func(g MonitorSpec) *monitor.Monitor {
		m, err := monitor.NewReference(g.Goal, g.Location, Period)
		if err != nil {
			panic(err)
		}
		return m
	}
	suite := monitor.NewSuite()
	for _, spec := range MonitoringPlan() {
		children := make([]*monitor.Monitor, 0, len(spec.Children))
		for _, c := range spec.Children {
			children = append(children, mustReference(c))
		}
		suite.Add(monitor.NewHierarchy(mustReference(spec.Parent), tolerance, children...))
	}
	return suite
}

// referenceRun executes one job on the reference path — a fresh scalar
// simulation, the reference suite at the job's tolerance, the same collision
// stop — and returns what a KeepTrace run must return for it, except the
// trace: the suite, and ClassifyAll's detections and summary.  Production
// traces are checked by their length here and by the figure goldens.
func referenceRun(job Job) Result {
	sc := job.Scenario
	sc.Duration = sc.ScheduledDuration()
	s := NewSimulation(sc, job.Options)
	suite := buildReferenceSuite(job.Options.tolerance())
	s.Observe(suite)
	collision := s.Bus.Schema().Intern(vehicle.SigCollision)
	s.StopWhen(func(_ time.Duration, st temporal.State) bool {
		return st.Slot(collision).AsBool()
	})

	steps, last := s.RunDiscard(sc.Duration)
	suite.Finish()
	res := Result{
		Scenario:  sc,
		Steps:     steps,
		Collision: last != nil && last.Bool(vehicle.SigCollision),
		Suite:     suite,
	}
	res.Detections, res.Summary = suite.ClassifyAll()
	return res
}

// refEntry is one job's memoized reference: its Result, and the counting
// classifier's summary of the same suite (what a summary-only run reports).
type refEntry struct {
	once sync.Once
	job  Job
	res  Result
	fast monitor.Summary
}

// refCache maps a job's full JSON encoding (every scenario and option
// field, so hand-built jobs that reuse a name cannot collide) to its entry.
var refCache sync.Map

// referenceOf returns the reference Result of every job, computing the
// missing ones on a few goroutines.  It fails the test when the reference's
// two classifiers disagree on a job.
func referenceOf(t *testing.T, jobs []Job) []Result {
	t.Helper()
	entries := make([]*refEntry, len(jobs))
	for i, j := range jobs {
		e, _ := refCache.LoadOrStore(mustJSON(t, j), &refEntry{job: j})
		entries[i] = e.(*refEntry)
	}
	work := make(chan *refEntry)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				e.once.Do(func() {
					e.res = referenceRun(e.job)
					e.fast = e.res.Suite.FastSummaryAt(e.job.Options.tolerance())
				})
			}
		}()
	}
	for _, e := range entries {
		work <- e
	}
	close(work)
	wg.Wait()

	out := make([]Result, len(jobs))
	for i, e := range entries {
		if e.fast != e.res.Summary {
			t.Fatalf("%s: reference FastSummaryAt %v != ClassifyAll summary %v", jobs[i].Key(), e.fast, e.res.Summary)
		}
		out[i] = e.res
	}
	return out
}

// streamLine is one NDJSON line of a result stream: index, job key and the
// marshalled (summary-projection) Result.
type streamLine struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// streamBytes runs jobs through the engine and returns the NDJSON encoding
// of the full result stream together with the marshalled aggregate.
func streamBytes(t *testing.T, e *Engine, jobs []Job) ([]byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var acc Accumulator
	err := e.Stream(context.Background(), SliceSource(jobs), Tee(SinkFunc(func(sr StreamResult) error {
		return enc.Encode(streamLine{sr.Index, sr.Job.Key(), sr.Result})
	}), &acc))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), []byte(mustJSON(t, acc.SweepResult()))
}

// referenceStream is streamBytes for the reference runs of jobs.
func referenceStream(t *testing.T, jobs []Job) ([]byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var acc Accumulator
	for i, res := range referenceOf(t, jobs) {
		if err := enc.Encode(streamLine{i, jobs[i].Key(), res}); err != nil {
			t.Fatal(err)
		}
		acc.Add(res)
	}
	return buf.Bytes(), []byte(mustJSON(t, acc.SweepResult()))
}

// assertStreamMatchesReference streams jobs through the engine and requires
// the NDJSON stream and the aggregate to be byte-identical to the
// reference's.
func assertStreamMatchesReference(t *testing.T, e *Engine, jobs []Job) {
	t.Helper()
	gotStream, gotAgg := streamBytes(t, e, jobs)
	wantStream, wantAgg := referenceStream(t, jobs)
	if !bytes.Equal(gotStream, wantStream) {
		got, want := bytes.Split(gotStream, []byte("\n")), bytes.Split(wantStream, []byte("\n"))
		for i := 0; i < len(got) && i < len(want); i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("result stream differs from the reference at line %d\n got:  %s\n want: %s", i, got[i], want[i])
				break
			}
		}
		if len(got) != len(want) {
			t.Errorf("result stream has %d lines, the reference %d", len(got), len(want))
		}
	}
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Errorf("aggregate differs from the reference:\n got:  %s\n want: %s", gotAgg, wantAgg)
	}
}

// assertTracedMatchesReference compares a KeepTrace Result with the job's
// reference: the summary projection, the trace length, the detections and
// the violation report.
func assertTracedMatchesReference(t *testing.T, job Job, got, want Result) {
	t.Helper()
	name := job.Scenario.Name + " (" + job.Options.Label() + ")"
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("%s: result differs from the reference\n got:  %s\n want: %s", name, g, w)
	}
	if got.Trace == nil || got.Trace.Len() != want.Steps {
		t.Errorf("%s: KeepTrace result must record one state per step (%d)", name, want.Steps)
	}
	if !reflect.DeepEqual(got.Detections, want.Detections) {
		t.Errorf("%s: detections diverge from the reference\n got:  %#v\n want: %#v", name, got.Detections, want.Detections)
	}
	if !reflect.DeepEqual(got.Suite.Report(), want.Suite.Report()) {
		t.Errorf("%s: violation report diverges from the reference", name)
	}
}

// classifyAt classifies a finished suite's recorded intervals at another
// matching tolerance, materializing the detections.
func classifyAt(s *monitor.Suite, tolerance int) map[string][]monitor.Detection {
	re := monitor.NewSuite()
	for _, h := range s.Hierarchies() {
		re.Add(monitor.NewHierarchy(h.Parent, tolerance, h.Children...))
	}
	d, _ := re.ClassifyAll()
	return d
}

// assertArenaMatchesReference runs groups (each a dynamics group) on the
// arena in consecutive batches of its width and compares every lane with the
// references of its group's jobs: each job's summary-only Result, the lane's
// violation report, and the lane's detections classified at each job's
// tolerance.  A batch's groups must share one scheduled duration.
func assertArenaMatchesReference(t *testing.T, a *laneArena, groups [][]Job) {
	t.Helper()
	for lo := 0; lo < len(groups); lo += a.lanes {
		batch := groups[lo:min(lo+a.lanes, len(groups))]
		var jobs []Job
		for _, g := range batch {
			jobs = append(jobs, g...)
		}
		refs := referenceOf(t, jobs)
		got := make([]Result, len(jobs))
		a.run(batch, got)
		k := 0
		for l, g := range batch {
			lane := a.suite.LaneSuiteOf(l)
			if !reflect.DeepEqual(lane.Report(), refs[k].Suite.Report()) {
				t.Errorf("width %d, lane %d, %s: violation report diverges from the reference", a.lanes, l, g[0].Key())
			}
			for _, j := range g {
				if gj, wj := mustJSON(t, got[k]), mustJSON(t, refs[k]); gj != wj {
					t.Errorf("width %d, lane %d, %s: result differs from the reference\n got:  %s\n want: %s",
						a.lanes, l, j.Key(), gj, wj)
				}
				if d := classifyAt(lane, j.Options.tolerance()); !reflect.DeepEqual(d, refs[k].Detections) {
					t.Errorf("width %d, lane %d, %s: detections diverge from the reference", a.lanes, l, j.Key())
				}
				k++
			}
		}
	}
}

// singletons makes every job its own dynamics group.
func singletons(jobs []Job) [][]Job {
	groups := make([][]Job, len(jobs))
	for i, j := range jobs {
		groups[i] = []Job{j}
	}
	return groups
}

// sweepJobs returns the preset's jobs with every family trimmed to d.
func sweepJobs(t *testing.T, preset string, d time.Duration) []Job {
	t.Helper()
	sw, err := SweepBySize(preset)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Families {
		sw.Families[i].Base.Duration = d
	}
	jobs := sw.Jobs()
	if len(jobs) != sw.Size() {
		t.Fatalf("%s sweep yielded %d variants, want %d", preset, len(jobs), sw.Size())
	}
	return jobs
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVehiclePlanProgramSharing pins the point of the compiled suite on the
// real monitoring plan: the Table 5.3 goal and subgoal formulas overlap
// heavily, so the shared program evaluates far fewer atoms per step than the
// per-monitor suite reads.  The exact counts are pinned too, so a change to
// the compiler's hash-consing shows here.
func TestVehiclePlanProgramSharing(t *testing.T) {
	cs := BuildSuiteWithSchema(Period, temporal.NewSchema())
	s := cs.Program().Stats()
	t.Logf("program stats: %+v", s)
	if want := (temporal.ProgramStats{Formulas: 49, Nodes: 159, NodeRefs: 360, Atoms: 73, AtomRefs: 180}); s != want {
		t.Errorf("program stats = %+v, want %+v", s, want)
	}
	if s.Formulas < 30 {
		t.Fatalf("monitoring plan compiled %d formulas, want the full Table 5.3 plan (>= 30)", s.Formulas)
	}
	if s.Atoms*2 > s.AtomRefs {
		t.Errorf("weak atom sharing: %d unique atoms for %d references (want >= 2x sharing)", s.Atoms, s.AtomRefs)
	}
	if s.Nodes >= s.NodeRefs {
		t.Errorf("no node sharing: %d unique nodes for %d references", s.Nodes, s.NodeRefs)
	}
}

// TestDifferentialThesisScenarios checks RunWithOptions — the KeepTrace path
// the rendered tables and figures use — against the reference on the ten
// thesis scenarios in both defect configurations.  -short trims the runs;
// the full 20 s durations run in CI.
func TestDifferentialThesisScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		if testing.Short() {
			sc.Duration = 2 * time.Second
		}
		t.Run(sc.Name, func(t *testing.T) {
			jobs := []Job{{Scenario: sc}, {Scenario: sc, Options: Options{CorrectDefects: true}}}
			refs := referenceOf(t, jobs)
			for i, j := range jobs {
				assertTracedMatchesReference(t, j, RunWithOptions(j.Scenario, j.Options), refs[i])
			}
		})
	}
}

// TestDifferentialKeepTraceTolerance checks that a KeepTrace Result is
// classified at its job's tolerance although the pooled arena it ran on
// classifies at the default: scenario 1 at a one-step window, where the
// Arbiter's jerk-command violations lead the vehicle's by ~9 steps and no
// longer match, against the reference at that window.
func TestDifferentialKeepTraceTolerance(t *testing.T) {
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	if testing.Short() {
		sc.Duration = 14 * time.Second
	}
	jobs := []Job{{Scenario: sc, Options: Options{MatchTolerance: 1}}, {Scenario: sc}}
	refs := referenceOf(t, jobs)
	if refs[0].Summary == refs[1].Summary {
		t.Fatalf("tolerance 1 classifies like the default (%v); the test would not tell them apart", refs[0].Summary)
	}
	for i, j := range jobs {
		assertTracedMatchesReference(t, j, RunWithOptions(j.Scenario, j.Options), refs[i])
	}
}

// assertSweepMatchesReference streams a sweep through a KeepTrace engine
// (every Result checked for detections and report) and through a
// summary-only engine without grouping (pooled width-1 arenas reused job
// after job), both against the reference.
func assertSweepMatchesReference(t *testing.T, jobs []Job) {
	t.Helper()
	refs := referenceOf(t, jobs)
	err := NewEngine(WithWorkers(2)).Stream(context.Background(), SliceSource(jobs), SinkFunc(func(sr StreamResult) error {
		assertTracedMatchesReference(t, sr.Job, sr.Result, refs[sr.Index])
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertStreamMatchesReference(t, NewEngine(WithRetention(SummaryOnly), WithGrouping(false)), jobs)
}

// TestDifferentialDefaultSweep checks every variant of the 120-variant
// DefaultSweep — all speeds, distances and defect configurations — at a
// shortened duration (the full-length scenarios are covered by
// TestDifferentialThesisScenarios).
func TestDifferentialDefaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 120 DefaultSweep variants differentially")
	}
	assertSweepMatchesReference(t, sweepJobs(t, "default", 1*time.Second))
}

// TestDifferentialToleranceSweep extends the check to the monitor-tolerance
// axis: a non-default matching window must shift production and reference
// classifications identically.
func TestDifferentialToleranceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 30-variant tolerance sweep differentially")
	}
	assertSweepMatchesReference(t, sweepJobs(t, "tolerance", 1*time.Second))
}

// TestDifferentialDefectSweep extends the check to the per-feature defect
// axis and the driver-schedule perturbations of the DefectSweep preset.
func TestDifferentialDefectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the DefectSweep variants differentially")
	}
	assertSweepMatchesReference(t, sweepJobs(t, "defects", 1*time.Second))
}
