package scenarios

// Differential tests for the monitoring substrate: the same simulation is
// observed simultaneously by two monitor suites — the compiled-program suite
// (every goal formula lowered into one shared, hash-consed evaluation
// program, the production path) and a reference suite of one
// temporal.Stepper per goal whose atoms evaluate through the string-keyed
// State API on every step, sharing no evaluation code with the program.
// Identical classifications across the ten thesis scenarios, the 120-variant
// DefaultSweep, the tolerance sweep and the defect sweep prove the
// suite-level CSE, the lane kernels and the per-worker program reuse changed
// the evaluation strategy, not the results.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// buildReferenceSuite instantiates the Table 5.3 monitoring plan with
// reference (string-keyed) goal steppers.
func buildReferenceSuite(t *testing.T, period time.Duration, tolerance int) *monitor.Suite {
	t.Helper()
	suite := monitor.NewSuite()
	for _, spec := range MonitoringPlan() {
		parent, err := monitor.NewReference(spec.Parent.Goal, spec.Parent.Location, period)
		if err != nil {
			t.Fatalf("reference monitor %q: %v", spec.Parent.Goal.Name, err)
		}
		children := make([]*monitor.Monitor, 0, len(spec.Children))
		for _, c := range spec.Children {
			child, err := monitor.NewReference(c.Goal, c.Location, period)
			if err != nil {
				t.Fatalf("reference monitor %q: %v", c.Goal.Name, err)
			}
			children = append(children, child)
		}
		suite.Add(monitor.NewHierarchy(parent, tolerance, children...))
	}
	return suite
}

// runDifferential executes one scenario with both suites attached to the
// same simulation and asserts identical detections and summaries.  A non-nil
// cache reuses one compiled program per tolerance across calls — exactly the
// Engine worker's reuse pattern — so the sweep-shaped tests also prove Reset
// restores a program to a freshly compiled state.
func runDifferential(t *testing.T, sc Scenario, opts Options, cache suiteCache) {
	t.Helper()

	s := NewSimulation(sc, opts)
	tol := opts.tolerance()
	refSuite := buildReferenceSuite(t, Period, tol)

	var compiled *monitor.CompiledSuite
	if cache != nil {
		if cached, ok := cache[tol]; ok {
			cached.Reset()
			compiled = cached
		}
	}
	if compiled == nil {
		compiled = buildCompiledSuite(Period, s.Bus.Schema(), tol)
		if cache != nil {
			cache[tol] = compiled
		}
	}

	s.Observe(compiled)
	s.Observe(refSuite)
	collision := s.Bus.Schema().Intern(vehicle.SigCollision)
	s.StopWhen(func(_ time.Duration, st temporal.State) bool {
		return st.Slot(collision).AsBool()
	})

	duration := sc.Duration
	if duration <= 0 {
		duration = 20 * time.Second
	}
	s.RunDiscard(duration)
	refSuite.Finish()
	compiled.Finish()

	refDetections, refSummary := refSuite.ClassifyAll()
	progDetections, progSummary := compiled.ClassifyAll()

	if progSummary != refSummary {
		t.Errorf("%s (%s): compiled-program summary %v != reference summary %v",
			sc.Name, opts.Label(), progSummary, refSummary)
	}
	if !reflect.DeepEqual(progDetections, refDetections) {
		t.Errorf("%s (%s): compiled-program detections diverge from the string-keyed reference\nprogram: %#v\nref:     %#v",
			sc.Name, opts.Label(), progDetections, refDetections)
	}
	if got, want := compiled.Suite().Report(), refSuite.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s (%s): compiled-program violation report diverges from the reference suite",
			sc.Name, opts.Label())
	}
	// The counting classifier used by summary-only runs must agree with the
	// detection-materializing one on every suite.
	if got := compiled.FastSummaryAt(tol); got != progSummary {
		t.Errorf("%s (%s): FastSummaryAt %v != ClassifyAll summary %v",
			sc.Name, opts.Label(), got, progSummary)
	}
	if got := refSuite.FastSummary(); got != refSummary {
		t.Errorf("%s (%s): reference FastSummary %v != ClassifyAll summary %v",
			sc.Name, opts.Label(), got, refSummary)
	}
}

// TestVehiclePlanProgramSharing pins the point of the compiled suite on the
// real monitoring plan: the Table 5.3 goal and subgoal formulas overlap
// heavily, so the shared program evaluates far fewer atoms per step than the
// per-monitor suite reads.
func TestVehiclePlanProgramSharing(t *testing.T) {
	cs := BuildSuiteWithSchema(Period, temporal.NewSchema())
	s := cs.Program().Stats()
	t.Logf("program stats: %+v", s)
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

// TestDifferentialThesisScenarios proves detection equivalence on the ten
// thesis scenarios, in both the seeded-defect and corrected configurations.
// -short trims the runs; the full 20 s durations run in CI.
func TestDifferentialThesisScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		if testing.Short() {
			sc.Duration = 2 * time.Second
		}
		t.Run(sc.Name, func(t *testing.T) {
			runDifferential(t, sc, Options{}, nil)
			runDifferential(t, sc, Options{CorrectDefects: true}, nil)
		})
	}
}

// TestDifferentialDefaultSweep proves detection equivalence across every
// variant of the 120-variant DefaultSweep, reusing one compiled program
// across all variants the way an Engine worker does.  Durations are shortened
// so the population runs in test time (the full-length scenarios are covered
// by TestDifferentialThesisScenarios); every variant of the grid — all
// speeds, distances and defect configurations — is exercised.
func TestDifferentialDefaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 120 DefaultSweep variants differentially")
	}
	sw := DefaultSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 1 * time.Second
	}
	if sw.Size() != 120 {
		t.Fatalf("DefaultSweep size = %d, want 120", sw.Size())
	}
	cache := make(suiteCache)
	src := sw.Source()
	runs := 0
	for {
		job, ok := src.Next()
		if !ok {
			break
		}
		runDifferential(t, job.Scenario, job.Options, cache)
		runs++
	}
	if runs != 120 {
		t.Fatalf("differential sweep executed %d variants, want 120", runs)
	}
}

// TestDifferentialToleranceSweep extends the equivalence proof to the
// monitor-tolerance axis: a non-default matching window must shift both
// implementations' classifications identically, with the compiled program
// reused per tolerance.
func TestDifferentialToleranceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 30-variant tolerance sweep differentially")
	}
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 1 * time.Second
	}
	cache := make(suiteCache)
	src := sw.Source()
	for {
		job, ok := src.Next()
		if !ok {
			break
		}
		runDifferential(t, job.Scenario, job.Options, cache)
	}
}

// TestDifferentialDefectSweep extends the equivalence proof to the
// per-feature defect axis and the driver-schedule perturbations of the
// DefectSweep preset.
func TestDifferentialDefectSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the DefectSweep variants differentially")
	}
	sw := DefectSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 1 * time.Second
	}
	cache := make(suiteCache)
	src := sw.Source()
	runs := 0
	for {
		job, ok := src.Next()
		if !ok {
			break
		}
		runDifferential(t, job.Scenario, job.Options, cache)
		runs++
	}
	if runs != sw.Size() {
		t.Fatalf("differential defect sweep executed %d variants, want %d", runs, sw.Size())
	}
}
