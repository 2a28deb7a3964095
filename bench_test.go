package repro

// Benchmark harness: one benchmark per table and figure of the thesis'
// evaluation, plus micro-benchmarks for the monitoring substrate.  Each
// benchmark regenerates the corresponding artefact from scratch so that
// `go test -bench=. -benchmem` reproduces the entire evaluation; the
// rendered outputs themselves are available from cmd/icpa, cmd/scenarios,
// cmd/elevator and cmd/figures.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/elevator"
	"repro/internal/goals"
	"repro/internal/hazard"
	"repro/internal/monitor"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// ---------------------------------------------------------------------------
// Chapter 2 baselines (Figures 2.2 and 2.3)
// ---------------------------------------------------------------------------

func BenchmarkTableFig2_2_FaultTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree := hazard.VehicleUnintendedAccelerationTree()
		_ = tree.TopProbability()
		cuts := tree.MinimalCutSets()
		if len(cuts) == 0 {
			b.Fatal("no cut sets")
		}
		_ = tree.Render()
	}
}

func BenchmarkTableFig2_3_FMEA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := hazard.VehicleRadarFMEA()
		_ = f.HighestRisk(3)
		_ = f.Render()
	}
}

// ---------------------------------------------------------------------------
// Chapter 3 (Tables 3.1/3.2, Figures 3.1-3.6)
// ---------------------------------------------------------------------------

func BenchmarkTable3_1_AndReduction(b *testing.B) {
	space := goals.BooleanStateSpace("A", "B", "C", "D", "E")
	red := goals.AndReduction{
		Parent: goals.MustParse("G", "", "A => B"),
		Subgoals: []goals.Goal{
			goals.MustParse("G1", "", "A => C"),
			goals.MustParse("G2", "", "C => D"),
			goals.MustParse("G3", "", "D => B"),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !goals.CheckAndReduction(red, space).Complete() {
			b.Fatal("reduction should be complete")
		}
	}
}

func BenchmarkFigure3_Composability(b *testing.B) {
	space := goals.BooleanStateSpace("ObjectInPath", "Detected", "CAStop", "ACCStop", "StopVehicle")
	d := core.Decomposition{
		Parent: goals.MustParse("G", "", "ObjectInPath => StopVehicle"),
		Reductions: [][]goals.Goal{
			{goals.MustParse("G1a", "", "ObjectInPath => CAStop"), goals.MustParse("G1b", "", "CAStop => StopVehicle")},
			{goals.MustParse("G2a", "", "ObjectInPath => ACCStop"), goals.MustParse("G2b", "", "ACCStop => StopVehicle")},
		},
		Assumptions: []temporal.Formula{
			temporal.MustParse("StopVehicle => (CAStop | ACCStop)"),
			temporal.MustParse("CAStop => ObjectInPath"),
			temporal.MustParse("ACCStop => ObjectInPath"),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.Classify(d, space).Class != core.FullyComposableWithRedundancy {
			b.Fatal("unexpected classification")
		}
	}
}

// ---------------------------------------------------------------------------
// Chapter 4 (Tables 4.1-4.5, Appendix B)
// ---------------------------------------------------------------------------

func BenchmarkTable4_1_IndirectControlPaths(b *testing.B) {
	model := elevator.Model()
	goal := elevator.Goals().MustGet(elevator.GoalDoorClosedOrStopped)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := model.IndirectControlPaths(goal, 0)
		if len(paths) != 2 {
			b.Fatal("expected two control paths")
		}
	}
}

func BenchmarkTable4_3_GoalElaboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := elevator.DoorDriveICPA()
		if len(a.Subgoals) != 2 {
			b.Fatal("expected the Table 4.4 subgoals")
		}
		_ = a.Render()
	}
}

func BenchmarkTable4_4_Subgoals(b *testing.B) {
	a := elevator.DoorDriveICPA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := a.CheckRealizability()
		for _, r := range res {
			if !r.Realizable {
				b.Fatal("Table 4.4 subgoals should be realizable")
			}
		}
	}
}

func BenchmarkTable4_5_Realizability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := core.Table4_5()
		if len(tables) != 3 {
			b.Fatal("expected three variants")
		}
	}
}

func BenchmarkAppendixB_RealizabilityPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := core.AppendixBTables()
		if len(tables) != 15 {
			b.Fatal("expected 15 tables")
		}
	}
}

// ---------------------------------------------------------------------------
// Chapter 4 evaluation on the elevator substrate
// ---------------------------------------------------------------------------

func benchmarkElevatorScenario(b *testing.B, sc elevator.Scenario, wantHit, wantFP bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := elevator.Run(sc)
		if wantHit && res.Summary.Hits == 0 {
			b.Fatal("expected a hit")
		}
		if wantFP && res.Summary.FalsePositives == 0 {
			b.Fatal("expected a false positive")
		}
	}
}

func BenchmarkElevatorNominal(b *testing.B) {
	benchmarkElevatorScenario(b, elevator.NominalScenario(), false, false)
}

func BenchmarkElevatorDoorDefect(b *testing.B) {
	benchmarkElevatorScenario(b, elevator.DoorDefectScenario(), true, false)
}

func BenchmarkElevatorHoistwayRedundancy(b *testing.B) {
	benchmarkElevatorScenario(b, elevator.HoistwayDefectScenario(), false, true)
}

// ---------------------------------------------------------------------------
// Chapter 5 (Tables 5.1-5.3, Appendix C)
// ---------------------------------------------------------------------------

func BenchmarkTable5_1_GoalDefinitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := scenarios.VehicleGoals()
		if r.Len() != 9 {
			b.Fatal("expected nine goals")
		}
	}
}

func BenchmarkTable5_3_MonitoringLocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := scenarios.MonitoringPlan()
		if len(plan) != 9 {
			b.Fatal("expected nine hierarchies")
		}
		_ = scenarios.RenderTable5_3()
	}
}

func BenchmarkAppendixC_VehicleICPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		analyses := scenarios.AppendixCAnalyses()
		if len(analyses) != 9 {
			b.Fatal("expected nine analyses")
		}
	}
}

// ---------------------------------------------------------------------------
// Appendix D (Tables D.1-D.11): one benchmark per scenario run
// ---------------------------------------------------------------------------

func benchmarkScenario(b *testing.B, number int) {
	b.Helper()
	sc, ok := scenarios.ScenarioByNumber(number)
	if !ok {
		b.Fatalf("no scenario %d", number)
	}
	for i := 0; i < b.N; i++ {
		res := scenarios.RunWithOptions(sc, scenarios.Options{})
		_ = scenarios.RenderViolationTable(res)
	}
}

func BenchmarkTableD1_Scenario1(b *testing.B)   { benchmarkScenario(b, 1) }
func BenchmarkTableD2_Scenario2(b *testing.B)   { benchmarkScenario(b, 2) }
func BenchmarkTableD3_Scenario3(b *testing.B)   { benchmarkScenario(b, 3) }
func BenchmarkTableD4_Scenario4(b *testing.B)   { benchmarkScenario(b, 4) }
func BenchmarkTableD5_Scenario5(b *testing.B)   { benchmarkScenario(b, 5) }
func BenchmarkTableD6_Scenario6(b *testing.B)   { benchmarkScenario(b, 6) }
func BenchmarkTableD8_Scenario7(b *testing.B)   { benchmarkScenario(b, 7) }
func BenchmarkTableD9_Scenario8(b *testing.B)   { benchmarkScenario(b, 8) }
func BenchmarkTableD10_Scenario9(b *testing.B)  { benchmarkScenario(b, 9) }
func BenchmarkTableD11_Scenario10(b *testing.B) { benchmarkScenario(b, 10) }

// ---------------------------------------------------------------------------
// Batch scenario execution: the sequential baseline, the parallel Engine and
// a parameter sweep, every KeepTrace result retained.  The
// sequential/parallel pair tracks the wall-clock win of the worker pool on
// multicore hardware (identical results either way).
// ---------------------------------------------------------------------------

// collectAll streams src through engine and retains every Result, as a
// batch caller that keeps every trace does.
func collectAll(b *testing.B, engine *scenarios.Engine, src scenarios.JobSource) []scenarios.Result {
	b.Helper()
	var out []scenarios.Result
	err := engine.Stream(context.Background(), src, scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
		out = append(out, sr.Result)
		return nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// thesisJobs returns one default-options job per thesis scenario.
func thesisJobs() []scenarios.Job {
	var jobs []scenarios.Job
	for _, sc := range scenarios.Scenarios() {
		jobs = append(jobs, scenarios.Job{Scenario: sc})
	}
	return jobs
}

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := collectAll(b, scenarios.NewEngine(scenarios.WithWorkers(1)), scenarios.SliceSource(thesisJobs()))
		if len(results) != 10 {
			b.Fatal("expected ten results")
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := collectAll(b, scenarios.NewEngine(), scenarios.SliceSource(thesisJobs())) // GOMAXPROCS workers
		if len(results) != 10 {
			b.Fatal("expected ten results")
		}
	}
}

// BenchmarkSweepShortDuration runs a 40-variant sweep of 2 s runs through the
// parallel Engine with every trace retained, tracking generated-scenario
// throughput without the cost of full 20 s simulations per iteration.
func BenchmarkSweepShortDuration(b *testing.B) {
	sweep := shortSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := collectAll(b, scenarios.NewEngine(), scenarios.SliceSource(sweep.Jobs())); len(res) != 40 {
			b.Fatal("expected 40 sweep results")
		}
	}
}

// shortSweep is the 40-variant short-duration sweep shared by the retention
// benchmarks.
func shortSweep() scenarios.Sweep {
	var families []scenarios.Family
	for _, base := range scenarios.Scenarios() {
		base.Duration = 2 * time.Second
		families = append(families, scenarios.Family{
			Base:            base,
			InitialSpeeds:   []float64{base.InitialSpeed, base.InitialSpeed + 2},
			ObjectDistances: []float64{base.ObjectDistance, base.ObjectDistance * 0.8},
		})
	}
	return scenarios.Sweep{Families: families}
}

// BenchmarkSweepRetention contrasts the batch shape (materialized jobs,
// every KeepTrace result retained) with the streaming Engine under both
// retention policies over the same 40-variant sweep.  Run with -benchmem:
// SummaryOnly skips the per-step state snapshot entirely — the simulation
// records no trace — so B/op drops by roughly the full trace cost versus the
// batch and KeepTrace runs, which is the allocation evidence that large
// sweeps can stream with O(workers) memory.
func BenchmarkSweepRetention(b *testing.B) {
	sweep := shortSweep()
	b.Run("RunSweepBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := collectAll(b, scenarios.NewEngine(), scenarios.SliceSource(sweep.Jobs())); len(res) != 40 {
				b.Fatal("expected 40 sweep results")
			}
		}
	})
	for _, retention := range []scenarios.Retention{scenarios.KeepTrace, scenarios.SummaryOnly} {
		retention := retention
		b.Run("Stream/"+retention.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine := scenarios.NewEngine(scenarios.WithRetention(retention))
				acc, err := engine.Accumulate(context.Background(), sweep.Source())
				if err != nil {
					b.Fatal(err)
				}
				if acc.Runs() != 40 {
					b.Fatal("expected 40 streamed runs")
				}
			}
		})
	}
}

// BenchmarkRunSweepSummaryOnly is the headline sweep benchmark: the
// 40-variant short-duration sweep streamed with summary-only retention —
// trace-free runs, one shared evaluation program compiled per worker and
// reused across its variants.  It tracks the end-to-end cost of the
// monitored-evaluation hot path across PRs.
func BenchmarkRunSweepSummaryOnly(b *testing.B) {
	sweep := shortSweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := scenarios.NewEngine(scenarios.WithRetention(scenarios.SummaryOnly))
		acc, err := engine.Accumulate(context.Background(), sweep.Source())
		if err != nil {
			b.Fatal(err)
		}
		if acc.Runs() != 40 {
			b.Fatal("expected 40 streamed runs")
		}
	}
}

// toleranceSweepK is the 60-variant grouped-execution benchmark sweep: the
// ten thesis scenarios at 2 s durations, each evaluated at six hit-matching
// tolerances.  The tolerance axis is innermost, so every family is one
// width-6 dynamics group.
func toleranceSweepK() scenarios.Sweep {
	var families []scenarios.Family
	for _, base := range scenarios.Scenarios() {
		base.Duration = 2 * time.Second
		families = append(families, scenarios.Family{
			Base:       base,
			Tolerances: []int{25, 50, 100, 150, 300, 450},
		})
	}
	return scenarios.Sweep{Families: families}
}

// BenchmarkToleranceSweepGrouped measures what the dynamics/monitor identity
// split buys on a K-tolerance sweep: Grouped simulates each trajectory once
// and classifies its recorded violation intervals at all six tolerances
// (FastSummaryAt); Ungrouped simulates every variant separately, the
// pre-split behaviour.  Identical results either way — the differential
// tests prove byte equality — so the ratio is pure saved simulation.
func BenchmarkToleranceSweepGrouped(b *testing.B) {
	sweep := toleranceSweepK()
	for _, mode := range []struct {
		name    string
		grouped bool
	}{{"Grouped", true}, {"Ungrouped", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine := scenarios.NewEngine(
					scenarios.WithRetention(scenarios.SummaryOnly),
					scenarios.WithGrouping(mode.grouped))
				acc, err := engine.Accumulate(context.Background(), sweep.Source())
				if err != nil {
					b.Fatal(err)
				}
				if acc.Runs() != sweep.Size() {
					b.Fatalf("ran %d of %d variants", acc.Runs(), sweep.Size())
				}
			}
		})
	}
}

// BenchmarkAblation_CorrectedScenario2 is the corrected-defects ablation: the
// same scenario run with every seeded defect removed, showing how much of
// the violation structure is attributable to the thesis' documented defects.
func BenchmarkAblation_CorrectedScenario2(b *testing.B) {
	sc, _ := scenarios.ScenarioByNumber(2)
	for i := 0; i < b.N; i++ {
		res := scenarios.RunWithOptions(sc, scenarios.Options{CorrectDefects: true})
		if res.Collision {
			b.Fatal("the corrected system should avoid the collision")
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 5.2-5.15 and the classification machinery
// ---------------------------------------------------------------------------

func BenchmarkFigures5_SeriesExtraction(b *testing.B) {
	sc, _ := scenarios.ScenarioByNumber(1)
	res := scenarios.RunWithOptions(sc, scenarios.Options{})
	figs := scenarios.Figures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range figs {
			if f.Scenario == 1 {
				_ = scenarios.FigureSeries(res, f)
			}
		}
	}
}

func BenchmarkViolationClassification(b *testing.B) {
	sc, _ := scenarios.ScenarioByNumber(2)
	res := scenarios.RunWithOptions(sc, scenarios.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = res.Suite.ClassifyAll()
	}
}

// ---------------------------------------------------------------------------
// Monitoring substrate micro-benchmarks
// ---------------------------------------------------------------------------

// vehicleSizedBus returns the bus of a real scenario run after a few steps,
// so its schema holds exactly the signal vocabulary a production run interns
// (bus initialisation plus every component's handle set) and the
// commit/snapshot benchmarks measure the true register-file width.  Reusing
// scenarios.NewSimulation keeps one source of truth: a signal added to the
// scenario setup or a component automatically widens this bus too.
func vehicleSizedBus() *sim.Bus {
	sc, ok := scenarios.ScenarioByNumber(1)
	if !ok {
		panic("scenario 1 missing")
	}
	s := scenarios.NewSimulation(sc, scenarios.Options{})
	s.Run(10 * time.Millisecond) // step every component so all handles bind
	return s.Bus
}

// BenchmarkBusCommit measures the per-step cost of making buffered writes
// visible on a vehicle-sized bus: a register-file copy under the slot-indexed
// representation, versus a full map merge under the map-backed one.
func BenchmarkBusCommit(b *testing.B) {
	bus := vehicleSizedBus()
	speed := bus.NumVar(vehicle.SigVehicleSpeed)
	accel := bus.NumVar(vehicle.SigVehicleAccel)
	stopped := bus.BoolVar(vehicle.SigVehicleStopped)
	source := bus.StringVar(vehicle.SigAccelSource)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		speed.Write(float64(i))
		accel.Write(0.5)
		stopped.Write(i%2 == 0)
		source.Write(vehicle.SourceACC)
		bus.Commit()
	}
}

// thesisTrace returns the recorded trace of scenario n's 20 s run.
func thesisTrace(n int) *temporal.Trace {
	sc, ok := scenarios.ScenarioByNumber(n)
	if !ok {
		panic(fmt.Sprintf("scenario %d missing", n))
	}
	return scenarios.RunWithOptions(sc, scenarios.Options{}).Trace
}

// BenchmarkStateSnapshot measures recording the committed state into a
// trace, the per-tick cost of KeepTrace retention.  It replays the recorded
// trajectories of scenario 1 (the memory gate's run) and scenario 8 (the most
// slots changed per tick of the ten) into a fresh trace per 20 s run, so
// every tick compares a changing state with the last one recorded.  One op is
// one tick: ns/op and B/op are ns and bytes per tick.  The replay is a Walk
// of the recorded trace, whose per-tick cost (a few entries copied into one
// hot scratch state) is included.
func BenchmarkStateSnapshot(b *testing.B) {
	for _, n := range []int{1, 8} {
		src := thesisTrace(n)
		b.Run(fmt.Sprintf("s%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				trace := temporal.NewTraceWithCapacity(time.Millisecond, src.Len())
				src.Walk(func(_ int, s temporal.State) {
					if done < b.N {
						trace.Append(s)
						done++
					}
				})
			}
		})
	}
}

// traceAtSink keeps BenchmarkTraceAt's result live.
var traceAtSink temporal.State

// BenchmarkTraceAt measures random access into a recorded trace: At rebuilds
// a tick from the keyframe before it plus the deltas after the keyframe.
// Together with BenchmarkStateSnapshot's B/op it is the trade-off the
// keyframe interval is chosen on.
func BenchmarkTraceAt(b *testing.B) {
	for _, n := range []int{1, 8} {
		tr := thesisTrace(n)
		b.Run(fmt.Sprintf("s%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				traceAtSink = tr.At(int(uint64(i) * 7919 % uint64(tr.Len())))
			}
		})
	}
}

// BenchmarkProgramStep measures one incremental evaluation of a bounded-past
// goal formula compiled into a one-formula Program against the observed
// state's schema, the inner loop of every run-time monitor.
func BenchmarkProgramStep(b *testing.B) {
	schema := temporal.NewSchema()
	formula := temporal.MustParse(
		"(prevfor[500ms](Stopped) & !prevwithin[500ms](Throttle) & FromSubsystem) => Accel <= 0.05")
	prog := temporal.NewProgram(time.Millisecond, schema)
	prog.MustAdd(formula)
	state := temporal.NewStateWith(schema).
		SetBool("Stopped", true).SetBool("Throttle", false).
		SetBool("FromSubsystem", true).SetNumber("Accel", 0.01)
	prog.Step(state) // lowers the program; the loop times steady-state steps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Step(state)
	}
}

func BenchmarkMonitorObserve(b *testing.B) {
	g := scenarios.VehicleGoals().MustGet(scenarios.Goal1AutoAccel)
	cs := monitor.NewCompiledSuite(time.Millisecond, nil)
	cs.MustAddHierarchy(monitor.GoalAt{Goal: g, Location: "Vehicle"}, 0)
	state := temporal.NewState().
		SetBool(vehicle.SigAccelFromSubsystem, true).
		SetNumber(vehicle.SigVehicleAccel, 1.2)
	cs.Observe(state) // lowers the program; the loop times steady-state observations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Observe(state)
	}
}

// suiteObserveState builds the synthetic state the suite-observation
// benchmarks evaluate against.
func suiteObserveState() temporal.State {
	state := temporal.NewState().
		SetBool(vehicle.SigAccelFromSubsystem, true).
		SetNumber(vehicle.SigVehicleAccel, 1.2).
		SetNumber(vehicle.SigVehicleJerk, 0.5).
		SetBool(vehicle.SigAccelSteeringAgreement, true).
		SetBool(vehicle.SigVehicleStopped, false).
		SetBool(vehicle.SigInForwardMotion, true)
	for _, f := range vehicle.FeatureNames {
		state.SetNumber(vehicle.SigAccelRequest(f), 0.5)
		state.SetNumber(vehicle.SigRequestJerk(f), 0.1)
	}
	return state
}

// BenchmarkSuiteObserve measures one observation of the full Table 5.3
// monitoring plan against one state: the whole plan evaluated as one shared,
// hash-consed program in which each atom and each common subformula is read
// once per step, plus the interval bookkeeping.
func BenchmarkSuiteObserve(b *testing.B) {
	b.Run("Program", func(b *testing.B) {
		state := suiteObserveState()
		suite := scenarios.BuildSuiteWithSchema(time.Millisecond, state.Schema())
		suite.Reset() // lowers the plan; the loop times steady-state observations
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Observe(state)
		}
	})
}

// defectSweepShort is the lane-batching benchmark sweep: the 120-variant
// defect sweep at 2 s durations.  Its variants differ in defect sets and
// driver schedules — width-1 dynamics groups in long equal-duration runs —
// so grouping alone saves nothing and any speedup is pure lane batching.
func defectSweepShort() scenarios.Sweep {
	sw := scenarios.DefectSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 2 * time.Second
	}
	return sw
}

// BenchmarkDefectSweepLaned measures what lane-batched evaluation buys on a
// dynamics-varying sweep: Laned steps four variants in lockstep through one
// widened simulation (one commit, one compiled-program pass and one observer
// dispatch per tick for the whole batch); Scalar (WithLanes(1)) simulates
// every variant separately as a one-lane batch.  Identical results either
// way — the differential tests prove byte equality — so the ratio is the
// amortized per-tick overhead.
func BenchmarkDefectSweepLaned(b *testing.B) {
	sweep := defectSweepShort()
	for _, mode := range []struct {
		name  string
		lanes int
	}{{"Laned", 4}, {"Scalar", 1}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine := scenarios.NewEngine(
					scenarios.WithRetention(scenarios.SummaryOnly),
					scenarios.WithLanes(mode.lanes))
				acc, err := engine.Accumulate(context.Background(), sweep.Source())
				if err != nil {
					b.Fatal(err)
				}
				if acc.Runs() != sweep.Size() {
					b.Fatalf("ran %d of %d variants", acc.Runs(), sweep.Size())
				}
			}
		})
	}
}

// stepLanesDuration is the length of each variant's recorded trajectory in
// BenchmarkStepLanes: the whole scheduled run, because the first seconds of
// a defect variant barely move and would time little but the change-gating
// compare.  Over the full 20 s the share of atoms the gated program re-runs
// is close to the full DefectSweep's.
const stepLanesDuration = scenarios.DefaultDuration

// laneWrite is one recorded register change of a lane trajectory: the
// physical lane-state index, the new kind and the payload (the number, 0/1
// for a bool, or the interned enumeration id).
type laneWrite struct {
	idx  int32
	kind temporal.Kind
	val  float64
}

// laneTrajectory is a recorded lane-major trajectory stored as per-tick
// register changes, so a replay keeps one cache-resident live state — as a
// lane bus does — instead of streaming a full widened state per tick.
type laneTrajectory struct {
	schema *temporal.Schema
	lanes  int
	ticks  [][]laneWrite
}

// apply writes tick t's register changes into the live lane state.
func (tr *laneTrajectory) apply(st temporal.State, t int) {
	for _, w := range tr.ticks[t] {
		switch w.kind {
		case temporal.KindNumber:
			st.SetSlotNumber(int(w.idx), w.val)
		case temporal.KindBool:
			st.SetSlotBool(int(w.idx), w.val != 0)
		case temporal.KindString:
			st.SetSlotStringID(int(w.idx), int32(w.val))
		default:
			st.SetSlot(int(w.idx), temporal.Value{})
		}
	}
}

// observeFunc adapts a closure to sim.StateObserver.
type observeFunc func(temporal.State)

func (f observeFunc) Observe(st temporal.State) { f(st) }

// defectLaneTrajectory simulates the first lanes distinct-dynamics variants
// of the defect sweep for d each and records them as one lane trajectory:
// lane l carries variant l's committed states, exactly what a lane batch of
// those variants hands the monitoring program tick by tick.
func defectLaneTrajectory(lanes int, d time.Duration) *laneTrajectory {
	tr := &laneTrajectory{schema: temporal.NewSchema(), lanes: lanes, ticks: make([][]laneWrite, int(d/scenarios.Period))}
	seen := map[string]bool{}
	src := scenarios.DefectSweep().Source()
	for lane := 0; lane < lanes; {
		job, ok := src.Next()
		if !ok {
			panic("defect sweep has fewer distinct dynamics than lanes")
		}
		if seen[job.DynamicsKey()] {
			continue
		}
		seen[job.DynamicsKey()] = true
		s := scenarios.NewSimulation(job.Scenario, job.Options)
		var slots []int // variant slot -> trajectory slot
		var prev temporal.State
		t := 0
		l := lane
		s.Observe(observeFunc(func(st temporal.State) {
			if prev == nil {
				prev = temporal.NewStateWith(st.Schema())
			}
			for i := len(slots); i < st.Schema().Len(); i++ {
				slots = append(slots, tr.schema.Intern(st.Schema().Name(i)))
			}
			for i, j := range slots {
				k := st.SlotKind(i)
				same := k == prev.SlotKind(i)
				w := laneWrite{idx: int32(j*lanes + l), kind: k}
				switch k {
				case temporal.KindNumber, temporal.KindBool:
					w.val = st.SlotNumber(i) // bools as 0/1
					same = same && w.val == prev.SlotNumber(i)
				case temporal.KindString:
					w.val = float64(tr.schema.InternString(st.SlotString(i)))
					same = same && st.SlotStringID(i) == prev.SlotStringID(i)
				}
				if !same {
					tr.ticks[t] = append(tr.ticks[t], w)
				}
			}
			prev.CopyFrom(st)
			t++
		}))
		s.RunDiscard(d)
		lane++
	}
	return tr
}

// vehiclePlanProgram compiles every goal and subgoal formula of the Table 5.3
// monitoring plan into one program.
func vehiclePlanProgram(schema *temporal.Schema) *temporal.Program {
	p := temporal.NewProgram(scenarios.Period, schema)
	for _, spec := range scenarios.MonitoringPlan() {
		p.MustAdd(spec.Parent.Goal.Formal)
		for _, c := range spec.Children {
			p.MustAdd(c.Goal.Formal)
		}
	}
	return p
}

// BenchmarkStepLanes measures Program.StepLanes on the vehicle monitoring
// plan, replaying recorded defect-sweep trajectories at width 1 (one variant)
// and width 4 (the production lane batch).  One op is one whole replay: the
// program and the live state are Reset, as a lane arena does between
// batches, and every tick's register changes are written before the tick is
// stepped; ns/tick reports the per-tick cost.  The replayed states change
// from tick to tick the way a real sweep's do, so the benchmark charges
// change-driven evaluation for every verdict flip a run produces.
func BenchmarkStepLanes(b *testing.B) {
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		b.Run(fmt.Sprintf("l%d", lanes), func(b *testing.B) {
			tr := defectLaneTrajectory(lanes, stepLanesDuration)
			p := vehiclePlanProgram(tr.schema)
			if err := p.SetLanes(lanes); err != nil {
				b.Fatal(err)
			}
			live := temporal.NewStateWithLanes(tr.schema, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live.Reset()
				p.Reset()
				for t := range tr.ticks {
					tr.apply(live, t)
					p.StepLanes(live)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.ticks)), "ns/tick")
		})
	}
}

// ---------------------------------------------------------------------------
// Distributed sweep execution (internal/dist)
// ---------------------------------------------------------------------------

// BenchmarkDistSweep measures the coordinator tax on the 1296-variant huge
// sweep: SingleProcess is one engine streaming the grid; Coordinator3 runs
// the same grid through the dist coordinator over three in-process workers —
// every result NDJSON-encoded, re-parsed, deduplicated, reordered and merged,
// exactly the work a multi-process deployment adds on top of simulation.
// The gap between the two is the protocol-and-merge overhead; it should stay
// a small fraction of the simulation cost.
//
// Under -short the huge grid (tens of seconds per iteration at full 20 s
// durations) is replaced by the same 1296-variant structure trimmed to 1 s
// runs, which exercises the identical protocol path at a fraction of the
// wall clock.
func BenchmarkDistSweep(b *testing.B) {
	sweep := scenarios.HugeSweep()
	if testing.Short() {
		for i := range sweep.Families {
			sweep.Families[i].Base.Duration = 1 * time.Second
		}
	}
	b.Run("SingleProcess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine := scenarios.NewEngine(scenarios.WithRetention(scenarios.SummaryOnly))
			acc, err := engine.Accumulate(context.Background(), sweep.Source())
			if err != nil {
				b.Fatal(err)
			}
			if acc.Runs() != sweep.Size() {
				b.Fatalf("ran %d of %d variants", acc.Runs(), sweep.Size())
			}
		}
	})
	b.Run("Coordinator3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coord, err := dist.New(dist.Options{
				Workers:   3,
				Transport: &dist.LocalTransport{Source: sweep.Source},
			})
			if err != nil {
				b.Fatal(err)
			}
			acc, err := coord.Run(context.Background(), sweep.Source(),
				scenarios.SinkFunc(func(scenarios.StreamResult) error { return nil }))
			if err != nil {
				b.Fatal(err)
			}
			if acc.Runs() != sweep.Size() {
				b.Fatalf("merged %d of %d variants", acc.Runs(), sweep.Size())
			}
		}
	})
}
