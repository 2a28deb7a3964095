package repro

// Benchmark harness: one benchmark per table and figure of the thesis'
// evaluation, plus micro-benchmarks for the monitoring substrate.  Each
// benchmark regenerates the corresponding artefact from scratch so that
// `go test -bench=. -benchmem` reproduces the entire evaluation; the
// rendered outputs themselves are available from cmd/icpa, cmd/scenarios,
// cmd/elevator and cmd/figures.

import (
	"context"
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
		res := scenarios.Run(sc)
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
// Batch scenario execution: the sequential baseline, the parallel Runner and
// a parameter sweep.  The sequential/parallel pair tracks the wall-clock win
// of the worker pool on multicore hardware (identical results either way).
// ---------------------------------------------------------------------------

func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := scenarios.Runner{Workers: 1}.RunScenarios(scenarios.Scenarios(), scenarios.Options{})
		if len(results) != 10 {
			b.Fatal("expected ten results")
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := scenarios.RunAll() // default Runner: GOMAXPROCS workers
		if len(results) != 10 {
			b.Fatal("expected ten results")
		}
	}
}

// BenchmarkSweepShortDuration runs a 40-variant sweep of 2 s runs through the
// parallel Runner, tracking generated-scenario throughput without the cost of
// full 20 s simulations per iteration.
func BenchmarkSweepShortDuration(b *testing.B) {
	sweep := shortSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := scenarios.Runner{}.RunSweep(sweep)
		if len(res.Results) != 40 {
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

// BenchmarkSweepRetention contrasts the batch path (Runner.RunSweep:
// materialized jobs, every trace retained) with the streaming Engine under
// both retention policies over the same 40-variant sweep.  Run with -benchmem:
// SummaryOnly skips the per-step state snapshot entirely — the simulation
// records no trace — so B/op drops by roughly the full trace cost
// (thousands of map clones per run) versus RunSweep and KeepTrace, which is
// the allocation evidence that large sweeps can stream with O(workers)
// memory.
func BenchmarkSweepRetention(b *testing.B) {
	sweep := shortSweep()
	b.Run("RunSweepBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := scenarios.Runner{}.RunSweep(sweep)
			if len(res.Results) != 40 {
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
		res := scenarios.RunCorrected(sc)
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
	res := scenarios.Run(sc)
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
	res := scenarios.Run(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Suite.Classify()
		_ = res.Suite.Summary()
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

// BenchmarkStateSnapshot measures cloning the committed state, the per-step
// cost of trace retention.
func BenchmarkStateSnapshot(b *testing.B) {
	bus := vehicleSizedBus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bus.Snapshot()
	}
}

// BenchmarkStepperStep measures one incremental evaluation of a bounded-past
// goal formula compiled against the observed state's schema, the inner loop
// of every run-time monitor.
func BenchmarkStepperStep(b *testing.B) {
	schema := temporal.NewSchema()
	formula := temporal.MustParse(
		"(prevfor[500ms](Stopped) & !prevwithin[500ms](Throttle) & FromSubsystem) => Accel <= 0.05")
	stepper, err := temporal.CompileWithSchema(formula, time.Millisecond, schema)
	if err != nil {
		b.Fatal(err)
	}
	state := temporal.NewStateWith(schema).
		SetBool("Stopped", true).SetBool("Throttle", false).
		SetBool("FromSubsystem", true).SetNumber("Accel", 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepper.Step(state)
	}
}

func BenchmarkTemporalStepper(b *testing.B) {
	formula := temporal.MustParse(
		"(prevfor[500ms](Stopped) & !prevwithin[500ms](Throttle) & FromSubsystem) => Accel <= 0.05")
	stepper := temporal.MustCompile(formula, time.Millisecond)
	state := temporal.NewState().
		SetBool("Stopped", true).SetBool("Throttle", false).
		SetBool("FromSubsystem", true).SetNumber("Accel", 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepper.Step(state)
	}
}

func BenchmarkMonitorObserve(b *testing.B) {
	g := scenarios.VehicleGoals().MustGet(scenarios.Goal1AutoAccel)
	m := monitor.MustNew(g, "Vehicle", time.Millisecond)
	state := temporal.NewState().
		SetBool(vehicle.SigAccelFromSubsystem, true).
		SetNumber(vehicle.SigVehicleAccel, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(state)
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

// BenchmarkSuiteObserve contrasts the two evaluations of the full Table 5.3
// monitoring plan against one state: PerMonitor steps ~30 independent goal
// steppers (every shared atom re-read per monitor), Program evaluates the
// whole plan as one shared, hash-consed program in which each atom and each
// common subformula is read once per step.  The gap is the per-step cost the
// suite-level CSE removes from every simulated state of every sweep variant.
func BenchmarkSuiteObserve(b *testing.B) {
	b.Run("PerMonitor", func(b *testing.B) {
		state := suiteObserveState()
		suite := scenarios.BuildSuite(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Observe(state)
		}
	})
	b.Run("Program", func(b *testing.B) {
		state := suiteObserveState()
		suite := scenarios.BuildSuiteWithSchema(time.Millisecond, state.Schema())
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
