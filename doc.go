// Package repro is a Go reproduction of "System Safety as an Emergent
// Property in Composite Systems" (Jennifer A. Black, Carnegie Mellon
// University, 2009).
//
// The library implements the thesis' three contributions — the formal
// framework for composable and emergent safety goals, Indirect Control Path
// Analysis (ICPA), and hierarchical run-time safety-goal monitoring —
// together with every substrate the evaluation depends on: a past-time
// temporal-logic engine, KAOS-style goals and agents, traditional hazard
// analysis baselines (PHA, FTA, FMEA), a fixed-step simulation kernel, the
// Chapter 4 distributed elevator and the Chapter 5 semi-autonomous vehicle
// with its ten evaluation scenarios.
//
// State is slot-indexed and stored as two struct-of-arrays planes: each
// scenario run owns a temporal.Schema (an interned name → slot symbol table,
// plus an interned enumeration-string table) and a temporal.State keeps its
// slots as a kind plane and one []float64 value plane (booleans as 0/1,
// enumeration strings as their interned id).  A bus commit is two
// pointer-free memmoves (9 bytes per slot, no GC write barriers), a recorded
// trace copies each snapshot into chunked slabs instead of allocating one
// per state, and goal formulas compiled into a temporal.Program evaluate
// their atoms directly on the value plane — every atom kernel is one float
// compare per lane, re-run only when its operand's lane group changed, and
// no string is hashed or Value constructed anywhere on the per-step path.  Components
// address signals through typed handles (sim.Bus.NumVar/BoolVar/StringVar);
// the name-keyed state API remains for the reference evaluator, and
// differential tests prove the plane-backed and string-keyed evaluations
// produce identical detections across the full evaluation.  Every committed
// state comes from one per-tick loop, sim.LaneSim.Run: a sim.Simulation is
// that kernel at width 1, recording each state into a trace.
//
// Whole runs are reusable: sim.Simulation.Reset rewinds the bus planes
// without re-interning and restores every component implementing
// sim.Resetter to its initial conditions, so an Engine worker executes its
// sweep variants on a run arena — one schema, bus, component set and one
// compiled program per tolerance — and the steady state of a summary-only
// sweep allocates nothing per simulation step (gated by
// testing.AllocsPerRun regression tests, with before/after numbers recorded
// in README.md and the committed benchmark baseline).
//
// Job identity is split into what is simulated and how it is observed:
// scenarios.Job.DynamicsKey canonicalizes everything that determines the
// simulated trajectory (physical parameters, duration, driver schedule,
// resolved defect corrections) and MonitorKey everything that only affects
// observation (the hit-matching tolerance), with reflection guard tests
// forcing every Scenario and Options field to be classified into exactly one
// side.  The Engine batches consecutive jobs with equal DynamicsKeys into
// one group and simulates the trajectory once: the lane suite observes the
// single pass and each job's summary is classified from the recorded
// violation intervals at that job's own tolerance (FastSummaryAt — sound
// because the tolerance parameterizes only interval matching, never which
// intervals a run records), so a K-tolerance sweep does ceil(variants/K)
// simulation passes instead of one per variant.  Every result still streams
// under its own Job.Key in
// source order — sharding, caching, dedup and the distributed merge are
// byte-identical with grouping on or off — and Engine.GroupStats reports
// groups formed, variants carried and simulation passes saved.
//
// Groups with different dynamics widen further into lanes: the SoA planes
// carry an inner lane dimension (physical index slot*lanes + lane, booleans
// packed at bit slot*lanes+lane), so up to 64 distinct trajectories occupy
// one widened Registers and a single pointer-free commit advances all of
// them.  A lane-mode temporal.Program (StepLanes) evaluates each node to a
// per-lane uint64 verdict mask: typed atom kernels read whole lane groups of
// the planes, and change propagation re-evaluates only the connectives whose
// children's masks changed (plus the stateful temporal operators), so a
// quiet tick costs little more than its atoms.  monitor.LaneSuite folds mask
// diffs into per-lane violation intervals, touching per-lane state only on
// ticks where some lane's verdict changed.  The Engine's dispatcher batches consecutive
// equal-duration dynamics groups into lane tasks (WithLanes, default width
// 4), and grouped summary-only runs are lane batches at every width: a
// ragged remainder or WithLanes(1) simply runs one active lane.  Per-lane
// stop masks retire collided lanes early.  The lane arena is the one
// execution path: WithGrouping(false) runs each job as a one-lane batch on a
// width-1 arena, and a KeepTrace run (the Engine's, or RunWithOptions) gets a
// fresh width-1 arena that records every committed state and whose schema,
// trace and suite its Result keeps.  The tests' reference run — a scalar
// sim.Simulation observed by string-keyed Stepper monitors — is the
// independent oracle: the laned, grouped, arena and differential tests
// compare the NDJSON stream, the aggregate, the detections and the violation
// report against it.  Engine.LaneStats reports batches widened, lanes carried
// and ragged (single-group) batches; BENCH_9.json records the speedup.
//
// Monitoring is evaluated as one composed artifact: temporal.Program
// compiles every goal and subgoal formula of a monitor suite into a single
// flat, topologically ordered node array with common subexpressions
// hash-consed away, so each shared atom and subformula is evaluated exactly
// once per observed state however many formulas reference it (the vehicle
// plan's 49 formulas collapse from 360 node references to 159 nodes).
// The program has one evaluator, the lane kernels of Program.StepLanes:
// Program.Step is its width-1 case over a scalar state, and
// monitor.CompiledSuite is a width-1 monitor.LaneSuite that feeds the
// per-formula verdicts into lightweight interval recorders and reuses the
// Hierarchy / Classify / Report machinery unchanged; Reset makes one
// compiled program serve run after run, which is how a sweep worker
// monitors every variant it executes with a single compilation.  The
// string-keyed, tree-walking temporal.Stepper (temporal.CompileReference,
// monitor.NewReference) is the one independent reference implementation
// the differential tests compare the program against.
//
// Scenario evaluation is built around the streaming scenarios.Engine: jobs
// are pulled lazily from a JobSource (Family and Sweep expose generator
// forms, so a parameter grid of any size never materializes a job slice),
// each Result is pushed to a ResultSink in source order, and a
// trace-retention policy (KeepTrace or SummaryOnly) decides whether sweep
// memory is O(variants) or O(workers).  Runs are bounded and cancelled
// through a context.Context; cancellation drains in-flight work and leaves a
// valid partial aggregate in the Accumulator sink.  Engine.Stream is the one
// batch entry point: a bounded batch that keeps every trace is a KeepTrace
// stream into a slice, and scenarios.RunWithOptions runs a single scenario.
//
// Sweeps also run distributed (internal/dist): jobs are partitioned across
// worker processes by a deterministic shard key — the FNV-1a hash of each
// variant's canonical identity (scenarios.Job.Key), a pure function of the
// variant, so every process derives the same partition without coordination —
// and a coordinator (cmd/sweepd) merges the workers' NDJSON streams back
// into source order, dropping any variant it has already merged and folding
// the rest into one Accumulator on arrival, producing output byte-identical
// to a single process.
// Dead or stalled workers are re-queued with the proved prefix of their shard
// seeded into the replacement's result cache, so fault recovery re-simulates
// only what was genuinely lost; the SIGKILL chaos test proves the merged
// stream survives worker loss unchanged.
//
// See README.md for the package layout, the Engine / parameter-sweep API and
// the build-and-test workflow.  The benchmarks in bench_test.go regenerate
// every table and figure of the thesis' evaluation.
package repro
