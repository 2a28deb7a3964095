// Command perfbench is the repository's benchmark: the yardstick every
// performance claim about the scenario sweep is measured with.
//
// Run it from the repository root (it builds itself into .bench_build):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it stamps the run with the
// Go version, GOMAXPROCS, nproc, CPU model, git commit, seed and the
// workload's parameters (variants, duration, workers, shards), so two
// records can only be compared when those agree.
//
// # Load model
//
// A single-process closed loop: one client submits a sweep pass through the
// public API of internal/scenarios or internal/dist, waits for the aggregate
// trailer, checks every output against the oracle, then submits the next
// pass.  Simulation runs on at most nproc goroutines.  Each run first sets
// the workload up 105 times (setup_s is the median of the last 100), computes
// the oracle, makes one checked warm-up pass, and then measures passes for
// --seconds (at least three).  It reports the per-pass median of allocation
// metrics.  Time metrics are adjusted to a reference host speed with a
// calibration kernel timed around every pass (host.go), and reported as the
// per-pass 10th percentile; the unadjusted figures and the scale factors are
// printed on the line before the result.
//
// Seed 0 runs the sweep presets as shipped.  Any other seed perturbs each
// family's numeric axes: initial speeds move by +[0, 0.5) m/s, object
// distances scale by 1±5 %, driver schedules shift by 0–100 ms.  Variant
// counts, dynamics-group widths and durations are unchanged, so every seed
// runs the same shape of work.
//
// # Workloads, and why each was chosen
//
// defects-lanes: scenarios.DefectSweep(), 120 variants at the thesis' 20 s,
// SummaryOnly, default engine with nproc workers, the sink NDJSON-encoding
// each result exactly as `cmd/scenarios -stream` does.  Every variant has its
// own DynamicsKey, so grouping saves nothing and the work is 30 full 4-wide
// lane batches of component stepping, lane commit, StepLanes and
// ObserveLanes, with the wire idle.  It is the workload for the hot-path
// (lane plane, interning, scalar→lanes) items.
//
// tolerance-groups: scenarios.ToleranceSweep(), 30 variants that are 10
// dynamics groups × tolerances 50/150/450 at 20 s.  One simulation serves
// three jobs, so dispatch, grouping and FastSummaryAt carry a larger share;
// the 10 groups form lane batches of 4, 4 and 2 over the workers, so the
// slowest batch sets the pass time.  A batching or refill change shows here
// and nowhere else.
//
// thesis-traces: the ten thesis scenarios, each with KeepTrace retention
// through the engine, the sink rendering scenarios.RenderViolationTable as
// the table reproduction does.  Lanes and grouping are inert under KeepTrace,
// so this runs the scalar Program.Step, the per-tick Bus.Snapshot, trace
// allocation and ClassifyAll — the path a "scalar is lanes at width 1"
// collapse could slow while the sweeps speed up.
//
// huge-http: scenarios.HugeSweep(), 1296 variants trimmed to 20 ms, through
// dist.Coordinator with 2 shards over dist.HTTPTransport to an in-process
// dist.WorkerServer{Workers: 1} on a loopback listener: 2 connections, 2
// simulation goroutines.  Every result is encoded, streamed over HTTP,
// parsed, deduplicated, reordered and merged; the wire and coordinator
// layers do most of their work here and none anywhere else.
//
// # Oracle
//
// Each run computes its reference once for its seed, with code that shares
// no lane or group execution: summary-only workloads run the same jobs on an
// engine with grouping and lanes off (one scalar arena run per variant), and
// that single-process NDJSON stream is also what huge-http's merged stream
// must equal byte for byte; thesis-traces renders per-scenario
// scenarios.RunWithOptions results.  A variant whose output differs or is
// missing counts as failed.
//
// # End-to-end metrics (--trace 0)
//
//	variants_per_s        delivered variants per wall second of a pass
//	first_result_ms       pass submitted → first result at the sink
//	cpu_ms_per_variant    process user+sys CPU per delivered variant
//	alloc_kb_per_variant  bytes allocated per variant (runtime.MemStats delta)
//	allocs_per_variant    allocations per variant (same delta)
//	peak_rss_mb           the process's maximum RSS over the run
//	correct_share         1 − failed/attempted; failed_share is its complement
//	                      (the result line's failed/attempted), reported this
//	                      way because a bounded metric must never read 0
//	setup_s               sweep enumeration and keys, one plan compile against
//	                      a fresh NewSimulation bus, engine or coordinator
//	                      construction, and for huge-http the loopback worker
//	                      up with /healthz answering
//
// # Traced run (--trace 1)
//
// A separate run replays the workload on one goroutine through public calls
// and times them from this package; spans are kept in memory under the
// variant's Job.Key and written to .bench_build/trace/<workload>-seed<n>.ndjson
// at the end.  Its outputs are checked against one untraced pass of the
// workload, and the lane replay's summaries against the scalar replay's.
//
// Scalar path: scenarios.NewSimulation, then RunDiscard (Run under
// KeepTrace).  A no-op sim.StepFunc appended after the nine components marks
// where component stepping ends; from the marker to the observer is commit;
// a timing sim.StateObserver around the CompiledSuite (compiled via
// monitor.NewCompiledSuite and scenarios.MonitoringPlan at the job's
// tolerance) times monitoring.  Then FastSummaryAt per job and ClassifyAll.
// Dynamics groups are replayed in a strided order until 30 % of --seconds
// is spent; then, for another 20 %, the same groups again untraced and
// traced back to back in alternating order, whose CPU ratio is the tracing
// overhead.
//
// Lane path: the replayed groups' trajectories are recorded and replayed
// four at a time (the writes untimed) into a sim.NewLaneBus feeding a
// monitor.NewLaneSuite plus a standalone lane Program built from the same
// plan, and one at a time into a 1-lane bus and Program and a scalar
// Program, for 20 % of --seconds.
//
// Per-layer metrics, the public call timed, and the end-to-end metric and
// workload each should move:
//
//	vehicle.step_ns_per_tick              the nine components' Step per tick → variants_per_s on defects-lanes and thesis-traces
//	sim.enum_write_ns                     StringVar.Write of an enum on a vehicle bus (the InternString finding) → vehicle.step_ns_per_tick, hence variants_per_s on defects-lanes
//	sim.commit_ns_per_tick                scalar Bus.Commit (with the snapshot under KeepTrace) → variants_per_s, alloc_kb_per_variant on thesis-traces
//	sim.lane_commit_ns_per_tick.l1        LaneBus.Commit at 1 lane (the 108→223 ns regression) → variants_per_s on defects-lanes
//	sim.lane_commit_ns_per_tick.l4        LaneBus.Commit at 4 lanes → variants_per_s on defects-lanes
//	temporal.step_ns_per_tick             Program.Step on the vehicle plan → variants_per_s on thesis-traces
//	temporal.step_lanes_ns_per_tick.l1    Program.StepLanes at 1 lane, against Program.Step the width-1 collapse cost → variants_per_s on defects-lanes
//	temporal.step_lanes_ns_per_tick.l4    Program.StepLanes at 4 lanes → variants_per_s on defects-lanes and tolerance-groups
//	temporal.program_nodes                Program.Stats().Nodes (count)
//	monitor.observe_ns_per_tick           CompiledSuite.Observe → variants_per_s on thesis-traces
//	monitor.observe_lanes_ns_per_tick.l4  LaneSuite.ObserveLanes minus the StepLanes time → variants_per_s on defects-lanes
//	monitor.fast_summary_at_us            FastSummaryAt per job → variants_per_s on tolerance-groups
//	monitor.classify_all_us               ClassifyAll per simulated variant → variants_per_s, alloc_kb_per_variant on thesis-traces
//	scenarios.new_simulation_us           NewSimulation → setup_s, first_result_ms
//	scenarios.dispatch_us_per_job         Engine.Stream over the jobs trimmed to one tick (engine overhead over a no-op simulation) → first_result_ms everywhere, variants_per_s on tolerance-groups
//	scenarios.sims_per_job                GroupStats Sims/Jobs of that stream (0 where the engine does not group) → variants_per_s on tolerance-groups
//	scenarios.lane_fill                   LaneStats mean lanes per widened batch → variants_per_s on defects-lanes and tolerance-groups
//	scenarios.ragged_share                LaneStats ragged/(batches+ragged) → variants_per_s on defects-lanes and tolerance-groups
//	scenarios.unattributed_share          (replay CPU − Σ layer span time) / replay CPU: how far the layers fall short of explaining the pass
//	dist.encode_us_per_result             NewRunReport + JSON encode → variants_per_s, alloc_kb_per_variant on huge-http
//	dist.decode_us_per_result             ParseResultLine → the same
//	dist.merge_us_per_result              Coordinator.Run over a canned-NDJSON Transport, no simulation → the same
//	dist.wire_bytes_per_result            bytes a counting Transport reads in that merge → the same
//	dist.shard_first_line_ms              HTTPTransport.Start to the first output byte, jobs trimmed to one tick → first_result_ms on huge-http
//	dist.attempts_per_shard               Start calls per shard through a counting Transport → correct_share, variants_per_s on huge-http
//	trace.overhead_share                  traced replay CPU / the same replay untraced − 1
//
// Every per-layer metric is measured on every workload (the dist and dispatch
// probes run the workload's own jobs), so a change to one layer can be
// checked on the workload that exercises it and on one that bypasses it.
// The analysis layer (core, goals, hazard) and the elevator family are out
// of scope: neither is on any sweep path.
package main
