// Command scenarios runs the semi-autonomous-vehicle evaluation scenarios of
// thesis Section 5.4 with the full Table 5.3 monitoring suite and prints the
// Appendix D violation tables, the hit / false-negative / false-positive
// classification and the cross-scenario summary.
//
// Scenarios execute on the streaming scenarios.Engine; -workers sizes the
// pool and -timeout bounds the whole evaluation (cancellation drains cleanly
// and reports the partial aggregate).  Beyond the ten fixed thesis scenarios,
// -sweep evaluates a parameter sweep whose grid -sweep-size selects: default
// (120 variants over initial speed, object distance and defect
// configuration), wide (360, adds object speeds), huge (1296, adds a
// fourth speed, a third distance and the gear axis), tolerance (30, varies
// the hit-matching window) or defects (120, per-feature defect subsets under
// perturbed driver schedules).  Sweeps stream lazily with summary-only trace
// retention, so memory stays O(workers) however large the grid; each worker
// compiles the monitoring plan into one shared evaluation program and reuses
// it across every variant it runs.
//
// -json emits one machine-readable summary document; -stream emits NDJSON —
// one line per completed run, in input order, followed by a final aggregate
// line — so downstream tooling can consume results while the sweep is still
// running.
//
// This binary is the single-process evaluator: its -sweep -stream output is
// the reference a distributed sweep (cmd/sweepd coordinating cmd/sweepworker
// shards) must reproduce byte for byte.
//
// -cpuprofile and -memprofile write pprof profiles of the evaluation, so
// sweep hot spots can be inspected without editing code.
//
// Usage:
//
//	scenarios [-n number] [-detail] [-table53] [-goals] [-corrected]
//	          [-workers n] [-timeout d] [-sweep] [-sweep-size s]
//	          [-json] [-stream] [-cache-stats]
//	          [-cpuprofile f] [-memprofile f]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// The machine-readable report shapes (per-run lines and the aggregate
// trailer/document) live in internal/dist: this binary's NDJSON output IS
// the distributed worker protocol, and sharing the structs is what makes a
// merged multi-worker stream byte-identical to a single-process one.

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	number := fs.Int("n", 0, "run only the given thesis scenario number (1-10); with -sweep, sweep only that scenario's family")
	detail := fs.Bool("detail", false, "print per-detection classification details (rendered-table mode only; no effect with -sweep, -json or -stream)")
	table53 := fs.Bool("table53", false, "print the Table 5.3 monitoring-location matrix")
	showGoals := fs.Bool("goals", false, "print the nine system safety goals (Tables 5.1/5.2)")
	corrected := fs.Bool("corrected", false, "ablation: run with every seeded defect removed")
	workers := fs.Int("workers", 0, "worker-pool size for scenario execution (default GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "bound the whole evaluation; on expiry in-flight runs drain and the partial aggregate is reported (0 = no bound)")
	sweep := fs.Bool("sweep", false, "evaluate a parameter sweep instead of the ten fixed scenarios")
	sweepSize := fs.String("sweep-size", "default", "sweep grid preset: default (120 variants), wide (360, adds object speeds), huge (1296, adds speeds, distances and gears where meaningful), tolerance (30, varies the hit-matching window) or defects (120, per-feature defect subsets under perturbed driver schedules)")
	cacheStats := fs.Bool("cache-stats", false, "memoize summary-only results by variant label (Engine result cache) and report the hit/miss and dynamics-grouping counters on stderr after the run")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON summary instead of the rendered tables")
	stream := fs.Bool("stream", false, "emit NDJSON: one line per completed run, then a final aggregate line")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the evaluation to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the evaluation finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := scenarios.Options{CorrectDefects: *corrected}

	if (*asJSON || *stream) && (*table53 || *showGoals) {
		return fmt.Errorf("-json/-stream cannot be combined with -table53 or -goals: the rendered tables would corrupt the output stream")
	}
	if *cacheStats && !*sweep && !*asJSON && !*stream {
		return fmt.Errorf("-cache-stats requires -sweep, -json or -stream: rendered-table runs retain full traces and never consult the summary-only result cache")
	}

	// Resolve the job source before any output, so a bad selection fails
	// with nothing written.  Sweeps stay lazy end to end: the grid is
	// generated variant by variant and never materialized.
	var src scenarios.JobSource
	switch {
	case *sweep:
		// The selection resolves through the same scenarios.SweepSourceFor
		// that cmd/sweepd and cmd/sweepworker use, so this single-process
		// reference enumerates exactly the grid a distributed sweep does.
		source, err := scenarios.SweepSourceFor(*sweepSize, *number, *corrected)
		if err != nil {
			return err
		}
		src = source()
	case *number != 0:
		sc, ok := scenarios.ScenarioByNumber(*number)
		if !ok {
			return fmt.Errorf("no scenario numbered %d", *number)
		}
		src = scenarios.SliceSource([]scenarios.Job{{Scenario: sc, Options: opts}})
	default:
		var jobs []scenarios.Job
		for _, sc := range scenarios.Scenarios() {
			jobs = append(jobs, scenarios.Job{Scenario: sc, Options: opts})
		}
		src = scenarios.SliceSource(jobs)
	}

	// Profiling hooks, so sweep hot spots can be inspected without editing
	// code: scenarios -sweep -sweep-size huge -cpuprofile cpu.out.  They
	// start after flag and selection validation so an erroneous invocation
	// never truncates an existing profile file.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "-cpuprofile: close: %v\n", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: close: %v\n", err)
			}
		}()
	}

	if *showGoals {
		for _, g := range scenarios.VehicleGoals().All() {
			fmt.Fprintln(w, g.String())
			fmt.Fprintln(w)
		}
	}
	if *table53 {
		fmt.Fprintln(w, scenarios.RenderTable5_3())
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The rendered Appendix D tables need the full trace and monitor suite;
	// every machine-readable path needs only the per-run summary, so sweeps
	// and JSON/NDJSON output run trace-free.
	retention := scenarios.SummaryOnly
	rendered := !*asJSON && !*stream && !*sweep
	if rendered {
		retention = scenarios.KeepTrace
	}
	engineOpts := []scenarios.EngineOption{
		scenarios.WithWorkers(*workers),
		scenarios.WithRetention(retention),
	}
	if *cacheStats {
		engineOpts = append(engineOpts, scenarios.WithResultCache())
	}
	engine := scenarios.NewEngine(engineOpts...)
	if *cacheStats {
		// The counters are reported however the evaluation path returns, on
		// stderr so they never corrupt -json/-stream output.
		defer func() { fmt.Fprint(os.Stderr, engineStats(engine)) }()
	}

	var acc scenarios.Accumulator

	switch {
	case *stream:
		err := engine.Stream(ctx, src, scenarios.Tee(&acc, dist.RunLineSink(w)))
		// The final aggregate line covers exactly the runs that completed,
		// so a timed-out stream still ends with a valid partial aggregate.
		if encErr := json.NewEncoder(w).Encode(dist.NewAggregateReport(&acc)); encErr != nil && err == nil {
			err = encErr
		}
		return err

	case *asJSON:
		var runs []dist.RunReport
		err := engine.Stream(ctx, src, scenarios.Tee(&acc, scenarios.SinkFunc(
			func(sr scenarios.StreamResult) error {
				runs = append(runs, dist.NewRunReport(sr))
				return nil
			})))
		// A timed-out evaluation still reports the completed prefix: the
		// document covers exactly the runs that finished, and the error is
		// surfaced through the exit status.
		rep := dist.NewAggregateReport(&acc)
		rep.Results = runs
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(rep); encErr != nil && err == nil {
			err = encErr
		}
		return err

	case *sweep:
		err := engine.Stream(ctx, src, &acc)
		rep := dist.NewAggregateReport(&acc)
		fmt.Fprintf(w, "Sweep: %d runs, %d collisions, %d early terminations\n",
			rep.Runs, rep.Collisions, rep.EarlyTerminations)
		fmt.Fprintf(w, "Aggregate: %s\n", rep.Aggregate)
		fmt.Fprintf(w, "Interpretation: %s\n", rep.Aggregate.CompositionEvidence())
		return err

	default:
		var results []scenarios.Result
		err := engine.Stream(ctx, src, scenarios.SinkFunc(
			func(sr scenarios.StreamResult) error {
				results = append(results, sr.Result)
				return nil
			}))
		for _, r := range results {
			fmt.Fprintln(w, scenarios.RenderViolationTable(r))
			if *detail {
				fmt.Fprintln(w, scenarios.RenderClassificationDetail(r))
			}
		}
		if len(results) > 1 {
			fmt.Fprintln(w, scenarios.RenderSummary(results))
		}
		return err
	}
}

// engineStats renders the -cache-stats report: the result-cache hit/miss
// counters, what dynamics-grouped execution did (groups formed, variants
// carried, simulation passes actually run and thereby saved) and what lane
// batching did on top (widened runs executed, dynamics groups they carried
// as lockstep lanes, and ragged batches that ran a single group).
func engineStats(engine *scenarios.Engine) string {
	hits, misses := engine.CacheStats()
	gs := engine.GroupStats()
	ls := engine.LaneStats()
	return fmt.Sprintf("result cache: %d hits, %d misses\n", hits, misses) +
		fmt.Sprintf("dynamics groups: %d groups over %d jobs, %d sims run, %d saved (mean width %.2f)\n",
			gs.Groups, gs.Jobs, gs.Sims, gs.SimsSaved(), gs.MeanWidth()) +
		fmt.Sprintf("lane batches: %d widened runs over %d lanes, %d ragged (mean width %.2f)\n",
			ls.Batches, ls.Lanes, ls.Ragged, ls.MeanWidth())
}
