// Command sweepd coordinates a distributed parameter sweep: it drives N
// shard workers — local `sweepworker -stdio` processes, or remote
// sweepworker HTTP daemons — and merges their NDJSON result streams back
// into the single-process output contract.  The merged stream (and the
// final aggregate) is byte-identical to `scenarios -sweep -stream` over the
// same grid, including when workers die mid-sweep: dead shards are
// re-queued with seeded exponential backoff, replacement workers are seeded
// with every already-proved variant, and duplicate deliveries are dropped
// by variant key.
//
// Usage:
//
//	sweepd [-transport exec|http] [-worker path] [-hosts h1,h2,...]
//	       [-workers n] [-sweep-size s] [-n number] [-corrected]
//	       [-worker-pool n] [-stall-timeout d] [-max-attempts k]
//	       [-backoff d] [-backoff-max d] [-seed s] [-allow-partial]
//	       [-chaos kinds] [-chaos-seed s] [-timeout d] [-stream]
//
// -transport exec (default) spawns one local `sweepworker -stdio` process
// per shard attempt (-worker names the sweepworker binary, resolved via
// PATH) and writes the shard spec to its stdin.  -transport http drives the
// sweepworker daemons listed in -hosts; shard i goes to host i mod len.
// Each shard may consume up to -max-attempts workers; -allow-partial turns
// an exhausted shard into a partial aggregate (flagged, with a per-shard
// completion map) instead of a failed sweep.  -chaos wraps the transport in
// seeded deterministic fault injection (dist.FaultTransport): a comma list
// of fault kinds or "all", replayable exactly with the same -chaos-seed.
// Without -stream, only the final "Sweep:" summary lines are printed,
// matching `scenarios -sweep`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	transport := fs.String("transport", "exec", "worker transport: exec (local child processes) or http (remote sweepworker daemons)")
	worker := fs.String("worker", "sweepworker", "exec transport: path to the sweepworker binary, run as sweepworker -stdio")
	hosts := fs.String("hosts", "", "http transport: comma-separated sweepworker hosts (host:port or http://host:port)")
	workers := fs.Int("workers", 3, "number of workers (= shard count)")
	sweepSize := fs.String("sweep-size", "default", "sweep grid preset, as in scenarios -sweep-size")
	number := fs.Int("n", 0, "sweep only the given thesis scenario's family (0 = all)")
	corrected := fs.Bool("corrected", false, "ablation: sweep only the corrected configuration")
	workerPool := fs.Int("worker-pool", 0, "per-worker engine pool size, passed through as sweepworker -workers (0 = worker default)")
	stallTimeout := fs.Duration("stall-timeout", 2*time.Minute, "kill and re-queue a worker silent for this long (0 disables)")
	maxAttempts := fs.Int("max-attempts", 3, "workers (first + replacements) allowed per shard before it fails")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "base delay before re-queuing a failed shard; doubles per attempt with seeded jitter (0 = immediate)")
	backoffMax := fs.Duration("backoff-max", 15*time.Second, "cap on the exponential re-queue backoff")
	seed := fs.Int64("seed", 1, "seed for the backoff jitter (and -chaos, unless -chaos-seed is set)")
	allowPartial := fs.Bool("allow-partial", false, "degrade gracefully: retire a shard that exhausts its budget and emit a partial aggregate with a completion map instead of failing the sweep")
	chaos := fs.String("chaos", "", "inject deterministic faults: comma-separated kinds (spawn-refusal, drop, corrupt, truncate, duplicate, stall, slow) or \"all\" (empty disables)")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for -chaos fault injection (0 = use -seed); the same seed replays the same faults")
	timeout := fs.Duration("timeout", 0, "bound the whole distributed sweep (0 = no bound)")
	stream := fs.Bool("stream", false, "emit the merged NDJSON stream (run lines in source order, then the aggregate line) instead of the rendered summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *maxAttempts < 1 {
		return fmt.Errorf("-max-attempts must be at least 1, got %d", *maxAttempts)
	}

	// The coordinator enumerates the grid itself; workers enumerate the same
	// grid from the same selection (argv flags for exec workers, daemon
	// startup flags for http workers).
	source, err := scenarios.SweepSourceFor(*sweepSize, *number, *corrected)
	if err != nil {
		return err
	}

	tr, err := buildTransport(*transport, *worker, *hosts, *sweepSize, *number, *corrected, *workerPool)
	if err != nil {
		return err
	}
	if *chaos != "" {
		menu, err := parseChaosMenu(*chaos)
		if err != nil {
			return err
		}
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		tr = &dist.FaultTransport{Inner: tr, Seed: cs, Menu: menu}
	}

	coord, err := dist.New(dist.Options{
		Workers:         *workers,
		Transport:       tr,
		StallTimeout:    *stallTimeout,
		MaxAttempts:     *maxAttempts,
		RetryBackoff:    *backoff,
		RetryBackoffMax: *backoffMax,
		Seed:            *seed,
		AllowPartial:    *allowPartial,
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var sink scenarios.ResultSink = scenarios.SinkFunc(func(scenarios.StreamResult) error { return nil })
	if *stream {
		sink = dist.RunLineSink(w)
	}

	outcome, err := coord.Run(ctx, source(), sink)
	if err != nil {
		return err
	}
	rep := outcome.Report()
	if *stream {
		return json.NewEncoder(w).Encode(rep)
	}
	fmt.Fprintf(w, "Sweep: %d runs, %d collisions, %d early terminations\n",
		rep.Runs, rep.Collisions, rep.EarlyTerminations)
	fmt.Fprintf(w, "Aggregate: %s\n", rep.Aggregate)
	fmt.Fprintf(w, "Interpretation: %s\n", rep.Aggregate.CompositionEvidence())
	if outcome.Partial {
		// Extra provenance lines only on degraded runs, so a complete sweep's
		// summary stays identical to `scenarios -sweep`.
		fmt.Fprintf(w, "PARTIAL: the aggregate covers only the shards that completed\n")
		for shard, c := range outcome.Shards {
			if !c.Complete {
				fmt.Fprintf(w, "  shard %d/%d: %d/%d variants after %d attempt(s): %s\n",
					shard, len(outcome.Shards), c.Done, c.Total, c.Attempts, c.Error)
			}
		}
	}
	return nil
}

// buildTransport resolves the -transport selection.
func buildTransport(kind, worker, hosts, sweepSize string, number int, corrected bool, workerPool int) (dist.Transport, error) {
	switch kind {
	case "exec":
		// Build the worker argv from the exact flags that shape the
		// coordinator's own enumeration, so both sides agree on the grid.
		argv := []string{worker, "-stdio", "-sweep-size", sweepSize}
		if number != 0 {
			argv = append(argv, "-n", strconv.Itoa(number))
		}
		if corrected {
			argv = append(argv, "-corrected")
		}
		if workerPool > 0 {
			argv = append(argv, "-workers", strconv.Itoa(workerPool))
		}
		return &dist.ExecTransport{Argv: argv, Stderr: os.Stderr}, nil
	case "http":
		if hosts == "" {
			return nil, fmt.Errorf("-transport http needs -hosts (comma-separated sweepworker addresses)")
		}
		var list []string
		for _, h := range strings.Split(hosts, ",") {
			if h = strings.TrimSpace(h); h != "" {
				list = append(list, h)
			}
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("-hosts contained no usable addresses: %q", hosts)
		}
		return &dist.HTTPTransport{Hosts: list}, nil
	default:
		return nil, fmt.Errorf("unknown -transport %q (want exec or http)", kind)
	}
}

// parseChaosMenu resolves the -chaos flag into a fault menu.
func parseChaosMenu(spec string) ([]dist.FaultKind, error) {
	if spec == "all" {
		return dist.AllFaultKinds(), nil
	}
	var menu []dist.FaultKind
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := dist.ParseFaultKind(name)
		if err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		menu = append(menu, k)
	}
	if len(menu) == 0 {
		return nil, fmt.Errorf("-chaos contained no fault kinds: %q", spec)
	}
	return menu, nil
}
