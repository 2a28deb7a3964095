// Command sweepworker is the worker of a distributed sweep.  Every shard it
// evaluates goes through the one shard evaluator, dist.WorkerServer: the
// input is a JSON dist.ShardSpec — shard index, total, and the
// already-proved results to seed the engine's cache with — and the output
// is the exact `scenarios -stream` NDJSON protocol: one run line per
// variant of the shard, then the aggregate trailer line.
//
// It runs in one of two modes:
//
//   - As an HTTP daemon (the default), a long-running stdlib net/http
//     server: a coordinator (cmd/sweepd with -transport http, or any
//     dist.HTTPTransport) POSTs the spec to /shard and the response streams
//     the protocol as a chunked body, flushed line by line.  /healthz
//     answers readiness probes.  The resolved listen address is printed on
//     stdout once the socket is bound (useful with -addr 127.0.0.1:0), then
//     the daemon serves until killed.
//   - With -stdio, as one shard process: it reads one spec from stdin,
//     serves it to stdout and exits.  cmd/sweepd with -transport exec (any
//     dist.ExecTransport) spawns it once per shard attempt.  An evaluation
//     error exits non-zero with the error on stderr.
//
// The worker and its coordinator must agree on the sweep: both sides
// resolve the same -sweep-size/-n/-corrected selection through
// scenarios.SweepSourceFor, which is the whole coordination protocol — the
// shard partition is a pure function of the variant keys.  A mismatched
// worker reports variants the coordinator never enumerated; the coordinator
// poisons those attempts and, once the shard's budget is exhausted, fails
// the shard with the alien variant named.
//
// Usage:
//
//	sweepworker [-stdio | -addr host:port] [-sweep-size s] [-n number]
//	            [-corrected] [-workers n]
//
// By hand, one shard of three:
//
//	echo '{"index":0,"total":3}' | sweepworker -stdio
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("sweepworker", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8571", "listen address (host:port; port 0 picks a free port, printed on stdout)")
	stdio := fs.Bool("stdio", false, "serve one shard instead of listening: read a JSON shard spec from stdin, stream its NDJSON to stdout, exit")
	sweepSize := fs.String("sweep-size", "default", "sweep grid preset, as in scenarios -sweep-size")
	number := fs.Int("n", 0, "serve only the given thesis scenario's family (0 = all)")
	corrected := fs.Bool("corrected", false, "ablation: serve only the corrected configuration")
	workers := fs.Int("workers", 0, "engine pool size per shard (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	source, err := scenarios.SweepSourceFor(*sweepSize, *number, *corrected)
	if err != nil {
		return err
	}
	srv := &dist.WorkerServer{Source: source, Workers: *workers}

	if *stdio {
		spec, err := dist.DecodeShardSpec(stdin)
		if err != nil {
			return err
		}
		return srv.Serve(context.Background(), spec, w)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("sweepworker: listen %s: %w", *addr, err)
	}
	fmt.Fprintf(w, "sweepworker: serving %q sweep shards on http://%s%s\n",
		*sweepSize, ln.Addr(), dist.DefaultShardPath)
	return (&http.Server{Handler: newHandler(srv)}).Serve(ln)
}

// newHandler builds the daemon's mux: the shard evaluator plus a readiness
// probe, split out so tests can mount it on httptest servers.
func newHandler(srv *dist.WorkerServer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(dist.DefaultShardPath, srv)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
