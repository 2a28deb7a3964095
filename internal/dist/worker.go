package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/scenarios"
)

// maxShardSpecBytes bounds an encoded ShardSpec.  A seed of every variant of
// the 1296-variant huge sweep is on the order of a megabyte; 64 MiB of
// headroom rejects runaway input without constraining real sweeps.
const maxShardSpecBytes = 64 << 20

// DecodeShardSpec reads one JSON ShardSpec — the body of an HTTP shard
// request, or the stdin of a `sweepworker -stdio` process — of at most
// maxShardSpecBytes and checks that it addresses a real shard.
func DecodeShardSpec(r io.Reader) (ShardSpec, error) {
	var spec ShardSpec
	if err := json.NewDecoder(io.LimitReader(r, maxShardSpecBytes)).Decode(&spec); err != nil {
		return ShardSpec{}, fmt.Errorf("dist: malformed shard spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// validate checks 0 <= Index < Total.
func (s ShardSpec) validate() error {
	if s.Total < 1 || s.Index < 0 || s.Index >= s.Total {
		return fmt.Errorf("dist: invalid shard %d/%d", s.Index, s.Total)
	}
	return nil
}

// WorkerServer is the one shard evaluator of a distributed sweep.  Every
// transport runs it: HTTPTransport reaches it through ServeHTTP on a
// sweepworker daemon, ExecTransport through a `sweepworker -stdio` child
// process, and LocalTransport calls Serve in-process.
//
// The server and the coordinator must be configured with the same sweep
// selection: a mismatched server reports variants the coordinator never
// enumerated, which poisons the attempt and, once the budget is exhausted,
// fails the shard with the offending variant named.
type WorkerServer struct {
	// Source returns a fresh enumeration of the full job stream, exactly as
	// every worker of the sweep enumerates it.  Required.
	Source func() scenarios.JobSource
	// Workers sizes each shard's engine pool (non-positive defaults to
	// GOMAXPROCS).
	Workers int
}

// Serve evaluates one shard into w as the worker protocol: one RunReport
// line per variant of the shard, in source order, then the aggregate
// trailer.  The engine's result cache is seeded with spec.Seed, so a
// re-queued shard replays its proved prefix without simulating it.  An
// invalid spec is rejected before anything is written; an evaluation error
// (including ctx cancellation) ends the stream without the trailer.
func (s *WorkerServer) Serve(ctx context.Context, spec ShardSpec, w io.Writer) error {
	if s.Source == nil {
		return errors.New("dist: WorkerServer needs a Source")
	}
	if err := spec.validate(); err != nil {
		return err
	}
	engine := scenarios.NewEngine(
		scenarios.WithWorkers(s.Workers),
		scenarios.WithRetention(scenarios.SummaryOnly),
		scenarios.WithResultCache(),
	)
	for _, p := range spec.Seed {
		engine.SeedResult(p.Job(), p.Result)
	}
	var acc scenarios.Accumulator
	src := scenarios.ShardSource(s.Source(), spec.Index, spec.Total)
	if err := engine.Stream(ctx, src, scenarios.Tee(&acc, RunLineSink(w))); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(NewAggregateReport(&acc))
}
