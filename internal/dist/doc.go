// Package dist runs a scenario sweep across multiple worker processes and
// merges their result streams back into the single-process evaluation
// contract: the merged NDJSON stream and final aggregate of a distributed
// run are byte-identical to what one process streaming the same JobSource
// would have produced — including when workers die mid-sweep.
//
// The design takes Kopetz's system-of-systems framing seriously: once the
// evaluation spans processes, the evaluation itself is a composite of
// independently-failing constituents, so a lost worker is an expected event
// the coordinator absorbs, not an assertion failure.  Three mechanisms make
// that safe:
//
// # Deterministic sharding (the shard key contract)
//
// Work is partitioned by stable variant key, never by arrival order.  Every
// job has a canonical identity, scenarios.Job.Key — scenario name, effective
// duration, full options label — and an owner shard, scenarios.Job.Shard(n),
// the FNV-1a hash of that key mod the worker count.  Both are pure functions
// of the variant, independent of process, platform and Go version, so the
// coordinator and every worker agree on the partition without communicating:
// a worker receives only a ShardSpec (index, total, and a skip count) and
// wraps its own enumeration of the same source in scenarios.ShardSource.
// The contract requires variant keys to be unique within a source (every
// sweep generator guarantees this); the coordinator rejects sources that
// violate it.
//
// # Coordinated merge
//
// The Coordinator spawns one worker per shard through a small Transport
// interface.  Every worker is the same shard evaluator, WorkerServer.Serve,
// and every worker's input is the same JSON ShardSpec, read by the one
// decoder DecodeShardSpec.  Four transports ship; they differ only in how
// the spec and the NDJSON stream travel, so the coordinator's merge path is
// identical whichever carries the bytes:
//
//   - ExecTransport runs local `sweepworker -stdio` child processes, the
//     spec written to stdin and the stream read from stdout; Kill is
//     SIGKILL.
//   - LocalTransport runs WorkerServer in-process over an io.Pipe; Kill
//     cancels the engine's context.  No processes, no sockets — the fast
//     path for tests and single-machine runs.
//   - HTTPTransport POSTs the ShardSpec (shard index, total, skip) as JSON
//     to long-running sweepworker daemons (see
//     cmd/sweepworker) and reads the chunked NDJSON response; Kill cancels
//     the request context, which tears down the connection mid-stream.
//     Hosts are assigned round-robin by shard index, so a re-queued shard
//     lands on the same host list deterministically.
//   - FaultTransport wraps any of the above and injects seeded,
//     deterministic faults (see below).
//
// Each worker streams RunReport NDJSON lines; the coordinator
// maps each line back to the job it enumerated itself, rebuilds the
// scenarios.Result, and merges it.  Run lines travel without reflection: one
// hand-written writer, RunReport.AppendJSON (fuzz-proven byte-identical to
// json.Encoder.Encode), and a canonical decode in ParseResultLine that hands
// any other layout to its encoding/json fallback, the reference decoder.  Its state is one table of variants in
// source order (job, owner shard, proved flag, rebuilt result) and one record
// per shard (counts, attempt, worker, retirement).  A variant already proved
// is dropped; the rest are folded into the one Accumulator that is the final
// aggregate and released to the ResultSink in global source order.
//
// The shard that owns the first variant starts first and alone; the others
// start once the main loop has handled its first event (a run line, its
// exit, or a retry).  The ordered stream can release nothing before that
// shard reports, and when every shard runs on one host their workers keep
// every CPU busy, so a line read then waits for the Go scheduler's next
// network poll, which falls anywhere in a window of milliseconds.
//
// # Re-queue and idempotence
//
// Worker loss is detected two ways: process exit with the shard incomplete,
// and a per-shard stall timeout (no output line for StallTimeout).  Either
// way the shard is re-queued: a replacement worker is spawned for the same
// shard, its ShardSpec.Skip counting the shard's leading variants, in source
// order, that the coordinator already holds.  The worker drops that many
// jobs of its shard source without running or reporting them, so it resumes
// where the proved prefix ends and only the unfinished variants cost
// simulation time; no result travels back to a worker.  Skip counts only
// the leading run of proved variants, so a proved variant after an
// unproved one is run again.  Re-delivery is harmless by construction:
// results are idempotent per variant, and the coordinator marks every
// variant it has merged as proved, so a duplicate — from a resumed shard or
// a slow-then-recovered worker — is dropped on arrival.  Every variant
// therefore reaches the output exactly once, in source order, whatever the
// failure history.
//
// # Retry budgets and backoff
//
// Options.MaxAttempts bounds how many workers (first plus replacements) a
// shard may consume before it fails; a corrupt or alien result line poisons
// only the attempt that produced it, never the whole sweep.  Replacement
// spawns are delayed by seeded exponential backoff with jitter
// (Options.RetryBackoff doubling per attempt up to Options.RetryBackoffMax,
// scaled by a jitter factor in [0.5, 1.5) drawn from Options.Seed) so a
// struggling host is not hammered, and the same seed replays the same delay
// schedule.  A shard that exhausts its budget fails the sweep with
// ErrShardFailed — a *ShardError naming the shard, the attempt count and the
// number of unfinished variants — unless Options.AllowPartial is set, in
// which case the shard is retired: its variants are skipped in the ordered
// release, the sweep completes, Outcome.Partial is true, and
// Outcome.Shards records per-shard completion (done/total counts, attempts,
// final error) so the caller can see exactly what is missing.  When every
// shard completes, the partial machinery leaves no trace: the output stays
// byte-identical to the single-process run, which remains the hard
// invariant.
//
// # Deterministic fault injection
//
// FaultTransport is the chaos layer: it wraps any inner Transport and
// sabotages attempts from a seeded menu — spawn-refusal, drop (stream
// severed between lines), corrupt (one line mangled to non-JSON), truncate
// (stream ends mid-line), duplicate (one line delivered twice), stall
// (stream stops and never closes; only the stall timeout recovers it), and
// slow (lines dripped with a delay).  Every fault decision comes from
// rand.New(rand.NewSource(Seed ^ shard<<32 ^ attempt)), so a fault schedule is a
// pure function of (Seed, shard, attempt): re-running with the same seed
// replays exactly the same sabotage, which turns any chaos-found bug into a
// deterministic regression test.  The chaos matrix test drives every fault
// kind through FaultTransport(HTTPTransport) on loopback and requires
// byte-identical output; `sweepd -chaos <kinds> -chaos-seed N` exposes the
// same layer on the command line.
package dist
