package dist

import (
	"context"
	"io"
	"strconv"
)

// ShardSpec addresses one unit of distributed work: the Index-th of Total
// deterministic variant shards, and how many of its leading variants the
// coordinator already holds (zero on a first attempt, the proved prefix on
// a re-queue).
// The JSON form is the worker's whole input on every transport: the body of
// an HTTPTransport shard request and the stdin of an ExecTransport worker;
// DecodeShardSpec is its one decoder.
type ShardSpec struct {
	// Index is the 0-based shard index.
	Index int `json:"index"`
	// Total is the shard count; every worker of one sweep shares it.
	Total int `json:"total"`
	// Skip is the number of leading variants of the shard, in source
	// order, that the worker drops without running or reporting them: a
	// replacement worker resumes after its predecessor's proved prefix.
	Skip int `json:"skip,omitempty"`
}

// String renders the spec as "i/n", the form error messages name shards by.
func (s ShardSpec) String() string { return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Total) }

// Worker is one running constituent of a distributed sweep, however the
// Transport realizes it (child process, goroutine, remote host).
type Worker interface {
	// Output is the worker's NDJSON result stream.  It yields EOF when the
	// worker finishes or dies; the reader must drain it before Wait.
	Output() io.Reader
	// Wait blocks until the worker has terminated and returns its terminal
	// error, if any.  A non-nil error with the shard complete is ignorable;
	// the coordinator decides from its own bookkeeping, not the exit code.
	Wait() error
	// Kill forcibly terminates the worker (SIGKILL for process workers).
	// The coordinator uses it for stalled workers and for cancellation;
	// killing an already-dead worker is harmless.
	Kill() error
}

// Transport spawns workers.  It is deliberately small — spawn and stream —
// so that its implementations are interchangeable under the same
// Coordinator: child processes (ExecTransport), in-process workers
// (LocalTransport), remote worker daemons over HTTP (HTTPTransport), and
// FaultTransport, which wraps any of them in seeded fault injection.  Start
// must not block on the worker finishing; the context cancels the worker's
// whole lifetime.
type Transport interface {
	Start(ctx context.Context, spec ShardSpec) (Worker, error)
}
