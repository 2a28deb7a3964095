package dist

import (
	"context"
	"errors"
	"io"
)

// LocalTransport runs each shard through an in-process WorkerServer writing
// the worker protocol into a pipe.  It exercises every coordinator code path
// — sharded enumeration, seeded caches, kills, re-queues — without spawning
// processes, so coordinator logic is testable (and benchmarkable) at full
// fidelity; ExecTransport is the same evaluator behind a process boundary.
type LocalTransport WorkerServer

// errWorkerKilled is the terminal error of a killed local worker.
var errWorkerKilled = errors.New("dist: local worker killed")

// Start implements Transport.
func (t *LocalTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if t.Source == nil {
		return nil, errors.New("dist: LocalTransport needs a Source")
	}
	wctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	w := &localWorker{out: pr, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.err = (*WorkerServer)(t).Serve(wctx, spec, pw)
		pw.Close()
	}()
	return w, nil
}

// localWorker is one in-process shard evaluation.
type localWorker struct {
	out    *io.PipeReader
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// Output implements Worker.
func (w *localWorker) Output() io.Reader { return w.out }

// Wait implements Worker.
func (w *localWorker) Wait() error {
	<-w.done
	return w.err
}

// Kill implements Worker: the stream stops abruptly — the reader sees the
// kill error instead of a clean EOF, and any in-flight write fails — which
// is as close to SIGKILL as an in-process worker gets.
func (w *localWorker) Kill() error {
	w.cancel()
	return w.out.CloseWithError(errWorkerKilled)
}
