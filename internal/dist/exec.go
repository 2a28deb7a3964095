package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
)

// ExecTransport runs each shard as a local child process: a
// `sweepworker -stdio` worker reads the JSON ShardSpec on stdin and streams
// the worker protocol on stdout.  It is the "local os/exec first" transport
// of the dist design; anything that can spawn-and-stream the same protocol
// can replace it.
type ExecTransport struct {
	// Argv is the worker command line, e.g. ["./sweepworker", "-stdio",
	// "-sweep-size", "huge"].  It is run unchanged for every shard; the
	// shard and its skip count travel on stdin.
	Argv []string
	// Dir is the working directory for workers ("" inherits the
	// coordinator's).
	Dir string
	// Stderr receives the workers' stderr (nil discards it): worker
	// diagnostics must never interleave with the protocol on stdout.
	Stderr io.Writer
}

// Start implements Transport.
func (t *ExecTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if len(t.Argv) == 0 {
		return nil, fmt.Errorf("dist: ExecTransport needs a worker command")
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding shard %s spec: %w", spec, err)
	}
	cmd := exec.CommandContext(ctx, t.Argv[0], t.Argv[1:]...)
	cmd.Dir = t.Dir
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stderr = t.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: starting worker shard %s: %w", spec, err)
	}
	return &execWorker{cmd: cmd, out: stdout}, nil
}

// execWorker wraps one child process.
type execWorker struct {
	cmd *exec.Cmd
	out io.ReadCloser
}

// Output implements Worker.
func (w *execWorker) Output() io.Reader { return w.out }

// Wait implements Worker.
func (w *execWorker) Wait() error { return w.cmd.Wait() }

// Kill implements Worker, delivering SIGKILL: worker death must look exactly
// like the crash it simulates, with no chance for a graceful flush.
func (w *execWorker) Kill() error {
	if w.cmd.Process == nil {
		return nil
	}
	return w.cmd.Process.Kill()
}
