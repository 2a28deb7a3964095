package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/scenarios"
)

// buildBinary compiles the named command into a temp dir, so the chaos test
// exercises the real worker and reference binaries, not in-process
// stand-ins.
func buildBinary(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestChaosSIGKILLWorker is the end-to-end fault-tolerance test: three real
// worker processes over the default sweep, one SIGKILLed mid-shard, and the
// merged NDJSON stream plus final aggregate must still be byte-identical to
// the single-process run.  The kill is a true SIGKILL delivered to a child
// process — no graceful flush — so this covers the whole re-queue path:
// death detection, and a replacement process that resumes after the proved
// prefix.
func TestChaosSIGKILLWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 120-variant default sweep twice across processes")
	}
	scenariosBin := buildBinary(t, "scenarios")
	workerBin := buildBinary(t, "sweepworker")

	// The acceptance-scale run — the 1296-variant huge sweep — takes minutes
	// on a small machine, so the default is the 120-variant grid; set
	// REPRO_CHAOS_SWEEP=huge to run the full criterion.
	size := "default"
	if s := os.Getenv("REPRO_CHAOS_SWEEP"); s != "" {
		size = s
	}

	// Single-process reference: the ordinary scenarios CLI.
	single := exec.Command(scenariosBin, "-sweep", "-sweep-size", size, "-stream")
	var want bytes.Buffer
	single.Stdout = &want
	if err := single.Run(); err != nil {
		t.Fatalf("single-process sweep: %v", err)
	}

	sw, err := scenarios.SweepBySize(size)
	if err != nil {
		t.Fatal(err)
	}

	// Kill shard 0's first worker after five results: late enough that the
	// replacement has a proved prefix to skip, early enough that real work
	// remains.
	tr := &cutTransport{
		inner: &ExecTransport{Argv: []string{workerBin, "-stdio", "-sweep-size", size}},
		cut:   0,
		lines: 5,
	}
	coord, err := New(Options{Workers: 3, MaxAttempts: 3, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	acc, err := coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(sr scenarios.StreamResult) error {
			return enc.Encode(NewRunReport(sr))
		}))
	if err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}
	if err := enc.Encode(acc.Report()); err != nil {
		t.Fatal(err)
	}

	if len(tr.skips) == 0 {
		t.Fatal("no worker was killed and replaced; the chaos never happened")
	}
	if tr.skips[0] != tr.lines {
		t.Errorf("the replacement skips %d variants, want the %d its predecessor delivered", tr.skips[0], tr.lines)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("distributed output with a SIGKILLed worker differs from single-process output:\n--- single (%d bytes) ---\n%.2000s\n--- merged (%d bytes) ---\n%.2000s",
			want.Len(), want.String(), got.Len(), got.String())
	}
}
