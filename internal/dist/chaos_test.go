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
// process — no graceful flush, a partial line on the wire is possible — so
// this covers the whole re-queue path: death detection, seeding the
// replacement with the proved prefix, and deduplicating re-deliveries.
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

	const victim = 0
	workers := make(map[int]Worker)
	victimResults := 0
	killed := false
	coord, err := New(Options{
		Workers:     3,
		MaxAttempts: 3,
		Transport:   &ExecTransport{Argv: []string{workerBin, "-stdio", "-sweep-size", size}},
		Hooks: Hooks{
			OnSpawn: func(shard, attempt int, w Worker) { workers[shard] = w },
			OnResult: func(shard, attempt int, key string) {
				if shard != victim || attempt != 0 || killed {
					return
				}
				victimResults++
				// Kill after a handful of results: late enough that the
				// replacement has a proved prefix to seed, early enough that
				// real work remains.
				if victimResults == 5 {
					killed = true
					if err := workers[victim].Kill(); err != nil {
						t.Errorf("SIGKILL: %v", err)
					}
				}
			},
		},
	})
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

	if !killed {
		t.Fatal("no worker was killed; the chaos never happened")
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("distributed output with a SIGKILLed worker differs from single-process output:\n--- single (%d bytes) ---\n%.2000s\n--- merged (%d bytes) ---\n%.2000s",
			want.Len(), want.String(), got.Len(), got.String())
	}
}
