package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Error("bad flags should be an error")
	}
	if err := run([]string{"-workers", "0"}, io.Discard); err == nil {
		t.Error("-workers 0 should be rejected")
	}
	if err := run([]string{"-sweep-size", "enormous"}, io.Discard); err == nil {
		t.Error("unknown -sweep-size should be rejected")
	}
	if err := run([]string{"-n", "99"}, io.Discard); err == nil {
		t.Error("unknown scenario number should be rejected")
	}
	if err := run([]string{"-worker", "/definitely/not/a/binary"}, io.Discard); err == nil {
		t.Error("an unstartable worker binary should fail the run")
	}
}

// TestRunDistributedSummary drives the full command path against real worker
// processes: a 2-worker distributed family sweep whose rendered summary must
// match the single-process `scenarios -sweep` summary exactly.
func TestRunDistributedSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice across processes")
	}
	dir := t.TempDir()
	for _, name := range []string{"scenarios", "sweepworker"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "repro/cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}

	single := exec.Command(filepath.Join(dir, "scenarios"), "-sweep", "-n", "7")
	var want bytes.Buffer
	single.Stdout = &want
	if err := single.Run(); err != nil {
		t.Fatalf("single-process sweep: %v", err)
	}

	var got bytes.Buffer
	if err := run([]string{"-worker", filepath.Join(dir, "sweepworker"), "-workers", "2", "-n", "7"}, &got); err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("distributed summary differs from single-process summary:\n--- single ---\n%s--- distributed ---\n%s", want.String(), got.String())
	}
	if !strings.Contains(got.String(), "Sweep: 12 runs") {
		t.Errorf("summary should cover the 12-variant family, got:\n%s", got.String())
	}
}

// TestRunResilienceFlagValidation pins the new transport/resilience flags.
func TestRunResilienceFlagValidation(t *testing.T) {
	if err := run([]string{"-max-attempts", "0"}, io.Discard); err == nil {
		t.Error("-max-attempts 0 should be rejected")
	}
	if err := run([]string{"-transport", "carrier-pigeon"}, io.Discard); err == nil {
		t.Error("an unknown -transport should be rejected")
	}
	if err := run([]string{"-transport", "http"}, io.Discard); err == nil {
		t.Error("-transport http without -hosts should be rejected")
	}
	if err := run([]string{"-transport", "http", "-hosts", " , "}, io.Discard); err == nil {
		t.Error("-hosts with no usable addresses should be rejected")
	}
	if err := run([]string{"-chaos", "meteor-strike"}, io.Discard); err == nil {
		t.Error("an unknown -chaos kind should be rejected")
	}
}

// expectedSummary renders the summary the command must print for a complete
// family sweep, from an in-process evaluation of the same selection.
func expectedSummary(t *testing.T) string {
	t.Helper()
	source, err := scenarios.SweepSourceFor("default", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	engine := scenarios.NewEngine(scenarios.WithRetention(scenarios.SummaryOnly))
	var acc scenarios.Accumulator
	if err := engine.Stream(context.Background(), source(), &acc); err != nil {
		t.Fatal(err)
	}
	rep := dist.NewAggregateReport(&acc)
	return fmt.Sprintf("Sweep: %d runs, %d collisions, %d early terminations\nAggregate: %s\nInterpretation: %s\n",
		rep.Runs, rep.Collisions, rep.EarlyTerminations, rep.Aggregate, rep.Aggregate.CompositionEvidence())
}

// sweepworkerServer mounts the scenario-7 worker daemon handler on loopback.
func sweepworkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	source, err := scenarios.SweepSourceFor("default", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(dist.DefaultShardPath, &dist.WorkerServer{Source: source})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunHTTPDistributedSummary drives the full command path over the HTTP
// transport against a loopback worker daemon: the rendered summary must be
// exactly the single-process one.
func TestRunHTTPDistributedSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice, once over loopback HTTP")
	}
	srv := sweepworkerServer(t)
	var got bytes.Buffer
	if err := run([]string{"-transport", "http", "-hosts", srv.URL, "-workers", "3", "-n", "7"}, &got); err != nil {
		t.Fatalf("http distributed sweep: %v", err)
	}
	if want := expectedSummary(t); got.String() != want {
		t.Errorf("http summary differs from single-process summary:\n--- single ---\n%s--- http ---\n%s", want, got.String())
	}
}

// TestRunChaosHTTPSummary turns on the full fault menu over the HTTP
// transport; with budget to retry, the summary must still come out exactly
// single-process — the -chaos acceptance path through the CLI.
func TestRunChaosHTTPSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family under chaos over loopback HTTP")
	}
	srv := sweepworkerServer(t)
	// The race detector slows honest workers ~10×; a too-tight stall budget
	// would kill them and burn the attempt budget on false positives.
	stall := "2s"
	if raceEnabled {
		stall = "20s"
	}
	var got bytes.Buffer
	err := run([]string{
		"-transport", "http", "-hosts", srv.URL, "-workers", "3", "-n", "7",
		"-chaos", "all", "-chaos-seed", "2",
		"-max-attempts", "4", "-backoff", "1ms", "-stall-timeout", stall,
	}, &got)
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	if want := expectedSummary(t); got.String() != want {
		t.Errorf("chaos summary differs from single-process summary:\n--- single ---\n%s--- chaos ---\n%s", want, got.String())
	}
}

// TestRunAllowPartialSummary points one of three shards at a dead host: with
// -allow-partial the run must succeed and the summary must carry the PARTIAL
// provenance naming the dead shard.
func TestRunAllowPartialSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two live shards of the scenario-7 family over loopback HTTP")
	}
	srv := sweepworkerServer(t)
	var got bytes.Buffer
	err := run([]string{
		"-transport", "http", "-hosts", srv.URL + ",127.0.0.1:1", "-workers", "3", "-n", "7",
		"-allow-partial", "-max-attempts", "2", "-backoff", "1ms",
	}, &got)
	if err != nil {
		t.Fatalf("-allow-partial must absorb the dead host, got: %v", err)
	}
	out := got.String()
	if !strings.Contains(out, "PARTIAL:") {
		t.Errorf("summary of a degraded run should be flagged PARTIAL, got:\n%s", out)
	}
	if !strings.Contains(out, "shard 1/3:") {
		t.Errorf("the degraded summary should name dead shard 1, got:\n%s", out)
	}
	if !strings.Contains(out, "2 attempt(s)") {
		t.Errorf("the degraded summary should report the spent budget, got:\n%s", out)
	}
}
