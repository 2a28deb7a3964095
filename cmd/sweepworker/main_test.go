package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, nil, io.Discard); err == nil {
		t.Error("bad flags should be an error")
	}
	if err := run([]string{"-sweep-size", "enormous"}, nil, io.Discard); err == nil {
		t.Error("unknown -sweep-size should be rejected")
	}
	if err := run([]string{"-n", "99"}, nil, io.Discard); err == nil {
		t.Error("unknown scenario number should be rejected")
	}
	if err := run([]string{"-addr", "definitely-not-an-address"}, nil, io.Discard); err == nil {
		t.Error("an unbindable -addr should fail the daemon")
	}
	for _, spec := range []string{"", "not json", `{"index":3,"total":3}`, `{"index":0,"total":0}`} {
		var out bytes.Buffer
		if err := run([]string{"-stdio", "-n", "7"}, strings.NewReader(spec), &out); err == nil {
			t.Errorf("-stdio with spec %q should fail", spec)
		}
		if out.Len() != 0 {
			t.Errorf("-stdio with spec %q wrote %d bytes to stdout", spec, out.Len())
		}
	}
}

// TestHandlerServesShardAndHealth mounts the daemon's handler on a loopback
// server and checks both endpoints: /healthz answers probes, /shard streams
// the worker protocol for a valid spec and rejects non-POSTs.
func TestHandlerServesShardAndHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates one shard of the scenario-7 family")
	}
	source, err := scenarios.SweepSourceFor("default", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(&dist.WorkerServer{Source: source}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %s %q, want 200 ok", resp.Status, body)
	}

	if resp, err := http.Get(srv.URL + dist.DefaultShardPath); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %s, want 405", dist.DefaultShardPath, resp.Status)
		}
	}

	spec, _ := json.Marshal(dist.ShardSpec{Index: 0, Total: 2})
	resp, err = http.Post(srv.URL+dist.DefaultShardPath, "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard request = %s, want 200", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected run lines plus a trailer, got %d line(s)", len(lines))
	}
	for i, line := range lines {
		_, ok, err := dist.ParseResultLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
		if wantRun := i < len(lines)-1; ok != wantRun {
			t.Errorf("line %d: run=%v, want %v (trailer must be last and only last)", i, ok, wantRun)
		}
	}
}

// stdioShard runs `sweepworker -stdio` in-process on the corrected
// scenario-7 family for one spec and returns its stdout.
func stdioShard(t *testing.T, spec dist.ShardSpec) []byte {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-stdio", "-n", "7", "-corrected"}, bytes.NewReader(body), &out); err != nil {
		t.Fatalf("-stdio shard %s: %v", spec, err)
	}
	return out.Bytes()
}

// splitStream splits a worker stream into its run lines and aggregate trailer.
func splitStream(t *testing.T, stream []byte) ([]string, dist.AggregateReport) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var agg dist.AggregateReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &agg); err != nil {
		t.Fatalf("final line is not an aggregate trailer: %v", err)
	}
	return lines[:len(lines)-1], agg
}

// TestStdioShardPartition runs every shard of a 3-way split through
// `sweepworker -stdio` and checks the shard streams are disjoint, cover the
// single-process (`scenarios -sweep -stream`) run lines exactly, and sum to
// the same aggregate — the worker-side half of the distributed contract.
func TestStdioShardPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario-7 corrected family twice")
	}
	source, err := scenarios.SweepSourceFor("default", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	enc := json.NewEncoder(&full)
	var acc scenarios.Accumulator
	err = scenarios.NewEngine(scenarios.WithRetention(scenarios.SummaryOnly)).Stream(context.Background(), source(),
		scenarios.Tee(&acc, scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
			return enc.Encode(dist.NewRunReport(sr))
		})))
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	fullAgg := dist.NewAggregateReport(&acc)
	want := make(map[string]string) // name -> run line
	for _, line := range strings.Split(strings.TrimSpace(full.String()), "\n") {
		var r dist.RunReport
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("single-process run line: %v", err)
		}
		want[r.Name] = line
	}

	const n = 3
	got := make(map[string]string)
	var summed dist.AggregateReport
	for shard := 0; shard < n; shard++ {
		lines, agg := splitStream(t, stdioShard(t, dist.ShardSpec{Index: shard, Total: n}))
		summed.Runs += agg.Runs
		summed.Collisions += agg.Collisions
		summed.EarlyTerminations += agg.EarlyTerminations
		summed.Aggregate.Hits += agg.Aggregate.Hits
		summed.Aggregate.FalseNegatives += agg.Aggregate.FalseNegatives
		summed.Aggregate.FalsePositives += agg.Aggregate.FalsePositives
		for _, line := range lines {
			var r dist.RunReport
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("shard %d/%d run line: %v", shard, n, err)
			}
			if _, dup := got[r.Name]; dup {
				t.Errorf("variant %s appears in two shards; the partition must be disjoint", r.Name)
			}
			got[r.Name] = line
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shards delivered %d variants, single-process run %d", len(got), len(want))
	}
	for name, line := range want {
		if got[name] != line {
			t.Errorf("variant %s: shard line %s != single-process line %s", name, got[name], line)
		}
	}
	if summed.Runs != fullAgg.Runs || summed.Aggregate != fullAgg.Aggregate ||
		summed.Collisions != fullAgg.Collisions || summed.EarlyTerminations != fullAgg.EarlyTerminations {
		t.Errorf("summed shard aggregates %+v != single-process aggregate %+v", summed, fullAgg)
	}
}

// TestStdioSeedReplay replays a whole stdio run from its spec's Seed: with
// every variant proved, the seeded output must be byte-identical to the
// unseeded one.
func TestStdioSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario-7 corrected family")
	}
	first := stdioShard(t, dist.ShardSpec{Index: 0, Total: 1})

	// Rebuild ProvedResults from the first stream, exactly as the
	// coordinator does: enumerate the same source, map each report back to
	// its job, and reconstitute the summary-only Result.
	source, err := scenarios.SweepSourceFor("default", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]scenarios.Job)
	for src := source(); ; {
		job, ok := src.Next()
		if !ok {
			break
		}
		byName[job.Scenario.Name] = job
	}
	lines, _ := splitStream(t, first)
	var proved []dist.ProvedResult
	for _, line := range lines {
		rep, ok, err := dist.ParseResultLine([]byte(line))
		if err != nil || !ok {
			t.Fatalf("run line %q: ok=%v err=%v", line, ok, err)
		}
		job, found := byName[rep.Name]
		if !found {
			t.Fatalf("first run reported unknown variant %s", rep.Name)
		}
		proved = append(proved, dist.ProvedResult{Options: job.Options, Result: rep.Result(job)})
	}
	if len(proved) != len(byName) {
		t.Fatalf("first run proved %d of %d variants", len(proved), len(byName))
	}

	second := stdioShard(t, dist.ShardSpec{Index: 0, Total: 1, Seed: proved})
	if !bytes.Equal(first, second) {
		t.Errorf("seeded replay differs from the unseeded run:\n--- unseeded ---\n%s\n--- seeded ---\n%s", first, second)
	}

	// The replay must come from the seed, not from re-simulation: a marked
	// seed entry shows up in the output verbatim.
	proved[0].Result.Summary.Hits += 1000
	marked, _ := splitStream(t, stdioShard(t, dist.ShardSpec{Index: 0, Total: 1, Seed: proved}))
	rep, _, err := dist.ParseResultLine([]byte(marked[0]))
	if err != nil || rep.Hits != proved[0].Result.Summary.Hits {
		t.Errorf("first variant replayed hits=%d (err %v), want the seeded %d", rep.Hits, err, proved[0].Result.Summary.Hits)
	}
}
