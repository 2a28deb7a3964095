package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/scenarios"
)

// TestDetailGolden pins the rendered violation tables with per-detection
// classification details — every interval of every monitor of the ten thesis
// scenarios, with and without the seeded defects — byte for byte.
func TestDetailGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/detail.golden", []string{"-detail"}},
		{"testdata/corrected-detail.golden", []string{"-corrected", "-detail"}},
	} {
		var got bytes.Buffer
		if err := run(tc.args, &got); err != nil {
			t.Fatalf("run(%v): %v", tc.args, err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("scenarios %v output differs from %s", tc.args, tc.golden)
		}
	}
}

func TestRunSingleScenario(t *testing.T) {
	if err := run([]string{"-n", "7"}, io.Discard); err != nil {
		t.Fatalf("run(-n 7): %v", err)
	}
}

// TestRunUnknownScenario checks that a bad selection is an error that
// writes nothing, even when -table53 or -goals would otherwise print first.
func TestRunUnknownScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "99"},
		{"-sweep", "-n", "99"},
		{"-table53", "-n", "99"},
		{"-goals", "-n", "99"},
		{"-table53", "-sweep", "-sweep-size", "bogus"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should be an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote %d bytes before failing, want none", args, out.Len())
		}
	}
}

// TestRunTablesAndGoals pins the Table 5.3 monitoring locations, the goal
// catalogue and scenario 7's classification detail byte for byte.
func TestRunTablesAndGoals(t *testing.T) {
	args := []string{"-n", "7", "-table53", "-goals", "-detail"}
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
		t.Fatalf("run with table/goal flags: %v", err)
	}
	want, err := os.ReadFile("testdata/table53-goals-detail-n7.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scenarios %v output differs from testdata/table53-goals-detail-n7.golden", args)
	}
}

func TestRunCorrectedFlag(t *testing.T) {
	if err := run([]string{"-n", "7", "-corrected"}, io.Discard); err != nil {
		t.Fatalf("run(-corrected): %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flags should be an error")
	}
}

func TestRunJSONRejectsRenderedTables(t *testing.T) {
	if err := run([]string{"-n", "7", "-json", "-table53"}, io.Discard); err == nil {
		t.Fatal("-json with -table53 would corrupt the JSON stream and must be rejected")
	}
	if err := run([]string{"-n", "7", "-json", "-goals"}, io.Discard); err == nil {
		t.Fatal("-json with -goals would corrupt the JSON stream and must be rejected")
	}
}

// TestRunSweepCorrected checks that -corrected narrows the sweep to the
// ablation configuration: only corrected variants run, and none collide.
func TestRunSweepCorrected(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs 6 full scenario simulations")
	}
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "-n", "7", "-corrected", "-json"}, &buf); err != nil {
		t.Fatalf("run(-sweep -n 7 -corrected -json): %v", err)
	}
	var rep dist.AggregateReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Runs != 6 {
		t.Fatalf("corrected sweep of one family should run 6 variants, got %d", rep.Runs)
	}
	for _, r := range rep.Results {
		if !r.Corrected {
			t.Errorf("variant %s ran with seeded defects; -corrected must narrow the sweep", r.Name)
		}
		if r.Collision {
			t.Errorf("corrected variant %s should avoid the collision", r.Name)
		}
	}
}

func TestRunJSONSingleScenario(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "7", "-workers", "2", "-json"}, &buf); err != nil {
		t.Fatalf("run(-n 7 -json): %v", err)
	}
	var rep dist.AggregateReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Runs != 1 || len(rep.Results) != 1 {
		t.Fatalf("expected one run, got %d (%d results)", rep.Runs, len(rep.Results))
	}
	if rep.Results[0].Scenario != 7 || !rep.Results[0].Collision {
		t.Errorf("scenario 7 should collide: %+v", rep.Results[0])
	}
	if rep.Collisions != 1 || rep.EarlyTerminations != 1 {
		t.Errorf("aggregate counts wrong: %+v", rep)
	}
}

// TestRunSweepSingleFamily sweeps the scenario-7 family (12 variants: three
// initial speeds, two object distances, defects seeded and corrected) through
// the parallel runner and checks the machine-readable aggregate.
func TestRunSweepSingleFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs 12 full scenario simulations")
	}
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "-n", "7", "-json"}, &buf); err != nil {
		t.Fatalf("run(-sweep -n 7 -json): %v", err)
	}
	var rep dist.AggregateReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Runs != 12 || len(rep.Results) != 12 {
		t.Fatalf("expected 12 variants, got %d (%d results)", rep.Runs, len(rep.Results))
	}
	seededCollisions := 0
	for _, r := range rep.Results {
		if r.Scenario != 7 {
			t.Errorf("variant %s belongs to scenario %d, want 7", r.Name, r.Scenario)
		}
		if !r.Corrected && r.Collision {
			seededCollisions++
		}
		if r.Corrected && r.Collision {
			t.Errorf("corrected variant %s should avoid the collision", r.Name)
		}
	}
	if seededCollisions == 0 {
		t.Error("the seeded RCA defect should produce collisions somewhere in the family")
	}
}

// TestRunStreamNDJSON checks -stream output: one NDJSON line per run in
// input order, then a final aggregate line matching the batch -json path.
func TestRunStreamNDJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 6 full scenario simulations")
	}
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "-n", "7", "-corrected", "-stream"}, &buf); err != nil {
		t.Fatalf("run(-sweep -n 7 -corrected -stream): %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("expected 6 run lines + 1 aggregate line, got %d", len(lines))
	}
	var agg dist.AggregateReport
	for i, line := range lines[:6] {
		var r dist.RunReport
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("run line %d is not valid JSON: %v", i, err)
		}
		if r.Scenario != 7 || !r.Corrected {
			t.Errorf("run line %d: %+v, want corrected scenario-7 variants", i, r)
		}
		agg.Aggregate.Hits += r.Hits
		agg.Aggregate.FalseNegatives += r.FalseNegatives
		agg.Aggregate.FalsePositives += r.FalsePositives
	}
	var final dist.AggregateReport
	if err := json.Unmarshal([]byte(lines[6]), &final); err != nil {
		t.Fatalf("aggregate line is not valid JSON: %v", err)
	}
	if final.Runs != 6 || len(final.Results) != 0 {
		t.Errorf("aggregate line = %+v, want 6 runs and no embedded results", final)
	}
	if final.Aggregate != agg.Aggregate {
		t.Errorf("final aggregate %+v != sum of streamed lines %+v", final.Aggregate, agg.Aggregate)
	}

	// The batch -json path over the same jobs must agree with the stream's
	// final aggregate — the acceptance check for the streaming redesign.
	var jsonBuf bytes.Buffer
	if err := run([]string{"-sweep", "-n", "7", "-corrected", "-json"}, &jsonBuf); err != nil {
		t.Fatalf("run(-json): %v", err)
	}
	var batch dist.AggregateReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &batch); err != nil {
		t.Fatalf("batch output is not valid JSON: %v", err)
	}
	if batch.Aggregate != final.Aggregate || batch.Runs != final.Runs ||
		batch.Collisions != final.Collisions || batch.EarlyTerminations != final.EarlyTerminations {
		t.Errorf("batch aggregate %+v != streamed aggregate %+v", batch, final)
	}
}

// TestRunTimeoutPartialAggregate checks that -timeout cancels the sweep
// cleanly: run reports the context error and the NDJSON stream still ends
// with a valid aggregate line covering the completed prefix.
func TestRunTimeoutPartialAggregate(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sweep", "-n", "7", "-stream", "-workers", "1", "-timeout", "1ms"}, &buf)
	if err == nil {
		t.Fatal("a 1ms timeout should cancel the sweep")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var final dist.AggregateReport
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("final line is not a valid aggregate: %v", err)
	}
	if final.Runs != len(lines)-1 {
		t.Errorf("aggregate covers %d runs, stream emitted %d run lines", final.Runs, len(lines)-1)
	}
	if final.Runs >= 12 {
		t.Errorf("a 1ms timeout should not complete all 12 variants, got %d", final.Runs)
	}
}

// TestRunSweepSizeFlag checks the -sweep-size presets are wired through and
// invalid presets are rejected.
func TestRunSweepSizeFlag(t *testing.T) {
	if err := run([]string{"-sweep", "-sweep-size", "enormous"}, io.Discard); err == nil {
		t.Fatal("unknown -sweep-size should be an error")
	}
	if testing.Short() {
		t.Skip("wide sweep of one family runs 18 simulations")
	}
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "-sweep-size", "wide", "-n", "7", "-corrected", "-json"}, &buf); err != nil {
		t.Fatalf("run(-sweep-size wide): %v", err)
	}
	var rep dist.AggregateReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Runs != 18 {
		t.Errorf("wide corrected scenario-7 family should run 3*2*3=18 variants, got %d", rep.Runs)
	}
}

// TestRunStreamRejectsRenderedTables mirrors the -json guard for -stream.
func TestRunStreamRejectsRenderedTables(t *testing.T) {
	if err := run([]string{"-n", "7", "-stream", "-table53"}, io.Discard); err == nil {
		t.Fatal("-stream with -table53 would corrupt the NDJSON stream and must be rejected")
	}
}

// TestRunTimeoutJSONPartialAggregate checks the -json path also reports the
// completed prefix on timeout: a valid document is emitted alongside the
// context error, matching -stream's partial-aggregate behaviour.
func TestRunTimeoutJSONPartialAggregate(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-sweep", "-n", "7", "-json", "-workers", "1", "-timeout", "1ms"}, &buf)
	if err == nil {
		t.Fatal("a 1ms timeout should cancel the sweep")
	}
	var rep dist.AggregateReport
	if jsonErr := json.Unmarshal(buf.Bytes(), &rep); jsonErr != nil {
		t.Fatalf("timed-out -json run must still emit a valid document: %v", jsonErr)
	}
	if rep.Runs != len(rep.Results) {
		t.Errorf("aggregate covers %d runs but %d results are embedded", rep.Runs, len(rep.Results))
	}
	if rep.Runs >= 12 {
		t.Errorf("a 1ms timeout should not complete all 12 variants, got %d", rep.Runs)
	}
}

// TestEngineStatsReport pins the -cache-stats stderr report: after streaming
// the 30-variant tolerance sweep (10 families x 3 tolerances, the
// tolerance axis innermost), the dynamics-grouping line must show 10 groups
// over 30 jobs with exactly ceil(30/3) = 10 simulation passes run.
func TestEngineStatsReport(t *testing.T) {
	sw, err := scenarios.SweepBySize("tolerance")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 200 * time.Millisecond
	}
	engine := scenarios.NewEngine(
		scenarios.WithRetention(scenarios.SummaryOnly),
		scenarios.WithResultCache(),
	)
	if _, err := engine.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	got := engineStats(engine)
	// Ten equal-duration dynamics groups widen into 4+4+2 lane batches at
	// the default width of four.
	want := "result cache: 0 hits, 30 misses\n" +
		"dynamics groups: 10 groups over 30 jobs, 10 sims run, 20 saved (mean width 3.00)\n" +
		"lane batches: 3 widened runs over 10 lanes, 0 ragged (mean width 3.33)\n"
	if got != want {
		t.Errorf("engineStats =\n%q\nwant\n%q", got, want)
	}

	// An engine that never grouped (and has no cache) reports zeros rather
	// than omitting the lines, so the format is stable for log scrapers.
	empty := engineStats(scenarios.NewEngine(scenarios.WithGrouping(false)))
	want = "result cache: 0 hits, 0 misses\n" +
		"dynamics groups: 0 groups over 0 jobs, 0 sims run, 0 saved (mean width 0.00)\n" +
		"lane batches: 0 widened runs over 0 lanes, 0 ragged (mean width 0.00)\n"
	if empty != want {
		t.Errorf("zero-state engineStats =\n%q\nwant\n%q", empty, want)
	}
}
