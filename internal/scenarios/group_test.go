package scenarios

// Differential tests for dynamics-grouped execution: an Engine with grouping
// enabled must produce byte-identical output — every StreamResult, in the
// same order, under the same index and Job.Key, folding to the same
// aggregate — as the same Engine with grouping disabled.  The grouped path
// shares one simulation pass across a dynamics group and classifies its
// recorded violation intervals once per job (FastSummaryAt), so these tests
// are the proof that the sharing is unobservable downstream.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/monitor"
)

// streamBytes runs src through an Engine built with opts and returns the
// deterministic NDJSON encoding of the full result stream (index, job key,
// marshalled Result per line) together with the marshalled aggregate.
func streamBytes(t *testing.T, src JobSource, opts ...EngineOption) ([]byte, []byte) {
	t.Helper()
	engine := NewEngine(opts...)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var acc Accumulator
	err := engine.Stream(context.Background(), src, Tee(SinkFunc(func(sr StreamResult) error {
		return enc.Encode(struct {
			Index  int    `json:"index"`
			Key    string `json:"key"`
			Result Result `json:"result"`
		}{sr.Index, sr.Job.Key(), sr.Result})
	}), &acc))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := json.Marshal(acc.SweepResult())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), agg
}

// assertGroupedMatchesUngrouped is the core differential: one sweep, two
// engines differing only in WithGrouping, byte-identical stream and
// aggregate.
func assertGroupedMatchesUngrouped(t *testing.T, sw Sweep, opts ...EngineOption) {
	t.Helper()
	base := append([]EngineOption{WithRetention(SummaryOnly)}, opts...)
	gotStream, gotAgg := streamBytes(t, sw.Source(), append(base, WithGrouping(true))...)
	wantStream, wantAgg := streamBytes(t, sw.Source(), append(base, WithGrouping(false))...)
	if !bytes.Equal(gotStream, wantStream) {
		t.Errorf("grouped result stream differs from ungrouped (%d vs %d bytes)",
			len(gotStream), len(wantStream))
	}
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Errorf("grouped aggregate differs from ungrouped:\n grouped:   %s\n ungrouped: %s",
			gotAgg, wantAgg)
	}
}

// TestGroupedMatchesUngroupedTolerance proves grouped execution on the sweep
// it exists for: the tolerance axis is innermost, so every family forms one
// width-3 dynamics group and the grouped engine simulates each trajectory
// once instead of three times.  It runs the thesis' full 20 s durations:
// shorter runs record too few violation intervals for the three tolerances
// to classify differently, and the test checks that some family does, so
// the differential really covers per-tolerance classification of a shared
// pass.
func TestGroupedMatchesUngroupedTolerance(t *testing.T) {
	sw := ToleranceSweep()
	assertGroupedMatchesUngrouped(t, sw)

	var sums []monitor.Summary
	err := NewEngine(WithRetention(SummaryOnly), WithGrouping(false)).Stream(context.Background(), sw.Source(),
		SinkFunc(func(sr StreamResult) error {
			sums = append(sums, sr.Result.Summary)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	width := len(sw.Families[0].Tolerances)
	sensitive := 0
	for i := 0; i+width <= len(sums); i += width {
		for k := 1; k < width; k++ {
			if sums[i+k] != sums[i] {
				sensitive++
				break
			}
		}
	}
	if sensitive == 0 {
		t.Fatal("no family classifies differently across tolerances: the differential does not exercise per-tolerance classification")
	}
}

// TestGroupedMatchesUngroupedSweeps extends the differential across sweeps
// whose innermost axes are NOT the tolerance — defect sets, driver
// schedules, speeds, gears — where consecutive jobs rarely share dynamics
// and grouped dispatch must degrade to width-1 groups without disturbing
// anything.
func TestGroupedMatchesUngroupedSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the defect and huge sweep presets twice each")
	}
	for _, preset := range []struct {
		name  string
		sweep Sweep
	}{
		{"defects", DefectSweep()},
		{"huge", HugeSweep()},
	} {
		preset := preset
		t.Run(preset.name, func(t *testing.T) {
			sw := preset.sweep
			for i := range sw.Families {
				sw.Families[i].Base.Duration = 500 * time.Millisecond
			}
			assertGroupedMatchesUngrouped(t, sw)
		})
	}
}

// TestGroupedMatchesUngroupedWithCache layers the result cache over grouped
// execution and re-streams the sweep, so partially and fully cached groups
// (the miss-subset path of runLaneTask) are exercised and still produce
// identical bytes.
func TestGroupedMatchesUngroupedWithCache(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 500 * time.Millisecond
	}
	grouped := NewEngine(WithRetention(SummaryOnly), WithResultCache(), WithGrouping(true))
	ungrouped := NewEngine(WithRetention(SummaryOnly), WithResultCache(), WithGrouping(false))
	collect := func(e *Engine) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		err := e.Stream(context.Background(), sw.Source(), SinkFunc(func(sr StreamResult) error {
			return enc.Encode(sr.Result)
		}))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for pass := 0; pass < 2; pass++ {
		g, u := collect(grouped), collect(ungrouped)
		if !bytes.Equal(g, u) {
			t.Fatalf("pass %d: grouped+cache stream differs from ungrouped+cache", pass)
		}
	}
	if hits, misses := grouped.CacheStats(); hits != sw.Size() || misses != sw.Size() {
		t.Fatalf("grouped cache stats hits=%d misses=%d, want %d/%d", hits, misses, sw.Size(), sw.Size())
	}
}

// TestGroupStatsToleranceSweep pins the acceptance arithmetic of the grouped
// path: the 30-variant tolerance sweep (10 families x 3 tolerances) forms
// exactly 10 groups and executes exactly ceil(30/3) = 10 simulation passes —
// 20 saved, mean width 3.0.  A second cached pass re-dispatches the groups
// but simulates nothing.
func TestGroupStatsToleranceSweep(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 500 * time.Millisecond
	}
	engine := NewEngine(WithRetention(SummaryOnly), WithResultCache())
	if _, err := engine.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	gs := engine.GroupStats()
	width := len(sw.Families[0].Tolerances)
	wantSims := (sw.Size() + width - 1) / width // ceil(variants / K)
	if gs.Groups != 10 || gs.Jobs != sw.Size() || gs.Sims != wantSims {
		t.Fatalf("first pass stats = %+v, want Groups=10 Jobs=%d Sims=%d", gs, sw.Size(), wantSims)
	}
	if gs.SimsSaved() != sw.Size()-wantSims {
		t.Fatalf("SimsSaved = %d, want %d", gs.SimsSaved(), sw.Size()-wantSims)
	}
	if gs.MeanWidth() != float64(width) {
		t.Fatalf("MeanWidth = %v, want %d", gs.MeanWidth(), width)
	}

	// Second pass: every variant is cached, so the groups are dispatched and
	// counted but no further simulation passes run.
	if _, err := engine.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	gs = engine.GroupStats()
	if gs.Groups != 20 || gs.Jobs != 2*sw.Size() || gs.Sims != wantSims {
		t.Fatalf("second pass stats = %+v, want Groups=20 Jobs=%d Sims=%d", gs, 2*sw.Size(), wantSims)
	}
}

// TestGroupStatsZeroWhenInapplicable: disabling grouping (or running under
// KeepTrace, where grouping never applies) leaves the counters at zero, so
// GroupStats always describes what grouping did.
func TestGroupStatsZeroWhenInapplicable(t *testing.T) {
	sw := ToleranceSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 200 * time.Millisecond
	}
	off := NewEngine(WithRetention(SummaryOnly), WithGrouping(false))
	if _, err := off.Accumulate(context.Background(), sw.Source()); err != nil {
		t.Fatal(err)
	}
	if gs := off.GroupStats(); gs != (GroupStats{}) {
		t.Fatalf("WithGrouping(false) recorded stats %+v, want zero", gs)
	}
	if gs := (GroupStats{}); gs.MeanWidth() != 0 {
		t.Fatalf("zero GroupStats MeanWidth = %v, want 0", gs.MeanWidth())
	}

	keep := NewEngine(WithRetention(KeepTrace))
	one := sw.Families[0]
	one.Base.Duration = 200 * time.Millisecond
	if _, err := keep.Accumulate(context.Background(), Sweep{Families: []Family{one}}.Source()); err != nil {
		t.Fatal(err)
	}
	if gs := keep.GroupStats(); gs != (GroupStats{}) {
		t.Fatalf("KeepTrace recorded stats %+v, want zero", gs)
	}
}

// TestGroupWidthBound streams 40 jobs sharing one DynamicsKey through a
// single-worker ordered engine.  The dispatcher must split them at
// maxGroupWidth (16/16/8), deliver all 40 results in source order, and —
// because the pending group holds window tokens before dispatch — never
// deadlock even though the group width exceeds 2*workers.
func TestGroupWidthBound(t *testing.T) {
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	sc.Duration = 200 * time.Millisecond
	jobs := make([]Job, 40)
	for i := range jobs {
		j := Job{Scenario: sc}
		j.Scenario.Name = sc.Name + "#" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		jobs[i] = j
	}
	for _, j := range jobs[1:] {
		if j.DynamicsKey() != jobs[0].DynamicsKey() {
			t.Fatal("width-bound fixture jobs do not share a DynamicsKey")
		}
	}

	engine := NewEngine(WithWorkers(1), WithRetention(SummaryOnly))
	var idx []int
	var results []Result
	err := engine.Stream(context.Background(), SliceSource(jobs), SinkFunc(func(sr StreamResult) error {
		idx = append(idx, sr.Index)
		results = append(results, sr.Result)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(jobs) {
		t.Fatalf("delivered %d results, want %d", len(idx), len(jobs))
	}
	for i, got := range idx {
		if got != i {
			t.Fatalf("result %d delivered under index %d", i, got)
		}
	}
	for i, r := range results {
		if r.Summary != results[0].Summary || r.Steps != results[0].Steps {
			t.Errorf("identical-dynamics job %d produced a different result", i)
		}
		if r.Scenario.Name != jobs[i].Scenario.Name {
			t.Errorf("result %d carries scenario %q, want %q", i, r.Scenario.Name, jobs[i].Scenario.Name)
		}
	}
	gs := engine.GroupStats()
	if gs.Groups != 3 || gs.Jobs != 40 || gs.Sims != 3 {
		t.Fatalf("width bound stats = %+v, want Groups=3 Jobs=40 Sims=3 (16/16/8)", gs)
	}
}
