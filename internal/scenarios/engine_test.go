package scenarios

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/vehicle"
)

// shortSweep builds a small sweep of short-duration scenario-7 variants so
// the engine tests exercise real monitored runs without 20 s simulations.
func shortSweep(t *testing.T) Sweep {
	t.Helper()
	base, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("no scenario 7")
	}
	base.Duration = 1 * time.Second
	return Sweep{Families: []Family{{
		Base:            base,
		InitialSpeeds:   []float64{0, 1},
		ObjectDistances: []float64{-12, -9},
		OptionSets:      []Options{{}, {CorrectDefects: true}},
	}}}
}

// runEach runs every job on its own through RunWithOptions, in order: the
// batch the Engine's streams are compared against.
func runEach(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		out[i] = RunWithOptions(j.Scenario, j.Options)
	}
	return out
}

// accumulate folds results into a fresh Accumulator.
func accumulate(results []Result) *Accumulator {
	var acc Accumulator
	for _, r := range results {
		acc.Add(r)
	}
	return &acc
}

// TestEngineStreamMatchesBatch is the streaming-vs-batch equivalence check:
// the same jobs produce element-wise identical ordered results and the same
// aggregate through Engine.Stream (lazy source) as through per-job
// RunWithOptions calls.  CI runs it under -race, which is the evidence that
// the dispatcher / worker / collector split is race-clean.
func TestEngineStreamMatchesBatch(t *testing.T) {
	sw := shortSweep(t)
	jobs := sw.Jobs()
	batch := runEach(jobs)

	var streamed []StreamResult
	err := NewEngine(WithWorkers(4)).Stream(context.Background(), sw.Source(), SinkFunc(
		func(sr StreamResult) error {
			streamed = append(streamed, sr)
			return nil
		}))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if len(streamed) != len(jobs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(jobs))
	}
	for i, sr := range streamed {
		if sr.Index != i {
			t.Fatalf("result %d delivered with index %d: the Engine must deliver in source order", i, sr.Index)
		}
		if sr.Job.Scenario.Name != jobs[i].Scenario.Name || sr.Job.Options != jobs[i].Options {
			t.Errorf("job %d is %q/%+v, want %q/%+v", i, sr.Job.Scenario.Name, sr.Job.Options, jobs[i].Scenario.Name, jobs[i].Options)
		}
		got, want := sr.Result, batch[i]
		if got.Summary != want.Summary || got.Collision != want.Collision || got.Steps != want.Steps {
			t.Errorf("result %d: stream (%v,%v,%d) != batch (%v,%v,%d)",
				i, got.Summary, got.Collision, got.Steps, want.Summary, want.Collision, want.Steps)
		}
	}

	results := make([]Result, len(streamed))
	for i, sr := range streamed {
		results[i] = sr.Result
	}
	if got, want := accumulate(results).SweepResult(), accumulate(batch).SweepResult(); got != want {
		t.Errorf("streamed aggregate %+v != batch aggregate %+v", got, want)
	}
}

// TestEngineCancellation cancels a stream mid-sweep and checks the drain is
// clean: Stream returns the context error, every dispatched job is still
// delivered (the delivered indices are a contiguous prefix), and the
// Accumulator holds a valid partial aggregate of exactly the delivered runs.
func TestEngineCancellation(t *testing.T) {
	sw := shortSweep(t)
	total := sw.Size()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var acc Accumulator
	var delivered []int
	collisions := 0
	engine := NewEngine(WithWorkers(1), WithRetention(SummaryOnly))
	err := engine.Stream(ctx, sw.Source(), Tee(&acc, SinkFunc(func(sr StreamResult) error {
		delivered = append(delivered, sr.Index)
		if sr.Result.Collision {
			collisions++
		}
		if len(delivered) == 2 {
			cancel()
		}
		return nil
	})))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream after cancel returned %v, want context.Canceled", err)
	}
	if len(delivered) < 2 || len(delivered) >= total {
		t.Fatalf("delivered %d of %d runs; cancellation at 2 should stop the sweep partway", len(delivered), total)
	}
	for i, idx := range delivered {
		if idx != i {
			t.Errorf("delivered index %d at position %d: a cancelled stream must still be a contiguous prefix", idx, i)
		}
	}
	if acc.Runs() != len(delivered) {
		t.Errorf("accumulator folded %d runs, sink saw %d", acc.Runs(), len(delivered))
	}
	if acc.Collisions() != collisions {
		t.Errorf("accumulator counted %d collisions, sink saw %d", acc.Collisions(), collisions)
	}
	if got := acc.SweepResult(); got.Collisions != collisions {
		t.Errorf("partial SweepResult = %+v, want collision count %d", got, collisions)
	}
}

// TestEngineSummaryOnlyMatchesKeepTrace checks the retention policies agree
// on everything SummaryOnly retains: per-run summaries, collision flags, step
// counts and early-termination verdicts are identical, and only the trace,
// suite and detections are dropped.
func TestEngineSummaryOnlyMatchesKeepTrace(t *testing.T) {
	sw := shortSweep(t)

	run := func(r Retention) []Result {
		var out []Result
		err := NewEngine(WithWorkers(2), WithRetention(r)).Stream(
			context.Background(), sw.Source(), SinkFunc(func(sr StreamResult) error {
				out = append(out, sr.Result)
				return nil
			}))
		if err != nil {
			t.Fatalf("Stream(%v): %v", r, err)
		}
		return out
	}
	full := run(KeepTrace)
	slim := run(SummaryOnly)
	if len(full) != len(slim) {
		t.Fatalf("result counts differ: %d vs %d", len(full), len(slim))
	}
	for i := range full {
		f, s := full[i], slim[i]
		if f.Summary != s.Summary {
			t.Errorf("run %d: SummaryOnly summary %v != KeepTrace %v", i, s.Summary, f.Summary)
		}
		if f.Collision != s.Collision || f.Steps != s.Steps || f.TerminatedEarly() != s.TerminatedEarly() {
			t.Errorf("run %d: outcome fields differ: (%v,%d,%v) vs (%v,%d,%v)",
				i, s.Collision, s.Steps, s.TerminatedEarly(), f.Collision, f.Steps, f.TerminatedEarly())
		}
		if f.Trace == nil || f.Suite == nil || f.Detections == nil {
			t.Errorf("run %d: KeepTrace must retain trace, suite and detections", i)
		}
		if s.Trace != nil || s.Suite != nil || s.Detections != nil {
			t.Errorf("run %d: SummaryOnly must drop trace, suite and detections", i)
		}
		if f.Trace.Len() != s.Steps {
			t.Errorf("run %d: retained trace has %d states, SummaryOnly counted %d steps", i, f.Trace.Len(), s.Steps)
		}
	}
}

// TestEngineSinkError checks that a sink error cancels dispatch and is
// returned from Stream.
func TestEngineSinkError(t *testing.T) {
	sw := shortSweep(t)
	boom := errors.New("sink failed")
	calls := 0
	err := NewEngine(WithWorkers(2), WithRetention(SummaryOnly)).Stream(
		context.Background(), sw.Source(), SinkFunc(func(StreamResult) error {
			calls++
			return boom
		}))
	if !errors.Is(err, boom) {
		t.Fatalf("Stream returned %v, want the sink error", err)
	}
	if calls != 1 {
		t.Errorf("sink called %d times after failing, want 1", calls)
	}
}

// TestFamilySourceMatchesVariants checks the lazy generator yields exactly
// the jobs of the materialized expansion, in the same order, across empty,
// partial and full axes.
func TestFamilySourceMatchesVariants(t *testing.T) {
	base, _ := ScenarioByNumber(1)
	families := []Family{
		{Base: base},
		{Base: base, Gears: []string{"D", "R"}},
		{
			Base:            base,
			InitialSpeeds:   []float64{4, 8},
			ObjectDistances: []float64{110, 80},
			ObjectSpeeds:    []float64{0, 2, 4},
			Gears:           []string{"D", "R"},
			OptionSets:      []Options{{}, {CorrectDefects: true}},
		},
	}
	for fi, f := range families {
		want := f.Variants()
		src := f.Source()
		for i, w := range want {
			got, ok := src.Next()
			if !ok {
				t.Fatalf("family %d: source exhausted at %d, want %d jobs", fi, i, len(want))
			}
			if got.Scenario.Name != w.Scenario.Name || got.Options != w.Options ||
				got.Scenario.InitialSpeed != w.Scenario.InitialSpeed ||
				got.Scenario.Gear != w.Scenario.Gear {
				t.Fatalf("family %d job %d: source %+v != variants %+v", fi, i, got, w)
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("family %d: source yields more than Variants()", fi)
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("family %d: exhausted source must stay exhausted", fi)
		}
	}
}

// TestSweepSizeInvariant documents the variant-count invariant: for any mix
// of empty and partial axes, Sweep.Size() equals len(Sweep.Jobs()) and the
// lazy source yields exactly that many jobs.
func TestSweepSizeInvariant(t *testing.T) {
	base, _ := ScenarioByNumber(3)
	sweeps := []Sweep{
		{},
		{Families: []Family{{Base: base}}},
		{Families: []Family{
			{Base: base, InitialSpeeds: []float64{1, 2, 3}},
			{Base: base, Gears: []string{"D", "R"}, OptionSets: []Options{{}, {CorrectDefects: true}}},
			{Base: base},
		}},
		DefaultSweep(),
		WideSweep(),
		HugeSweep(),
	}
	for i, sw := range sweeps {
		if got, want := len(sw.Jobs()), sw.Size(); got != want {
			t.Errorf("sweep %d: len(Jobs()) = %d, Size() = %d", i, got, want)
		}
		n := 0
		for src := sw.Source(); ; n++ {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		if n != sw.Size() {
			t.Errorf("sweep %d: source yielded %d jobs, Size() = %d", i, n, sw.Size())
		}
	}
}

// TestSweepPresets pins the preset grid sizes the -sweep-size flag selects.
func TestSweepPresets(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int
	}{
		{"default", 120}, {"", 120}, {"wide", 360}, {"huge", 1296},
		{"tolerance", 30}, {"defects", 120},
	} {
		sw, err := SweepBySize(tc.name)
		if err != nil {
			t.Fatalf("SweepBySize(%q): %v", tc.name, err)
		}
		if sw.Size() != tc.want {
			t.Errorf("SweepBySize(%q).Size() = %d, want %d", tc.name, sw.Size(), tc.want)
		}
	}
	if _, err := SweepBySize("enormous"); err == nil {
		t.Error("unknown preset should be an error")
	}
	// Preset variant names must be unique — the regression that motivated
	// deriving labels from the full Options value.  The defects preset
	// additionally covers the defect-set and driver-schedule name parts.
	for _, preset := range []string{"huge", "defects"} {
		sw, _ := SweepBySize(preset)
		names := make(map[string]bool, sw.Size())
		for src := sw.Source(); ; {
			j, ok := src.Next()
			if !ok {
				break
			}
			if names[j.Scenario.Name] {
				t.Fatalf("%s preset: duplicate variant name %q", preset, j.Scenario.Name)
			}
			names[j.Scenario.Name] = true
		}
	}
}

// TestDefectSetAxis checks the per-feature defect axis end to end: the axis
// overrides each option set's Defects, the variants carry distinct names, and
// correcting a single subsystem actually changes that subsystem's seeded
// behaviour in the built simulation.
func TestDefectSetAxis(t *testing.T) {
	base, _ := ScenarioByNumber(1)
	f := Family{
		Base:       base,
		DefectSets: []DefectSet{{}, {CorrectCA: true}, {CorrectArbiter: true}},
	}
	jobs := f.Variants()
	if len(jobs) != 3 || f.Size() != 3 {
		t.Fatalf("defect axis produced %d variants (Size %d), want 3", len(jobs), f.Size())
	}
	if jobs[0].Options.Defects != (DefectSet{}) ||
		jobs[1].Options.Defects != (DefectSet{CorrectCA: true}) ||
		jobs[2].Options.Defects != (DefectSet{CorrectArbiter: true}) {
		t.Fatalf("defect axis did not override Options.Defects: %+v", jobs)
	}
	if jobs[0].Scenario.Name == jobs[1].Scenario.Name {
		t.Fatalf("defect variants share the name %q", jobs[0].Scenario.Name)
	}

	// CorrectDefects still wins over a partial set: the all-corrected run of
	// scenario 2 avoids the collision that the seeded system hits.
	sc2, _ := ScenarioByNumber(2)
	sc2.Duration = 20 * time.Second
	res := RunWithOptions(sc2, Options{CorrectDefects: true, Defects: DefectSet{CorrectCA: true}})
	if res.Collision {
		t.Error("CorrectDefects must correct every subsystem regardless of Options.Defects")
	}
}

// TestDriverScheduleAxis checks the driver-perturbation axis: each variant
// runs a distinct schedule under a distinct name, and a shifted schedule
// actually shifts the run's behaviour.
func TestDriverScheduleAxis(t *testing.T) {
	base, _ := ScenarioByNumber(3)
	shifted := ShiftSchedule(base.Driver, 250*time.Millisecond)
	if shifted[1].At != base.Driver[1].At+250*time.Millisecond {
		t.Fatalf("ShiftSchedule moved action to %v, want %v", shifted[1].At, base.Driver[1].At+250*time.Millisecond)
	}
	if base.Driver[1].At == shifted[1].At {
		t.Fatal("ShiftSchedule must copy, not alias, the schedule")
	}

	f := Family{Base: base, Drivers: [][]vehicle.DriverAction{base.Driver, shifted}}
	jobs := f.Variants()
	if len(jobs) != 2 || f.Size() != 2 {
		t.Fatalf("driver axis produced %d variants (Size %d), want 2", len(jobs), f.Size())
	}
	if jobs[0].Scenario.Name == jobs[1].Scenario.Name {
		t.Fatalf("driver variants share the name %q", jobs[0].Scenario.Name)
	}
	if &jobs[1].Scenario.Driver[0] != &shifted[0] {
		t.Error("variant 1 should carry the shifted schedule")
	}

	// ShiftSchedule clamps at zero so a negative shift cannot schedule
	// actions before the start of the run.
	early := ShiftSchedule(base.Driver, -time.Hour)
	for _, a := range early {
		if a.At < 0 {
			t.Fatalf("negative shift produced action at %v", a.At)
		}
	}
}

// TestOptionsLabelCoversAllFields flips every Options field via reflection
// and asserts the label changes, so option sets differing in any current or
// future field can never produce colliding variant names.  Adding a field to
// Options without extending Label (and this test's flip table) fails here.
func TestOptionsLabelCoversAllFields(t *testing.T) {
	base := Options{}
	rt := reflect.TypeOf(base)
	flip := func(fv reflect.Value) bool {
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		case reflect.String:
			fv.SetString(fv.String() + "x")
		default:
			return false
		}
		return true
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mod := base
		fv := reflect.ValueOf(&mod).Elem().Field(i)
		if fv.Kind() == reflect.Struct {
			// Struct-valued options (e.g. Defects): every leaf field must
			// independently change the label.
			for j := 0; j < fv.NumField(); j++ {
				sub := base
				sv := reflect.ValueOf(&sub).Elem().Field(i).Field(j)
				if !flip(sv) {
					t.Fatalf("Options field %s.%s has kind %s: extend this test's flip table",
						name, fv.Type().Field(j).Name, sv.Kind())
				}
				if sub.Label() == base.Label() {
					t.Errorf("Options.Label() ignores field %s.%s: label %q collides",
						name, fv.Type().Field(j).Name, base.Label())
				}
			}
			continue
		}
		if !flip(fv) {
			t.Fatalf("Options field %s has kind %s: extend this test's flip table", name, fv.Kind())
		}
		if mod.Label() == base.Label() {
			t.Errorf("Options.Label() ignores field %s: label %q collides", name, base.Label())
		}
	}
}

// TestSourceAdapters covers the SliceSource / ConcatSources plumbing.
func TestSourceAdapters(t *testing.T) {
	sc, _ := ScenarioByNumber(1)
	job := func(name string) Job {
		j := Job{Scenario: sc}
		j.Scenario.Name = name
		return j
	}
	src := ConcatSources(
		SliceSource(nil),
		SliceSource([]Job{job("a"), job("b")}),
		SliceSource(nil),
		SliceSource([]Job{job("c")}),
	)
	var got []string
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, j.Scenario.Name)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("concat yielded %v, want [a b c]", got)
	}
	if _, ok := ConcatSources().Next(); ok {
		t.Error("empty concat should be exhausted")
	}
}

// TestTee checks fan-out order and first-error semantics.
func TestTee(t *testing.T) {
	var order []string
	mk := func(name string, err error) ResultSink {
		return SinkFunc(func(StreamResult) error {
			order = append(order, name)
			return err
		})
	}
	boom := errors.New("boom")
	if err := Tee(mk("a", nil), mk("b", boom), mk("c", nil)).Consume(StreamResult{}); !errors.Is(err, boom) {
		t.Fatalf("Tee returned %v, want the first sink error", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("Tee called %v, want [a b] (stop at first error)", order)
	}
}

// TestEngineAccumulate covers the Accumulate convenience wrapper end to end
// against the per-job bookkeeping.
func TestEngineAccumulate(t *testing.T) {
	sw := shortSweep(t)
	jobs := sw.Jobs()
	want := accumulate(runEach(jobs)).SweepResult()

	acc, err := NewEngine(WithWorkers(2), WithRetention(SummaryOnly)).Accumulate(
		context.Background(), sw.Source())
	if err != nil {
		t.Fatalf("Accumulate: %v", err)
	}
	if acc.Runs() != len(jobs) {
		t.Errorf("Runs() = %d, want %d", acc.Runs(), len(jobs))
	}
	if acc.Summary() != want.Aggregate {
		t.Errorf("Summary() = %v, want %v", acc.Summary(), want.Aggregate)
	}
	if acc.Collisions() != want.Collisions || acc.EarlyTerminations() != want.EarlyTerminations {
		t.Errorf("counts = (%d,%d), want (%d,%d)",
			acc.Collisions(), acc.EarlyTerminations(), want.Collisions, want.EarlyTerminations)
	}
}

// TestEngineLargeSweepStreams is the acceptance check for the streaming
// redesign: a ≥1000-variant sweep evaluated through a lazy source with
// SummaryOnly retention, never materializing the job slice or retaining a
// trace.  Durations are shortened so the population runs in test time; the
// per-run cost is irrelevant here, only the streaming discipline.
func TestEngineLargeSweepStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1296 short scenario simulations")
	}
	sw := HugeSweep()
	for i := range sw.Families {
		sw.Families[i].Base.Duration = 20 * time.Millisecond
	}
	if sw.Size() < 1000 {
		t.Fatalf("huge sweep has %d variants, want >= 1000", sw.Size())
	}
	// Nothing outside the Accumulator retains results; the sink only counts
	// deliveries and checks they arrive in source order.
	var acc Accumulator
	delivered := 0
	err := NewEngine(WithRetention(SummaryOnly)).Stream(context.Background(), sw.Source(), Tee(&acc, SinkFunc(
		func(sr StreamResult) error {
			if sr.Index != delivered {
				return fmt.Errorf("delivery %d carries index %d", delivered, sr.Index)
			}
			delivered++
			return nil
		})))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if acc.Runs() != sw.Size() || delivered != sw.Size() {
		t.Fatalf("streamed %d runs (%d delivered), want %d", acc.Runs(), delivered, sw.Size())
	}
	if acc.Summary().Total() == 0 {
		t.Error("a huge-sweep population should classify at least one detection")
	}
}

// TestEngineCompletedStreamIgnoresLateCancel checks that a cancellation
// racing the tail of a fully-consumed source does not turn a complete stream
// into an error: every job was dispatched, completed and delivered, so
// Stream reports success.
func TestEngineCompletedStreamIgnoresLateCancel(t *testing.T) {
	sw := shortSweep(t)
	total := sw.Size()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	delivered := 0
	err := NewEngine(WithWorkers(2), WithRetention(SummaryOnly)).Stream(ctx, sw.Source(), SinkFunc(func(StreamResult) error {
		delivered++
		if delivered == total {
			cancel() // fires on the last delivery, before Stream returns
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("Stream over an exhausted source returned %v, want nil despite the late cancel", err)
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
}

// TestEngineOrderedBackpressure checks the delivery window: when the first
// job is much slower than the rest, dispatch stalls instead of letting the
// out-of-order buffer grow O(completed).
//
// Per-job dispatch (WithGrouping(false)) never holds a job back, so its
// window is exactly 2*workers: at most 2*workers results can complete before
// the head of the line delivers.  Grouped dispatch legitimately holds jobs
// back (waiting for equal-duration siblings to fill a lane batch), up to one
// job short of a full batch, so its window carries lanes*maxGroupWidth-1
// extra pending capacity — and that is the bound it must still honour.
func TestEngineOrderedBackpressure(t *testing.T) {
	base, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("no scenario 7")
	}
	slow, fast := base, base
	slow.Duration = 2 * time.Second
	fast.Duration = 10 * time.Millisecond

	const workers = 4
	for _, tc := range []struct {
		name   string
		jobs   int
		opts   []EngineOption
		window int
	}{
		{"per-job", 64, []EngineOption{WithGrouping(false)}, 2 * workers},
		{"grouped", 160, nil, 2*workers + defaultLaneWidth*maxGroupWidth - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]Job, tc.jobs)
			jobs[0] = Job{Scenario: slow}
			for i := 1; i < len(jobs); i++ {
				jobs[i] = Job{Scenario: fast}
			}

			var pulled atomic.Int64
			inner := SliceSource(jobs)
			src := SourceFunc(func() (Job, bool) {
				j, ok := inner.Next()
				if ok {
					pulled.Add(1)
				}
				return j, ok
			})

			pulledAtHead := int64(-1)
			opts := append([]EngineOption{WithWorkers(workers), WithRetention(SummaryOnly)}, tc.opts...)
			err := NewEngine(opts...).Stream(context.Background(), src, SinkFunc(func(sr StreamResult) error {
				if sr.Index == 0 {
					// The head of the line delivers ~2 s in, long after
					// every fast job would have been pulled and completed
					// were there no backpressure.  The window must have
					// held dispatch to at most window jobs ahead.
					pulledAtHead = pulled.Load()
				}
				return nil
			}))
			if err != nil {
				t.Fatalf("Stream: %v", err)
			}
			if pulledAtHead < 0 {
				t.Fatal("index 0 never delivered")
			}
			if max := int64(tc.window + 1); pulledAtHead > max {
				t.Errorf("dispatcher pulled %d jobs while the head of the line was running, want <= %d (window bound)", pulledAtHead, max)
			}
		})
	}
}

// TestEngineWorkerCount checks pool sizing and that an empty source streams
// nothing, on an explicit and on a defaulted pool.
func TestEngineWorkerCount(t *testing.T) {
	if got := NewEngine(WithWorkers(8)).workerCount(); got != 8 {
		t.Errorf("explicit pool size must be honoured, got %d", got)
	}
	if got := NewEngine(WithWorkers(-1)).workerCount(); got < 1 {
		t.Errorf("defaulted pool size must be positive, got %d", got)
	}
	for _, n := range []int{4, -1} {
		delivered := 0
		err := NewEngine(WithWorkers(n)).Stream(context.Background(), SliceSource(nil), SinkFunc(
			func(StreamResult) error {
				delivered++
				return nil
			}))
		if err != nil || delivered != 0 {
			t.Errorf("WithWorkers(%d): streaming no jobs returned %v after %d deliveries, want nil after none", n, err, delivered)
		}
	}
}

// TestEngineKeepTraceWorkerInvariance streams the ten thesis scenarios under
// KeepTrace on one worker and on four and requires the rendered Appendix D
// violation tables, per-detection classifications and cross-scenario
// summary to be byte-identical.  Together with -race this is the evidence
// that per-run isolation holds (each run owns its engine, bus and monitor
// suite) and that delivery order does not depend on the pool size.
func TestEngineKeepTraceWorkerInvariance(t *testing.T) {
	render := func(workers int) string {
		var b strings.Builder
		var results []Result
		err := NewEngine(WithWorkers(workers)).Stream(context.Background(), SliceSource(thesisScenarioJobs(DefaultDuration)), SinkFunc(
			func(sr StreamResult) error {
				if sr.Result.Scenario.Number != sr.Index+1 {
					return fmt.Errorf("delivery %d is scenario %d", sr.Index, sr.Result.Scenario.Number)
				}
				results = append(results, sr.Result)
				b.WriteString(RenderViolationTable(sr.Result))
				b.WriteString(RenderClassificationDetail(sr.Result))
				return nil
			}))
		if err != nil {
			t.Fatalf("Stream(WithWorkers(%d)): %v", workers, err)
		}
		if len(results) != 10 {
			t.Fatalf("WithWorkers(%d) delivered %d results, want 10", workers, len(results))
		}
		b.WriteString(RenderSummary(results))
		return b.String()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Errorf("rendered output differs between 1 and 4 workers:\n%s\n---\n%s", seq, par)
	}
}

// TestEngineKeepTraceResultsOwnTheirState streams the ten thesis scenarios
// under KeepTrace on one worker and on three and captures, at delivery, each
// Result's rendered violation table, trace length, last recorded state and
// violation report.  Re-read after the stream has ended, every value must be
// unchanged: a KeepTrace Result owns its arena's schema, trace and suite, so
// no later job may disturb it — the invariant that forbids pooling the
// KeepTrace arena.  Under -race it is also the evidence that no two runs
// share that state.
func TestEngineKeepTraceResultsOwnTheirState(t *testing.T) {
	type snapshot struct {
		table  string
		steps  int
		last   string
		report []monitor.ViolationReport
	}
	take := func(r Result) snapshot {
		return snapshot{RenderViolationTable(r), r.Trace.Len(), r.Trace.Last().String(), r.Suite.Report()}
	}
	for _, workers := range []int{1, 3} {
		var results []Result
		var delivered []snapshot
		err := NewEngine(WithWorkers(workers)).Stream(context.Background(), SliceSource(thesisScenarioJobs(DefaultDuration)), SinkFunc(
			func(sr StreamResult) error {
				results = append(results, sr.Result)
				delivered = append(delivered, take(sr.Result))
				return nil
			}))
		if err != nil {
			t.Fatalf("Stream(WithWorkers(%d)): %v", workers, err)
		}
		for i, r := range results {
			if got := take(r); !reflect.DeepEqual(got, delivered[i]) {
				t.Errorf("workers %d: result %d (%s) changed after delivery", workers, i, r.Scenario.Name)
			}
			if i > 0 && r.Trace.Last().Schema() == results[i-1].Trace.Last().Schema() {
				t.Errorf("workers %d: results %d and %d share a schema", workers, i-1, i)
			}
		}
	}
}
