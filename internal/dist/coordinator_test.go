package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/scenarios"
)

// testSweep narrows the default sweep to the scenario-7 family (12 variants:
// three speeds, two distances, seeded and corrected), small enough that the
// coordinator tests stay fast but real enough to produce collisions,
// early terminations and both defect configurations.
func testSweep(t *testing.T) scenarios.Sweep {
	t.Helper()
	sw, err := scenarios.SweepBySize("default")
	if err != nil {
		t.Fatal(err)
	}
	var kept []scenarios.Family
	for _, f := range sw.Families {
		if f.Base.Number == 7 {
			kept = append(kept, f)
		}
	}
	sw.Families = kept
	return sw
}

// singleProcess evaluates src in one process and returns the NDJSON run
// lines plus the aggregate — the reference every distributed run must match
// byte for byte.  It runs the engine without grouping (WithGrouping(false)):
// every job simulated alone as a one-lane batch, without the grouping and
// lane batching the workers execute.  Both share the lane arena and its
// change-gated program, which the scenarios and temporal Stepper
// differentials (differential_test.go, program_lanes_test.go) check
// independently.
func singleProcess(t *testing.T, src scenarios.JobSource) ([]byte, AggregateReport) {
	t.Helper()
	engine := scenarios.NewEngine(scenarios.WithRetention(scenarios.SummaryOnly), scenarios.WithGrouping(false))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var acc scenarios.Accumulator
	err := engine.Stream(context.Background(), src, scenarios.Tee(&acc, scenarios.SinkFunc(
		func(sr scenarios.StreamResult) error {
			return enc.Encode(NewRunReport(sr))
		})))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), NewAggregateReport(&acc)
}

// distributed runs src through a coordinator and returns the merged NDJSON
// run lines plus the aggregate.
func distributed(t *testing.T, opts Options, src scenarios.JobSource) ([]byte, AggregateReport) {
	t.Helper()
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	acc, err := coord.Run(context.Background(), src, scenarios.SinkFunc(
		func(sr scenarios.StreamResult) error {
			return enc.Encode(NewRunReport(sr))
		}))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), acc.Report()
}

// requireIdentical asserts a distributed output equals the single-process
// reference exactly.
func requireIdentical(t *testing.T, wantStream []byte, wantAgg AggregateReport, gotStream []byte, gotAgg AggregateReport) {
	t.Helper()
	if !bytes.Equal(wantStream, gotStream) {
		t.Errorf("merged stream differs from single-process stream:\n--- single ---\n%s--- merged ---\n%s", wantStream, gotStream)
	}
	// AggregateReport embeds a slice, so compare the marshalled trailers —
	// byte equality is the contract anyway.
	wantLine, _ := json.Marshal(wantAgg)
	gotLine, _ := json.Marshal(gotAgg)
	if !bytes.Equal(wantLine, gotLine) {
		t.Errorf("merged aggregate %s != single-process aggregate %s", gotLine, wantLine)
	}
}

func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice")
	}
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	gotStream, gotAgg := distributed(t, Options{
		Workers:   3,
		Transport: &LocalTransport{Source: sw.Source},
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
}

// TestCoordinatorKillRequeue kills one worker mid-shard and checks the
// replacement resumes: its spec skips exactly the prefix the victim
// delivered, it delivers exactly the shard's remaining variants, and the
// merged output is still byte-identical to single-process.
func TestCoordinatorKillRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice, once with a re-queue")
	}
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())

	// Pick the shard owning the most variants, so the kill happens with work
	// genuinely outstanding.
	const n = 3
	var owned [n][]string // variant names per shard, in source order
	src := sw.Source()
	for j, ok := src.Next(); ok; j, ok = src.Next() {
		owned[j.Shard(n)] = append(owned[j.Shard(n)], j.Scenario.Name)
	}
	victim := 0
	for s := range owned {
		if len(owned[s]) > len(owned[victim]) {
			victim = s
		}
	}
	if len(owned[victim]) < 2 {
		t.Fatalf("victim shard %d owns %d variants; the kill would be a no-op", victim, len(owned[victim]))
	}

	delivered := len(owned[victim]) / 2
	tr := &cutTransport{inner: &LocalTransport{Source: sw.Source}, cut: victim, lines: delivered}
	gotStream, gotAgg := distributed(t, Options{Workers: n, MaxAttempts: 3, Transport: tr}, sw.Source())

	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
	if len(tr.skips) != 1 {
		t.Fatalf("shard %d was re-queued %d times, want once", victim, len(tr.skips))
	}
	if tr.skips[0] != delivered || delivered == 0 {
		t.Errorf("the replacement skips %d variants, want the %d its predecessor delivered", tr.skips[0], delivered)
	}
	var resumed []string
	for _, line := range bytes.SplitAfter(tr.resumed.Bytes(), []byte("\n")) {
		rep, ok, err := ParseResultLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			resumed = append(resumed, rep.Name)
		}
	}
	if got, want := strings.Join(resumed, " "), strings.Join(owned[victim][delivered:], " "); got != want {
		t.Errorf("the replacement delivered %q, want the shard's remaining variants %q", got, want)
	}
}

// cutTransport passes the first `lines` output lines of shard cut's first
// worker, then kills that worker and ends its stream, so the shard is
// re-queued with exactly that prefix delivered, however fast the worker
// would otherwise finish it.  It records the Skip of every later attempt of
// the shard and copies their output into resumed.  Start runs on the
// coordinator's goroutine, and resumed is complete once Run has returned.
type cutTransport struct {
	inner      Transport
	cut, lines int

	skips   []int
	resumed bytes.Buffer
	started bool
}

func (t *cutTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	w, err := t.inner.Start(ctx, spec)
	if err != nil || spec.Index != t.cut {
		return w, err
	}
	if t.started {
		t.skips = append(t.skips, spec.Skip)
		return &cutWorker{Worker: w, out: io.TeeReader(w.Output(), &t.resumed)}, nil
	}
	t.started = true
	pr, pw := io.Pipe()
	go func() {
		br := bufio.NewReader(w.Output())
		for i := 0; i < t.lines; i++ {
			line, err := br.ReadBytes('\n')
			if _, werr := pw.Write(line); err == nil {
				err = werr
			}
			if err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		w.Kill()
		pw.CloseWithError(errWorkerKilled)
	}()
	return &cutWorker{Worker: w, out: pr, pw: pw}, nil
}

// cutWorker is a worker whose output cutTransport replaced; Kill also ends
// a cut stream.
type cutWorker struct {
	Worker
	out io.Reader
	pw  *io.PipeWriter
}

func (w *cutWorker) Output() io.Reader { return w.out }

func (w *cutWorker) Kill() error {
	if w.pw != nil {
		w.pw.CloseWithError(errWorkerKilled)
	}
	return w.Worker.Kill()
}

// TestCoordinatorDedupOverlappingWorkers runs every worker over the FULL
// source (a worst-case misbehaving transport: n-fold duplicate delivery) and
// checks deduplication still yields the exact single-process output.
func TestCoordinatorDedupOverlappingWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family four times")
	}
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	gotStream, gotAgg := distributed(t, Options{
		Workers:   3,
		Transport: &overlapTransport{source: sw.Source},
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
}

// overlapTransport ignores the shard spec: every worker evaluates the whole
// source, so every variant arrives once per worker.
type overlapTransport struct {
	source func() scenarios.JobSource
}

func (t *overlapTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	full := &LocalTransport{Source: t.source}
	return full.Start(ctx, ShardSpec{Index: 0, Total: 1})
}

// TestCoordinatorStallRequeue gives shard 0 a first worker that hangs
// silently; the stall timeout must kill it and the replacement must finish
// the sweep with output identical to single-process.
func TestCoordinatorStallRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice, once with a stall")
	}
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	// The timeout must outlast one honest variant simulation on a loaded
	// 1-CPU machine, or the healthy replacement gets killed too; the race
	// detector slows simulation ~10x, so the budget scales with it.
	stall := 2 * time.Second
	if raceEnabled {
		stall = 20 * time.Second
	}
	ft := &flakyTransport{inner: &LocalTransport{Source: sw.Source}, hangFirst: 0}
	gotStream, gotAgg := distributed(t, Options{
		Workers:      3,
		MaxAttempts:  3,
		StallTimeout: stall,
		Transport:    ft,
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
	if !ft.hung {
		t.Fatal("the hanging worker was never started; the test exercised nothing")
	}
}

// flakyTransport hands out one hanging worker for shard hangFirst's first
// attempt, then delegates.
type flakyTransport struct {
	inner     Transport
	hangFirst int

	mu    sync.Mutex
	calls map[int]int
	hung  bool
}

func (t *flakyTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	t.mu.Lock()
	if t.calls == nil {
		t.calls = make(map[int]int)
	}
	n := t.calls[spec.Index]
	t.calls[spec.Index]++
	if spec.Index == t.hangFirst && n == 0 {
		t.hung = true
		t.mu.Unlock()
		return newHangWorker(), nil
	}
	t.mu.Unlock()
	return t.inner.Start(ctx, spec)
}

// hangWorker emits nothing and never exits until killed.
type hangWorker struct {
	pr   *io.PipeReader
	pw   *io.PipeWriter
	done chan struct{}
	once sync.Once
}

func newHangWorker() *hangWorker {
	pr, pw := io.Pipe()
	return &hangWorker{pr: pr, pw: pw, done: make(chan struct{})}
}

func (w *hangWorker) Output() io.Reader { return w.pr }

func (w *hangWorker) Wait() error {
	<-w.done
	return errors.New("hung worker killed")
}

func (w *hangWorker) Kill() error {
	w.once.Do(func() {
		w.pw.CloseWithError(errors.New("killed"))
		close(w.done)
	})
	return nil
}

// TestCoordinatorMaxRetriesExceeded fails shard 0 on every attempt and
// checks the run reports the exhausted shard instead of hanging.
func TestCoordinatorMaxRetriesExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two shards of the scenario-7 family")
	}
	sw := testSweep(t)
	coord, err := New(Options{
		Workers:     3,
		MaxAttempts: 2,
		Transport:   &brokenShardTransport{inner: &LocalTransport{Source: sw.Source}, broken: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err == nil {
		t.Fatal("a permanently failing shard must fail the run")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Errorf("error should report the exhausted attempts, got: %v", err)
	}
}

// brokenShardTransport hands the broken shard a worker that exits cleanly
// without producing anything — the subtlest failure, since there is no error
// to propagate, only missing work.
type brokenShardTransport struct {
	inner  Transport
	broken int
}

func (t *brokenShardTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if spec.Index == t.broken {
		return cannedWorker{strings.NewReader("")}, nil
	}
	return t.inner.Start(ctx, spec)
}

// cannedWorker serves fixed output and exits cleanly.
type cannedWorker struct{ out io.Reader }

func (w cannedWorker) Output() io.Reader { return w.out }
func (cannedWorker) Wait() error         { return nil }
func (cannedWorker) Kill() error         { return nil }

// cannedTransport serves fixed NDJSON per shard index: workers with no
// simulation behind them.
type cannedTransport [][]byte

func (c cannedTransport) Start(_ context.Context, spec ShardSpec) (Worker, error) {
	return cannedWorker{bytes.NewReader(c[spec.Index])}, nil
}

// cannedHugeStream returns the huge sweep's 1296 jobs and, per shard of an
// n-way partition, the NDJSON its worker sends: the shard's run lines in
// source order, then its aggregate trailer.  The results are synthetic, so
// nothing is simulated.
func cannedHugeStream(t *testing.T, n int) ([]scenarios.Job, cannedTransport) {
	t.Helper()
	var jobs []scenarios.Job
	streams := make(cannedTransport, n)
	accs := make([]scenarios.Accumulator, n)
	src := scenarios.HugeSweep().Source()
	for job, ok := src.Next(); ok; job, ok = src.Next() {
		i := len(jobs)
		jobs = append(jobs, job)
		sc := job.Scenario
		sc.Duration = sc.ScheduledDuration()
		res := scenarios.Result{Scenario: sc, Steps: 1000 + i, Collision: i%7 == 0,
			Summary: monitor.Summary{Hits: i % 5, FalseNegatives: i % 3, FalsePositives: i % 2}}
		line, err := json.Marshal(NewRunReport(scenarios.StreamResult{Index: i, Job: job, Result: res}))
		if err != nil {
			t.Fatal(err)
		}
		k := job.Shard(n)
		streams[k] = append(append(streams[k], line...), '\n')
		accs[k].Add(res)
	}
	for k := range streams {
		line, err := json.Marshal(NewAggregateReport(&accs[k]))
		if err != nil {
			t.Fatal(err)
		}
		streams[k] = append(append(streams[k], line...), '\n')
	}
	return jobs, streams
}

// TestCoordinatorMergeAllocs bounds the allocations of the coordinator
// merge alone: a canned 2-shard stream of the huge sweep parsed, deduplicated,
// released in source order and aggregated, with no simulation.  A merge that
// again rebuilds variant keys per line, keeps per-variant maps, or decodes
// run lines through encoding/json (about eight allocations a line) exceeds
// it.
func TestCoordinatorMergeAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts need an uninstrumented, full run")
	}
	const shards, maxPerLine = 2, 5
	jobs, streams := cannedHugeStream(t, shards)
	allocs := testing.AllocsPerRun(3, func() {
		coord, err := New(Options{Workers: shards, Transport: streams})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		out, err := coord.Run(context.Background(), scenarios.SliceSource(jobs), scenarios.SinkFunc(
			func(sr scenarios.StreamResult) error {
				if sr.Index != next {
					t.Fatalf("released index %d, want %d", sr.Index, next)
				}
				next++
				return nil
			}))
		if err != nil || next != len(jobs) || out.Runs() != len(jobs) {
			t.Fatalf("merged %d of %d lines (err %v)", next, len(jobs), err)
		}
	})
	perLine := allocs / float64(len(jobs))
	t.Logf("%.1f allocations per merged line (%d lines)", perLine, len(jobs))
	if perLine > maxPerLine {
		t.Errorf("the merge allocates %.1f times per line, more than %d", perLine, maxPerLine)
	}
}

// startLogTransport logs every Start into the run's event log and refuses
// the first attempt of shard refuse (-1 refuses none).
type startLogTransport struct {
	inner  Transport
	refuse int
	log    *[]string
}

func (t *startLogTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	*t.log = append(*t.log, "start "+strconv.Itoa(spec.Index))
	if spec.Index == t.refuse {
		t.refuse = -1
		return nil, errors.New("refused")
	}
	return t.inner.Start(ctx, spec)
}

// TestCoordinatorStartsFirstOwnerAlone pins the spawn order: the shard that
// owns the first variant starts alone, and the others start only after the
// main loop has handled its first event — its first run line, or the retry
// a refused start schedules.
func TestCoordinatorStartsFirstOwnerAlone(t *testing.T) {
	const shards = 3
	jobs, streams := cannedHugeStream(t, shards)
	owner := jobs[0].Shard(shards)
	for _, refused := range []bool{false, true} {
		var log []string
		tr := &startLogTransport{inner: streams, refuse: -1, log: &log}
		if refused {
			tr.refuse = owner
		}
		coord, err := New(Options{Workers: shards, MaxAttempts: 2, RetryBackoff: 10 * time.Millisecond, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		// The sink sees the first variant as the main loop handles its line,
		// before that loop starts the other shards.
		if _, err := coord.Run(context.Background(), scenarios.SliceSource(jobs),
			scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
				if sr.Index == 0 {
					log = append(log, "result "+strconv.Itoa(owner))
				}
				return nil
			})); err != nil {
			t.Fatal(err)
		}
		first := "start " + strconv.Itoa(owner)
		want := []string{first, "result " + strconv.Itoa(owner)}
		if refused {
			// The refusal leaves nothing running until the backed-off
			// retry, so the rest start at once.
			next := 0
			if owner == 0 {
				next = 1
			}
			want = []string{first, "start " + strconv.Itoa(next)}
		}
		if len(log) < 2 || log[0] != want[0] || log[1] != want[1] {
			t.Errorf("refused=%v: events begin %q, want %q", refused, log[:min(len(log), 4)], want)
		}
	}
}

// TestCoordinatorSinkError propagates a sink failure out of Run.
func TestCoordinatorSinkError(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a sweep before the sink fails")
	}
	sw := testSweep(t)
	coord, err := New(Options{Workers: 2, Transport: &LocalTransport{Source: sw.Source}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink exploded")
	_, err = coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return boom }))
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("Run should surface the sink error, got: %v", err)
	}
}

// TestCoordinatorCancellation cancels a run blocked on a silent worker.
func TestCoordinatorCancellation(t *testing.T) {
	sw := testSweep(t)
	coord, err := New(Options{
		Workers:   1,
		Transport: &flakyTransport{inner: &LocalTransport{Source: sw.Source}, hangFirst: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = coord.Run(ctx, sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run should return the context error, got: %v", err)
	}
}

// TestCoordinatorRejectsDuplicateKeys enforces the shard key contract at the
// coordinator boundary.
func TestCoordinatorRejectsDuplicateKeys(t *testing.T) {
	sc, _ := scenarios.ScenarioByNumber(7)
	jobs := []scenarios.Job{{Scenario: sc}, {Scenario: sc}}
	coord, err := New(Options{Workers: 2, Transport: &LocalTransport{Source: func() scenarios.JobSource {
		return scenarios.SliceSource(jobs)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), scenarios.SliceSource(jobs), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err == nil || !strings.Contains(err.Error(), "duplicate variant") {
		t.Errorf("duplicate keys must be rejected, got: %v", err)
	}
}

// TestNewValidation pins Option validation.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("a Coordinator without a Transport must be rejected")
	}
	c, err := New(Options{Workers: -4, Transport: &LocalTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Workers != 1 {
		t.Errorf("non-positive Workers should default to 1, got %d", c.opts.Workers)
	}
}

// TestLocalTransportNeedsSource pins the LocalTransport precondition.
func TestLocalTransportNeedsSource(t *testing.T) {
	if _, err := (&LocalTransport{}).Start(context.Background(), ShardSpec{Total: 1}); err == nil {
		t.Error("LocalTransport without a Source must be rejected")
	}
}
