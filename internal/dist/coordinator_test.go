package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestCoordinatorKillRequeue kills one worker mid-shard and checks the shard
// is re-queued, the replacement is seeded with the proved prefix, and the
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
	counts := make([]int, n)
	src := sw.Source()
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		counts[j.Shard(n)]++
	}
	victim := 0
	for s, c := range counts {
		if c > counts[victim] {
			victim = s
		}
	}
	if counts[victim] < 2 {
		t.Fatalf("victim shard %d owns %d variants; the kill would be a no-op", victim, counts[victim])
	}

	// Hooks run on the coordinator's goroutine, so no locking is needed.
	workers := make(map[int]Worker)
	killed := false
	seeded := -1
	gotStream, gotAgg := distributed(t, Options{
		Workers:     n,
		MaxAttempts: 3,
		Transport: &seedSpyTransport{
			inner: &holdTransport{inner: &LocalTransport{Source: sw.Source}, hold: victim},
			onSeed: func(shard, seedLen int) {
				if shard == victim {
					seeded = seedLen
				}
			},
		},
		Hooks: Hooks{
			OnSpawn: func(shard, attempt int, w Worker) { workers[shard] = w },
			OnResult: func(shard, attempt int, key string) {
				if shard == victim && attempt == 0 && !killed {
					killed = true
					workers[victim].Kill()
				}
			},
		},
	}, sw.Source())

	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
	if !killed {
		t.Fatal("the victim worker was never killed; the test exercised nothing")
	}
	if seeded < 0 {
		t.Error("the re-queued victim was never spawned with a seed")
	} else if seeded == 0 {
		t.Error("the replacement worker was seeded with nothing; proved results should carry over")
	}
}

// holdTransport passes only the first output line of shard hold's first
// worker and then holds that stream open until the worker is killed, so a
// kill on the first result always lands with the shard unfinished, however
// fast the worker would otherwise run the rest of it.
type holdTransport struct {
	inner Transport
	hold  int

	mu   sync.Mutex
	used bool
}

func (t *holdTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	w, err := t.inner.Start(ctx, spec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || spec.Index != t.hold || t.used {
		return w, err
	}
	t.used = true
	pr, pw := io.Pipe()
	go func() {
		line, err := bufio.NewReader(w.Output()).ReadBytes('\n')
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Write(line)
	}()
	return &heldWorker{Worker: w, out: pr, pw: pw}, nil
}

// heldWorker is a worker whose output holdTransport cut after one line.
type heldWorker struct {
	Worker
	out *io.PipeReader
	pw  *io.PipeWriter
}

func (w *heldWorker) Output() io.Reader { return w.out }

func (w *heldWorker) Kill() error {
	w.pw.CloseWithError(errWorkerKilled)
	return w.Worker.Kill()
}

// seedSpyTransport reports the seed size of each respawn.
type seedSpyTransport struct {
	inner  Transport
	onSeed func(shard, seedLen int)
}

func (t *seedSpyTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if len(spec.Seed) > 0 && t.onSeed != nil {
		t.onSeed(spec.Index, len(spec.Seed))
	}
	return t.inner.Start(ctx, spec)
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
	return full.Start(ctx, ShardSpec{Index: 0, Total: 1, Seed: spec.Seed})
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
		return emptyWorker{}, nil
	}
	return t.inner.Start(ctx, spec)
}

type emptyWorker struct{}

func (emptyWorker) Output() io.Reader { return strings.NewReader("") }
func (emptyWorker) Wait() error       { return nil }
func (emptyWorker) Kill() error       { return nil }

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
