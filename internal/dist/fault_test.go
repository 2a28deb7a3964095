package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenarios"
)

// chaosOptions is the coordinator configuration every chaos test runs under:
// enough budget to survive one sabotaged attempt per shard, a stall timeout
// short enough to reclaim stalled shards quickly but long enough to outlast
// honest work on a loaded machine (the race detector slows simulation ~10×,
// so the budget stretches accordingly — a too-tight budget kills honest
// workers and burns the whole attempt budget on false positives), and
// near-immediate seeded backoff so the re-queue path (including the jittered
// AfterFunc) is exercised without slowing the suite.
func chaosOptions(tr Transport, seed int64) Options {
	stall := 2 * time.Second
	if raceEnabled {
		stall = 20 * time.Second
	}
	return Options{
		Workers:         3,
		MaxAttempts:     3,
		StallTimeout:    stall,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 4 * time.Millisecond,
		Seed:            seed,
		Transport:       tr,
	}
}

// TestChaosMatrix is the acceptance criterion of the fault-injection layer:
// every fault kind, across three seeds, injected between a real coordinator
// and real HTTP workers on loopback — and the merged NDJSON stream plus the
// aggregate trailer must come out byte-identical to the single-process run
// every single time.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family once per fault kind per seed over loopback HTTP")
	}
	sw := testSweep(t)
	srv := workerServer(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())

	for _, kind := range AllFaultKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				injected := 0
				ft := &FaultTransport{
					Inner:   &HTTPTransport{Hosts: []string{srv.URL}},
					Seed:    seed,
					Menu:    []FaultKind{kind},
					OnFault: func(shard, attempt int, k FaultKind, line int) { injected++ },
				}
				gotStream, gotAgg := distributed(t, chaosOptions(ft, seed), sw.Source())
				requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
				if injected == 0 {
					t.Errorf("seed %d: no %s fault was ever injected; the run proved nothing", seed, kind)
				}
			}
		})
	}
}

// TestChaosSmoke is the single-fault fixed-seed check CI runs under the race
// detector on every push: one mid-stream connection drop, in-process workers,
// byte-identical recovery.  Kept cheap on purpose — the full matrix is
// TestChaosMatrix.
func TestChaosSmoke(t *testing.T) {
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	ft := &FaultTransport{
		Inner: &LocalTransport{Source: sw.Source},
		Seed:  1,
		Menu:  []FaultKind{FaultDrop},
	}
	// No StallTimeout: a drop terminates its own stream, and the race
	// detector slows honest workers enough that a short stall budget would
	// kill them too.
	gotStream, gotAgg := distributed(t, Options{
		Workers:      3,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		Seed:         1,
		Transport:    ft,
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
}

// TestFaultTransportDeterministicReplay runs the same chaotic sweep twice
// with the same seed and requires the exact same faults at the exact same
// points — the property that makes a chaos failure replayable.
func TestFaultTransportDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice under chaos")
	}
	sw := testSweep(t)
	record := func() []string {
		var mu sync.Mutex
		var faults []string
		ft := &FaultTransport{
			Inner: &LocalTransport{Source: sw.Source},
			Seed:  42,
			OnFault: func(shard, attempt int, kind FaultKind, line int) {
				mu.Lock()
				faults = append(faults, fmt.Sprintf("shard=%d attempt=%d kind=%s line=%d", shard, attempt, kind, line))
				mu.Unlock()
			},
		}
		distributed(t, chaosOptions(ft, 42), sw.Source())
		sort.Strings(faults)
		return faults
	}
	first, second := record(), record()
	if len(first) == 0 {
		t.Fatal("no faults recorded; the transport injected nothing")
	}
	if got, want := strings.Join(second, "\n"), strings.Join(first, "\n"); got != want {
		t.Errorf("same seed, different faults:\n--- first run ---\n%s\n--- second run ---\n%s", want, got)
	}
}

// TestFaultKindNamesRoundTrip pins String/ParseFaultKind as inverses, which
// the -chaos flag and replay instructions rely on.
func TestFaultKindNamesRoundTrip(t *testing.T) {
	for _, k := range AllFaultKinds() {
		parsed, err := ParseFaultKind(k.String())
		if err != nil {
			t.Errorf("ParseFaultKind(%q): %v", k.String(), err)
		} else if parsed != k {
			t.Errorf("ParseFaultKind(%q) = %v, want %v", k.String(), parsed, k)
		}
	}
	if _, err := ParseFaultKind("meteor-strike"); err == nil {
		t.Error("an unknown fault name must be rejected")
	}
	if got := FaultKind(250).String(); !strings.Contains(got, "250") {
		t.Errorf("out-of-range FaultKind should stringify defensively, got %q", got)
	}
}

// refuseShardTransport permanently refuses one shard and delegates the rest —
// the unrecoverable-host scenario behind graceful degradation.
type refuseShardTransport struct {
	inner   Transport
	refused int

	mu     sync.Mutex
	starts map[int]int
}

func (t *refuseShardTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	t.mu.Lock()
	if t.starts == nil {
		t.starts = make(map[int]int)
	}
	t.starts[spec.Index]++
	t.mu.Unlock()
	if spec.Index == t.refused {
		return nil, errors.New("host permanently down")
	}
	return t.inner.Start(ctx, spec)
}

// shardCounts counts how many variants of src each of n shards owns.
func shardCounts(t *testing.T, src scenarios.JobSource, n int) []int {
	t.Helper()
	counts := make([]int, n)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		counts[j.Shard(n)]++
	}
	return counts
}

// TestCoordinatorAllowPartial retires a permanently dead shard under
// AllowPartial and checks the whole degradation contract: no run error, the
// outcome flagged partial, the completion map naming exactly the dead shard,
// the live shards' results delivered in source order, and the partial fields
// present in the marshalled aggregate.
func TestCoordinatorAllowPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family minus one shard")
	}
	sw := testSweep(t)
	const n = 3
	counts := shardCounts(t, sw.Source(), n)
	// Refuse the busiest shard so the hole is as large as possible.
	victim := 0
	for s, c := range counts {
		if c > counts[victim] {
			victim = s
		}
	}
	if counts[victim] == 0 {
		t.Fatal("victim shard owns nothing; the degradation would be vacuous")
	}

	tr := &refuseShardTransport{inner: &LocalTransport{Source: sw.Source}, refused: victim}
	coord, err := New(Options{
		Workers:      n,
		MaxAttempts:  2,
		AllowPartial: true,
		Transport:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []string
	outcome, err := coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(sr scenarios.StreamResult) error {
			delivered = append(delivered, sr.Job.Key())
			return nil
		}))
	if err != nil {
		t.Fatalf("AllowPartial must absorb the dead shard, got: %v", err)
	}

	if !outcome.Partial {
		t.Error("outcome of a run with a retired shard must be flagged Partial")
	}
	if len(outcome.Shards) != n {
		t.Fatalf("completion map covers %d shards, want %d", len(outcome.Shards), n)
	}
	for s, c := range outcome.Shards {
		if s == victim {
			if c.Complete || c.Done != 0 || c.Total != counts[s] || c.Attempts != 2 || c.Error == "" {
				t.Errorf("dead shard completion wrong: %+v (want incomplete, 0/%d, 2 attempts, an error)", c, counts[s])
			}
			if want := fmt.Sprintf("shard %d/%d failed after 2 attempt(s)", victim, n); !strings.Contains(c.Error, want) ||
				!strings.Contains(c.Error, "host permanently down") {
				t.Errorf("dead shard's error should be the exhausted budget with its root cause, got %q", c.Error)
			}
		} else if !c.Complete || c.Done != c.Total || c.Total != counts[s] || c.Error != "" {
			t.Errorf("live shard %d completion wrong: %+v (want complete %d/%d, no error)", s, c, counts[s], counts[s])
		}
	}
	if got := tr.starts[victim]; got != 2 {
		t.Errorf("dead shard was started %d time(s), want exactly its budget of 2", got)
	}

	// The delivered stream must be the single-process order with exactly the
	// dead shard's variants missing — graceful degradation never reorders or
	// drops live work.
	var want []string
	src := sw.Source()
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.Shard(n) != victim {
			want = append(want, j.Key())
		}
	}
	if got, wantS := strings.Join(delivered, "\n"), strings.Join(want, "\n"); got != wantS {
		t.Errorf("partial delivery is not \"source order minus the dead shard\":\n--- want ---\n%s\n--- got ---\n%s", wantS, got)
	}
	if outcome.Runs() != len(want) {
		t.Errorf("partial aggregate covers %d runs, want %d", outcome.Runs(), len(want))
	}

	// And the marshalled trailer must carry the degradation, keyed by shard.
	rep := outcome.Report()
	if !rep.Partial {
		t.Error("partial outcome's AggregateReport must set Partial")
	}
	c, ok := rep.Completion[fmt.Sprint(victim)]
	if !ok {
		t.Fatalf("completion map is missing the dead shard %d: %v", victim, rep.Completion)
	}
	if c.Complete {
		t.Error("the dead shard is marked complete in the trailer")
	}
}

// TestCompleteOutcomeOmitsPartialFields pins the byte-identity guard: a
// complete distributed run's trailer must marshal without partial/completion
// fields, exactly like the single-process trailer.
func TestCompleteOutcomeOmitsPartialFields(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family")
	}
	sw := testSweep(t)
	coord, err := New(Options{Workers: 3, AllowPartial: true, Transport: &LocalTransport{Source: sw.Source}})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Partial {
		t.Fatal("a clean run came back partial")
	}
	rep := outcome.Report()
	if rep.Partial || rep.Completion != nil {
		t.Errorf("complete trailer must omit partial fields, got Partial=%v Completion=%v", rep.Partial, rep.Completion)
	}
}

// TestErrShardFailedIdentity pins the typed shard-failure error: it matches
// the ErrShardFailed sentinel through errors.Is and names the shard and its
// attempt count.
func TestErrShardFailedIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two shards of the scenario-7 family")
	}
	sw := testSweep(t)
	coord, err := New(Options{
		Workers:     3,
		MaxAttempts: 2,
		Transport:   &refuseShardTransport{inner: &LocalTransport{Source: sw.Source}, refused: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err == nil {
		t.Fatal("an exhausted shard without AllowPartial must fail the run")
	}
	if !errors.Is(err, ErrShardFailed) {
		t.Errorf("errors.Is(err, ErrShardFailed) is false for: %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("the failure should be a *ShardError, got %T: %v", err, err)
	}
	if se.Shard != 0 || se.Attempts != 2 {
		t.Errorf("ShardError names shard %d after %d attempts, want shard 0 after 2", se.Shard, se.Attempts)
	}
	for _, frag := range []string{"shard 0/3", "2 attempt(s)", "host permanently down"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error message %q is missing %q", err, frag)
		}
	}
}

// TestBackoffDelayDeterministicBounds pins backoffDelay: same seed → same
// delays, every delay within the jitter envelope of the capped exponential,
// zero base disables backoff entirely.
func TestBackoffDelayDeterministicBounds(t *testing.T) {
	const base, max = 100 * time.Millisecond, time.Second
	rng := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 20; attempt++ {
		d := backoffDelay(rng, base, max, attempt)
		exp := max
		if shift := uint(attempt - 1); shift < 16 {
			if e := base << shift; e > 0 && e < max {
				exp = e
			}
		}
		lo, hi := exp/2, exp+exp/2
		if d < lo || d >= hi {
			t.Errorf("attempt %d: delay %v outside jitter envelope [%v, %v) of %v", attempt, d, lo, hi, exp)
		}
	}
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 8; attempt++ {
		if da, db := backoffDelay(a, base, max, attempt), backoffDelay(b, base, max, attempt); da != db {
			t.Errorf("attempt %d: same seed gave %v then %v", attempt, da, db)
		}
	}
	if d := backoffDelay(rng, 0, max, 3); d != 0 {
		t.Errorf("zero base must disable backoff, got %v", d)
	}
}

// TestBackoffDelaysRespawn checks the coordinator actually waits out the
// jittered backoff between a shard's failure and its re-queue: the gap
// between the two spawn attempts must be at least the jitter floor (half the
// base delay).
func TestBackoffDelaysRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family with one delayed re-queue")
	}
	sw := testSweep(t)
	const base = 60 * time.Millisecond
	// Fail shard 0's first spawn outright, then let everything through.
	tr := &spawnClockTransport{
		inner:     &LocalTransport{Source: sw.Source},
		failFirst: 0,
	}
	gotStream, gotAgg := distributed(t, Options{
		Workers:      3,
		MaxAttempts:  2,
		RetryBackoff: base,
		Seed:         9,
		Transport:    tr,
	}, sw.Source())
	wantStream, wantAgg := singleProcess(t, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)

	times := tr.times[0]
	if len(times) != 2 {
		t.Fatalf("shard 0 saw %d spawn attempt(s), want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < base/2 {
		t.Errorf("re-queue after %v, want at least the %v jitter floor", gap, base/2)
	}
}

// spawnClockTransport records when each shard's spawns happen and optionally
// fails one shard's first spawn.
type spawnClockTransport struct {
	inner     Transport
	failFirst int

	mu    sync.Mutex
	times map[int][]time.Time
}

func (t *spawnClockTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	t.mu.Lock()
	if t.times == nil {
		t.times = make(map[int][]time.Time)
	}
	n := len(t.times[spec.Index])
	t.times[spec.Index] = append(t.times[spec.Index], time.Now())
	t.mu.Unlock()
	if spec.Index == t.failFirst && n == 0 {
		return nil, errors.New("transient spawn refusal")
	}
	return t.inner.Start(ctx, spec)
}

// bogusLine is a syntactically valid run report naming a variant no sweep
// contains — the protocol-level poison the coordinator must survive.
const bogusLine = "{\"name\":\"no-such-variant\",\"scenario\":99}\n"

// bogusPrefixTransport prepends bogusLine to a shard's stream: on the first
// attempt only, or on every attempt.
type bogusPrefixTransport struct {
	inner  Transport
	shard  int
	always bool

	mu     sync.Mutex
	starts map[int]int
}

func (t *bogusPrefixTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	t.mu.Lock()
	if t.starts == nil {
		t.starts = make(map[int]int)
	}
	n := t.starts[spec.Index]
	t.starts[spec.Index]++
	t.mu.Unlock()
	w, err := t.inner.Start(ctx, spec)
	if err != nil {
		return nil, err
	}
	if spec.Index == t.shard && (t.always || n == 0) {
		return &prefixWorker{Worker: w, r: io.MultiReader(strings.NewReader(bogusLine), w.Output())}, nil
	}
	return w, nil
}

type prefixWorker struct {
	Worker
	r io.Reader
}

func (w *prefixWorker) Output() io.Reader { return w.r }

// TestCoordinatorPoisonedAttemptRecovers feeds shard 0's first attempt an
// unknown-variant line: that attempt must be poisoned and re-queued, the
// replacement must finish cleanly, and the merged output must stay
// byte-identical.
func TestCoordinatorPoisonedAttemptRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice, once with a poisoned attempt")
	}
	sw := testSweep(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	tr := &bogusPrefixTransport{inner: &LocalTransport{Source: sw.Source}, shard: 0}
	gotStream, gotAgg := distributed(t, Options{
		Workers:     3,
		MaxAttempts: 2,
		Transport:   tr,
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
	if got := tr.starts[0]; got != 2 {
		t.Errorf("the poisoned shard was started %d time(s), want 2 (original + replacement)", got)
	}
}

// TestCoordinatorPoisonedBudgetExhausted poisons every attempt of shard 0 and
// checks the run fails with the alien variant named.
func TestCoordinatorPoisonedBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs shards of the scenario-7 family until a budget exhausts")
	}
	sw := testSweep(t)
	coord, err := New(Options{
		Workers:     3,
		MaxAttempts: 2,
		Transport:   &bogusPrefixTransport{inner: &LocalTransport{Source: sw.Source}, shard: 0, always: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err == nil {
		t.Fatal("a permanently poisoned shard must fail the run")
	}
	if !errors.Is(err, ErrShardFailed) {
		t.Errorf("exhaustion should match ErrShardFailed, got: %v", err)
	}
	if !strings.Contains(err.Error(), `unknown variant "no-such-variant"`) {
		t.Errorf("the error should name the alien variant, got: %v", err)
	}
}

// truncatedWorkerTransport hands shard 0 a worker whose stream ends mid-line,
// every time — the partial-write of a dying peer, with no honest replacement.
type truncatedWorkerTransport struct{ inner Transport }

func (t *truncatedWorkerTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if spec.Index == 0 {
		return staticWorker{data: `{"name":"veh`}, nil
	}
	return t.inner.Start(ctx, spec)
}

type staticWorker struct{ data string }

func (w staticWorker) Output() io.Reader { return strings.NewReader(w.data) }
func (w staticWorker) Wait() error       { return nil }
func (w staticWorker) Kill() error       { return nil }

// TestCoordinatorTruncatedLinePoisonsAttempt pins satellite (b): a stream
// ending in a partial line must fail that attempt with the offending bytes
// quoted — never merge, never panic.
func TestCoordinatorTruncatedLinePoisonsAttempt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs shards of the scenario-7 family against a truncating worker")
	}
	sw := testSweep(t)
	coord, err := New(Options{
		Workers:     3,
		MaxAttempts: 1,
		Transport:   &truncatedWorkerTransport{inner: &LocalTransport{Source: sw.Source}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), sw.Source(), scenarios.SinkFunc(
		func(scenarios.StreamResult) error { return nil }))
	if err == nil {
		t.Fatal("a truncated stream with no retry budget must fail the run")
	}
	if !errors.Is(err, ErrShardFailed) {
		t.Errorf("the truncation should exhaust the shard, got: %v", err)
	}
	if !strings.Contains(err.Error(), "malformed result line") || !strings.Contains(err.Error(), "veh") {
		t.Errorf("the error should quote the offending partial line, got: %v", err)
	}
}
