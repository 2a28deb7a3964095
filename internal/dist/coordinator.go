package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/scenarios"
)

// Hooks are optional observation points, used by tests to inject failures
// (killing a worker after its k-th result) and by front-ends for progress.
// All may be nil; all are called from the coordinator's main loop.
type Hooks struct {
	// OnSpawn fires after a worker for the given shard and attempt (0-based)
	// has started.
	OnSpawn func(shard, attempt int, w Worker)
	// OnResult fires for every run line a worker delivers, before
	// deduplication, with the variant key it carries.
	OnResult func(shard, attempt int, key string)
	// OnRetire fires when AllowPartial retires a shard that exhausted its
	// attempt budget, with the terminal error it died on.
	OnRetire func(shard int, err error)
}

// Options configures a Coordinator.
type Options struct {
	// Workers is the shard count — one worker per shard.  Values below 1
	// default to 1.
	Workers int
	// Transport spawns the workers.  Required.
	Transport Transport
	// StallTimeout kills a worker that has produced no output line for this
	// long, triggering a re-queue.  Zero disables stall detection (process
	// exit still triggers re-queue).
	StallTimeout time.Duration
	// MaxAttempts bounds the total workers (first spawn plus replacements)
	// spent on one shard; a shard that exhausts the budget fails the run
	// with an error matching ErrShardFailed — or, under AllowPartial, is
	// retired and reported in the Outcome's completion map.  Values below
	// 1 mean a single attempt: no replacements.
	MaxAttempts int
	// RetryBackoff is the base delay before re-queuing a failed shard:
	// replacement k waits RetryBackoff<<(k-1), capped at RetryBackoffMax,
	// scaled by a jitter factor in [0.5,1.5) drawn from the seeded RNG —
	// so a flapping transport is probed at an exponentially decaying rate
	// instead of hammered in a tight loop.  Zero re-queues immediately
	// (the pre-backoff behavior).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff; zero defaults to
	// 16×RetryBackoff.
	RetryBackoffMax time.Duration
	// Seed drives the backoff jitter RNG.  The same seed and failure
	// history reproduce the same delays, keeping chaos runs replayable.
	Seed int64
	// AllowPartial degrades gracefully instead of failing the sweep: a
	// shard that exhausts its attempt budget is retired, its undelivered
	// variants are released as holes in the ordered stream, and Run returns
	// a Partial Outcome whose Shards records exactly what was lost.  The
	// byte-identical-to-one-process contract still holds whenever every
	// shard completes.
	AllowPartial bool
	// Hooks observes spawns, results and retirements.
	Hooks Hooks
}

// maxAttempts resolves the effective per-shard attempt budget.
func (o Options) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 1
}

// ErrShardFailed is the sentinel matched (via errors.Is) by the typed error
// a shard raises when it exhausts its attempt budget with work outstanding.
var ErrShardFailed = errors.New("dist: shard exhausted its attempt budget")

// ShardError reports one shard's exhausted attempt budget: which shard, how
// many attempts were spent, how many variants were left undelivered, and the
// terminal cause of the last attempt.  errors.Is(err, ErrShardFailed) holds.
type ShardError struct {
	Shard      int   // failed shard index
	Total      int   // shard count of the sweep
	Attempts   int   // attempts consumed (first spawn + replacements)
	Unfinished int   // variants the shard never delivered
	Cause      error // terminal error of the last attempt
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("dist: shard %d/%d failed after %d attempt(s), %d variant(s) unfinished: %v",
		e.Shard, e.Total, e.Attempts, e.Unfinished, e.Cause)
}

// Unwrap exposes the terminal cause.
func (e *ShardError) Unwrap() error { return e.Cause }

// Is matches the ErrShardFailed sentinel.
func (e *ShardError) Is(target error) bool { return target == ErrShardFailed }

// ShardCompletion is one shard's provenance record in a (possibly partial)
// distributed sweep: how much of the shard was delivered, how many workers
// it consumed, and — for a retired shard — the terminal error.
type ShardCompletion struct {
	Done     int    `json:"done"`            // variants delivered
	Total    int    `json:"total"`           // variants owned by the shard
	Complete bool   `json:"complete"`        // Done == Total
	Attempts int    `json:"attempts"`        // workers spawned for the shard
	Error    string `json:"error,omitempty"` // terminal error of a retired shard
}

// Outcome is what a coordinator Run produces: the merged Accumulator (the
// embedding keeps every existing acc.Runs()/acc.Summary() call site working)
// plus per-shard completion provenance.  Partial is false exactly when every
// variant was delivered, in which case Report() marshals byte-identically to
// the single-process aggregate trailer.
type Outcome struct {
	*scenarios.Accumulator
	// Partial reports that at least one shard was retired under
	// AllowPartial and the aggregate covers only the delivered variants.
	Partial bool
	// Shards holds one completion record per shard, indexed by shard.
	Shards []ShardCompletion
}

// Report renders the outcome as the aggregate trailer.  A complete outcome
// yields exactly NewAggregateReport(acc) — no partial markers — preserving
// the byte-identity contract; a partial one is flagged and carries the full
// per-shard completion map.
func (o *Outcome) Report() AggregateReport {
	rep := NewAggregateReport(o.Accumulator)
	if o.Partial {
		rep.Partial = true
		rep.Completion = make(map[string]ShardCompletion, len(o.Shards))
		for shard, c := range o.Shards {
			rep.Completion[strconv.Itoa(shard)] = c
		}
	}
	return rep
}

// Coordinator runs a JobSource across sharded workers and merges their
// streams back into the single-process contract: the sink sees every variant
// exactly once, in global source order, and the returned Accumulator equals
// the one a single process would have produced.
type Coordinator struct {
	opts Options
}

// New validates options into a Coordinator.
func New(opts Options) (*Coordinator, error) {
	if opts.Transport == nil {
		return nil, errors.New("dist: Coordinator needs a Transport")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.RetryBackoff > 0 && opts.RetryBackoffMax <= 0 {
		opts.RetryBackoffMax = 16 * opts.RetryBackoff
	}
	return &Coordinator{opts: opts}, nil
}

// variant is the coordinator's record of one enumerated job, indexed by its
// position in source order.
type variant struct {
	job    scenarios.Job
	shard  int              // owner shard
	proved bool             // a worker delivered it; later deliveries are duplicates
	res    scenarios.Result // the rebuilt result, once proved
}

// shardRun is the coordinator's record of one shard.
type shardRun struct {
	total, remaining int // enumerated and undelivered variants
	attempt, spawned int // current attempt, workers actually started
	worker           Worker
	lastSeen         time.Time
	poisoned         error // protocol error that poisoned the current attempt
	retired          error // terminal error of a shard retired under AllowPartial
}

// arrival is one parsed run line.
type arrival struct {
	shard, attempt int
	report         RunReport
}

// exitEvent is one worker termination, after its output is fully drained.
type exitEvent struct {
	shard, attempt int
	err            error
}

// Run executes src across the configured workers and streams the merged
// results to sink in global source order.  It returns the merged Outcome; on
// failure the sink has seen a prefix of the stream and the error reports the
// first unrecoverable fault (a shard exceeding its attempt budget without
// AllowPartial, a sink error, or cancellation).  Under AllowPartial an
// exhausted shard is retired instead: Run succeeds with Outcome.Partial set
// and the completion map naming the dead shard.
func (c *Coordinator) Run(ctx context.Context, src scenarios.JobSource, sink scenarios.ResultSink) (*Outcome, error) {
	n := c.opts.Workers

	// Enumerate the source once to know, independently of any worker, what
	// "complete" means: every variant, its global index, and its owner shard.
	// The shard key contract requires unique keys; enforce it here so a
	// violating source fails loudly instead of silently losing variants to
	// deduplication.
	var vars []variant
	byName := make(map[string]int)
	seenKeys := make(map[string]struct{})
	shards := make([]shardRun, n)
	for {
		job, ok := src.Next()
		if !ok {
			break
		}
		key := job.Key()
		if _, dup := seenKeys[key]; dup {
			return nil, fmt.Errorf("dist: duplicate variant key %q in source", key)
		}
		seenKeys[key] = struct{}{}
		name := job.Scenario.Name
		if _, dup := byName[name]; dup {
			return nil, fmt.Errorf("dist: duplicate variant name %q in source", name)
		}
		byName[name] = len(vars)
		v := variant{job: job, shard: scenarios.ShardOfKey(key, n)}
		vars = append(vars, v)
		shards[v.shard].total++
		shards[v.shard].remaining++
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runState{
		c:           c,
		ctx:         ctx,
		sink:        sink,
		arrivals:    make(chan arrival, 64),
		exits:       make(chan exitEvent, n),
		respawns:    make(chan int, n),
		vars:        vars,
		byName:      byName,
		shards:      shards,
		maxAttempts: c.opts.maxAttempts(),
		remaining:   len(vars),
		acc:         &scenarios.Accumulator{},
		rng:         rand.New(rand.NewSource(c.opts.Seed)),
	}
	defer st.reapAll()

	for shard := 0; shard < n; shard++ {
		if err := st.spawn(shard); err != nil {
			return nil, err
		}
	}

	var stall <-chan time.Time
	if c.opts.StallTimeout > 0 {
		t := time.NewTicker(c.opts.StallTimeout / 2)
		defer t.Stop()
		stall = t.C
	}

	for st.remaining > 0 {
		select {
		case a := <-st.arrivals:
			if err := st.handleArrival(a); err != nil {
				return nil, err
			}
		case e := <-st.exits:
			// A worker's exit is sent only after its last result was placed in
			// the arrivals channel, but select order between the two channels is
			// random — so a fast worker (an HTTP response arriving in one burst,
			// a fully-seeded replay) can be reaped with its results still
			// buffered.  Drain them first, or finished work would be charged as
			// a failed attempt.
			if err := st.drainArrivals(); err != nil {
				return nil, err
			}
			if err := st.handleExit(e); err != nil {
				return nil, err
			}
		case shard := <-st.respawns:
			if err := st.spawn(shard); err != nil {
				return nil, err
			}
		case now := <-stall:
			st.killStalled(now)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return st.outcome(), nil
}

// runState is the bookkeeping of one Run call, owned by the main loop.
type runState struct {
	c        *Coordinator
	ctx      context.Context
	sink     scenarios.ResultSink
	arrivals chan arrival
	exits    chan exitEvent
	respawns chan int

	vars        []variant      // every enumerated job, in source order
	byName      map[string]int // variant name → index in vars
	shards      []shardRun
	maxAttempts int
	remaining   int // undelivered variants overall (retired shards excluded)
	live        int // workers whose reader has not yet reported an exit
	next        int // next index owed to the sink

	acc *scenarios.Accumulator // aggregate of every proved variant
	rng *rand.Rand             // seeded jitter source for retry backoff
}

// spawn starts (or restarts) the worker for one shard, seeding the variants
// of that shard already proved so the replacement replays them from cache.
// A refused spawn is a failed attempt like any other: it consumes budget and
// schedules a backed-off retry rather than aborting the run.
func (st *runState) spawn(shard int) error {
	sh := &st.shards[shard]
	if sh.remaining == 0 || sh.retired != nil {
		return nil
	}
	spec := ShardSpec{Index: shard, Total: len(st.shards)}
	if sh.attempt > 0 {
		for _, v := range st.vars {
			if v.proved && v.shard == shard {
				spec.Seed = append(spec.Seed, ProvedResult{Options: v.job.Options, Result: v.res})
			}
		}
	}
	sh.spawned++
	w, err := st.c.opts.Transport.Start(st.ctx, spec)
	if err != nil {
		return st.attemptFailed(shard, fmt.Errorf("spawning shard %s attempt %d: %w", spec, sh.attempt, err))
	}
	sh.worker = w
	sh.lastSeen = time.Now()
	st.live++
	go readWorker(w, shard, sh.attempt, st.arrivals, st.exits)
	if h := st.c.opts.Hooks.OnSpawn; h != nil {
		h(shard, sh.attempt, w)
	}
	return nil
}

// readWorker drains one worker's protocol stream, forwarding run lines and
// finally its exit (Wait error, or the protocol error that stopped reading).
// A malformed line — invalid JSON, an unrecognized shape, a truncated tail
// with no trailing newline — never panics and never merges: it stops the
// read with the offending line quoted in the error, which poisons only this
// attempt (the coordinator re-queues the shard, seeded with the prefix this
// worker already proved).
func readWorker(w Worker, shard, attempt int, arrivals chan<- arrival, exits chan<- exitEvent) {
	var readErr error
	sc := bufio.NewScanner(w.Output())
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		rep, ok, err := ParseResultLine(sc.Bytes())
		if err != nil {
			readErr = err
			break
		}
		if ok {
			arrivals <- arrival{shard: shard, attempt: attempt, report: rep}
		}
	}
	if readErr == nil {
		readErr = sc.Err()
	}
	waitErr := w.Wait()
	if readErr == nil {
		readErr = waitErr
	}
	exits <- exitEvent{shard: shard, attempt: attempt, err: readErr}
}

// handleArrival merges one run line: drop it if its variant is already
// proved, else rebuild the result, fold it into the aggregate and release
// what the ordered stream is now owed.  A syntactically valid line naming a
// variant the coordinator never enumerated is protocol corruption: it
// poisons the delivering attempt (kill + re-queue) instead of failing the
// whole run.
func (st *runState) handleArrival(a arrival) error {
	if a.attempt == st.shards[a.shard].attempt {
		st.shards[a.shard].lastSeen = time.Now()
	}
	i, ok := st.byName[a.report.Name]
	if !ok {
		st.poisonAttempt(a.shard, a.attempt,
			fmt.Errorf("dist: shard %d reported unknown variant %q", a.shard, a.report.Name))
		return nil
	}
	v := &st.vars[i]
	if h := st.c.opts.Hooks.OnResult; h != nil {
		h(a.shard, a.attempt, v.job.Key())
	}
	owner := &st.shards[v.shard]
	if v.proved || owner.retired != nil {
		return nil // a re-delivery, or a retired shard whose holes are released
	}
	v.proved = true
	v.res = a.report.Result(v.job)
	st.acc.Add(v.res)
	owner.remaining--
	st.remaining--
	return st.releaseReady()
}

// releaseReady delivers every result the ordered stream is now owed: proved
// variants from the next index on, skipping the holes a retired shard's
// undelivered variants leave, which would otherwise dam the stream.
func (st *runState) releaseReady() error {
	for ; st.next < len(st.vars); st.next++ {
		v := &st.vars[st.next]
		if v.proved {
			if err := st.sink.Consume(scenarios.StreamResult{Index: st.next, Job: v.job, Result: v.res}); err != nil {
				return fmt.Errorf("dist: sink: %w", err)
			}
		} else if st.shards[v.shard].retired == nil {
			return nil // owed, not yet proved; a retired shard's hole is skipped
		}
	}
	return nil
}

// drainArrivals processes every result already buffered in the arrivals
// channel without blocking.
func (st *runState) drainArrivals() error {
	for {
		select {
		case a := <-st.arrivals:
			if err := st.handleArrival(a); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// poisonAttempt kills the current worker of a shard over a protocol fault.
// The kill surfaces as an ordinary exit whose cause is the recorded error,
// so the re-queue path (budget, backoff, seeding) is shared with crashes.
func (st *runState) poisonAttempt(shard, attempt int, cause error) {
	sh := &st.shards[shard]
	if attempt != sh.attempt || sh.worker == nil {
		return // a replaced worker's stale line
	}
	if sh.poisoned == nil {
		sh.poisoned = cause
	}
	sh.worker.Kill()
}

// handleExit reaps one worker.  An exit with the shard complete is success
// regardless of the exit error (the coordinator's own bookkeeping is the
// truth); an exit with work outstanding counts against the shard's attempt
// budget.
func (st *runState) handleExit(e exitEvent) error {
	sh := &st.shards[e.shard]
	if e.attempt != sh.attempt {
		return nil // an already-replaced worker finally reaped
	}
	sh.worker = nil
	st.live--
	cause := e.err
	if sh.poisoned != nil {
		cause = sh.poisoned // the protocol fault that triggered the kill, not the kill itself
		sh.poisoned = nil
	}
	if sh.remaining == 0 {
		return nil
	}
	return st.attemptFailed(e.shard, exitError(cause))
}

// attemptFailed charges one failed attempt against a shard's budget: within
// budget it schedules a (possibly backed-off) replacement; an exhausted
// budget either fails the run with a ShardError or, under AllowPartial,
// retires the shard and releases the stream past its holes.
func (st *runState) attemptFailed(shard int, cause error) error {
	sh := &st.shards[shard]
	used := sh.attempt + 1
	if used >= st.maxAttempts {
		serr := &ShardError{
			Shard:      shard,
			Total:      len(st.shards),
			Attempts:   used,
			Unfinished: sh.remaining,
			Cause:      cause,
		}
		if !st.c.opts.AllowPartial {
			return serr
		}
		sh.retired = serr
		st.remaining -= sh.remaining
		if h := st.c.opts.Hooks.OnRetire; h != nil {
			h(shard, serr)
		}
		return st.releaseReady()
	}
	sh.attempt++
	delay := st.backoffDelay(sh.attempt)
	if delay <= 0 {
		return st.spawn(shard)
	}
	respawns, ctx := st.respawns, st.ctx
	time.AfterFunc(delay, func() {
		select {
		case respawns <- shard:
		case <-ctx.Done():
		}
	})
	return nil
}

// backoffDelay computes the wait before replacement `attempt` (1-based):
// exponential in the attempt number, capped, jittered by the seeded RNG.
func (st *runState) backoffDelay(attempt int) time.Duration {
	return backoffDelay(st.rng, st.c.opts.RetryBackoff, st.c.opts.RetryBackoffMax, attempt)
}

// backoffDelay is the pure backoff schedule: base<<(attempt-1) capped at max,
// scaled by a jitter factor in [0.5,1.5) drawn from rng.  A non-positive base
// disables backoff entirely.
func backoffDelay(rng *rand.Rand, base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = 16 * base
	}
	d := max
	if shift := uint(attempt - 1); shift < 16 {
		if exp := base << shift; exp > 0 && exp < max {
			d = exp
		}
	}
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// outcome freezes the per-shard completion records of a finished run.
func (st *runState) outcome() *Outcome {
	o := &Outcome{Accumulator: st.acc, Shards: make([]ShardCompletion, len(st.shards))}
	for s, sh := range st.shards {
		comp := ShardCompletion{
			Done:     sh.total - sh.remaining,
			Total:    sh.total,
			Complete: sh.remaining == 0,
			Attempts: sh.spawned,
		}
		if sh.retired != nil {
			comp.Error = sh.retired.Error()
			o.Partial = true
		}
		o.Shards[s] = comp
	}
	return o
}

// exitError normalizes a nil worker error (a clean exit that nevertheless
// left work undone) into something reportable.
func exitError(err error) error {
	if err == nil {
		return errors.New("worker exited without finishing its shard")
	}
	return err
}

// killStalled kills current workers that have been silent past the stall
// timeout; the resulting exit event re-queues their shards.
func (st *runState) killStalled(now time.Time) {
	for _, sh := range st.shards {
		if sh.worker != nil && sh.remaining > 0 && now.Sub(sh.lastSeen) > st.c.opts.StallTimeout {
			sh.worker.Kill()
		}
	}
}

// reapAll kills every live worker and waits for its reader goroutine to
// finish, so Run never leaks goroutines or child processes — on success,
// on error, and on cancellation alike.
func (st *runState) reapAll() {
	for _, sh := range st.shards {
		if sh.worker != nil {
			sh.worker.Kill()
		}
	}
	for st.live > 0 {
		select {
		case <-st.arrivals: // discard: the run is over
		case <-st.exits:
			st.live--
		}
	}
}
