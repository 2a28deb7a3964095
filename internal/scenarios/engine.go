package scenarios

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/temporal"
)

// ---------------------------------------------------------------------------
// Streaming evaluation: job sources, result sinks, retention policies
// ---------------------------------------------------------------------------
//
// The thesis' emergent-safety claim is a population claim: residual emergence
// X/Y only shows up across many interconnected configurations.  The Engine is
// the evaluation path built for that population: jobs are pulled lazily from
// a JobSource (a 10k-variant grid never materializes a []Job), each Result is
// pushed to a ResultSink as it completes, and a trace-retention policy keeps
// sweep memory O(workers) instead of O(variants).

// Retention selects how much of each run's state a Result retains.
type Retention int

const (
	// KeepTrace retains the full state trace, monitor suite and detections
	// on every Result, as the figure extractors and the rendered Appendix D
	// tables require.
	KeepTrace Retention = iota
	// SummaryOnly retains only the scenario, step count, collision flag and
	// classification summary.  The simulation records no trace at all (the
	// monitors observe the live bus state), so a sweep's retained memory is
	// O(workers) instead of O(variants × steps).
	SummaryOnly
)

// String names the retention policy.
func (r Retention) String() string {
	if r == SummaryOnly {
		return "summary-only"
	}
	return "keep-trace"
}

// JobSource is a lazy, pull-based iterator of jobs.  Sources are consumed by
// a single goroutine; implementations need not be safe for concurrent use.
type JobSource interface {
	// Next returns the next job.  ok is false when the source is exhausted.
	Next() (job Job, ok bool)
}

// SourceFunc adapts a function to a JobSource.
type SourceFunc func() (Job, bool)

// Next implements JobSource.
func (f SourceFunc) Next() (Job, bool) { return f() }

// SliceSource returns a JobSource that yields the given jobs in order.
func SliceSource(jobs []Job) JobSource {
	i := 0
	return SourceFunc(func() (Job, bool) {
		if i >= len(jobs) {
			return Job{}, false
		}
		j := jobs[i]
		i++
		return j, true
	})
}

// ConcatSources chains sources, exhausting each before starting the next.
func ConcatSources(srcs ...JobSource) JobSource {
	i := 0
	return SourceFunc(func() (Job, bool) {
		for i < len(srcs) {
			if j, ok := srcs[i].Next(); ok {
				return j, true
			}
			i++
		}
		return Job{}, false
	})
}

// StreamResult pairs a completed run with the job that produced it and the
// job's input-order index.
type StreamResult struct {
	// Index is the zero-based position of the job in source order.
	Index int
	// Job is the executed job.
	Job Job
	// Result is the run outcome, after the Engine's retention policy has
	// been applied.
	Result Result
}

// ResultSink receives completed runs in source order.  The Engine invokes
// Consume from a single goroutine, so implementations need no internal
// locking; a non-nil error cancels the stream and is returned from
// Engine.Stream.
type ResultSink interface {
	Consume(StreamResult) error
}

// SinkFunc adapts a function to a ResultSink.
type SinkFunc func(StreamResult) error

// Consume implements ResultSink.
func (f SinkFunc) Consume(sr StreamResult) error { return f(sr) }

// Tee returns a sink that forwards every result to each sink in order,
// stopping at the first error.
func Tee(sinks ...ResultSink) ResultSink {
	return SinkFunc(func(sr StreamResult) error {
		for _, s := range sinks {
			if err := s.Consume(sr); err != nil {
				return err
			}
		}
		return nil
	})
}

// Engine executes scenario jobs from a JobSource on a fixed-size worker pool
// and streams each Result to a ResultSink as it completes.  Construct it with
// NewEngine and functional options; the zero-value-equivalent NewEngine() is
// ready to use.
//
// Every task is fully isolated (each worker owns its simulation, bus and
// monitor suites), so tasks execute concurrently without synchronisation;
// the sink is invoked from a single collector goroutine.
type Engine struct {
	workers   int
	retention Retention
	grouping  bool
	lanes     int
	cache     *variantCache

	statsMu   sync.Mutex
	stats     GroupStats
	laneStats LaneStats
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers sets the worker-pool size.  Non-positive values default to
// runtime.GOMAXPROCS(0).
func WithWorkers(n int) EngineOption { return func(e *Engine) { e.workers = n } }

// WithRetention sets the trace-retention policy applied to every Result.
func WithRetention(r Retention) EngineOption { return func(e *Engine) { e.retention = r } }

// WithResultCache memoizes summary-only Results keyed by the variant label
// (scenario name, scheduled duration and the full Options label), so a job
// whose label was already evaluated — a re-streamed sweep on the same Engine,
// or duplicate variants across concatenated sources — is served from the
// cache instead of being simulated again.  The cache lives for the Engine's
// lifetime and is shared by all workers; CacheStats surfaces its hit/miss
// counters.
//
// Only SummaryOnly runs are memoized (a KeepTrace Result owns its trace and
// suite, which must not be shared between results).  Callers are responsible
// for variant labels identifying configurations: every sweep generator's
// names do (variantName covers all axes and options), but hand-built jobs
// that reuse a name across different configurations must not enable the
// cache.
func WithResultCache() EngineOption {
	return func(e *Engine) { e.cache = newVariantCache() }
}

// WithGrouping enables or disables dynamics-grouped execution (enabled by
// default).  When enabled, consecutive jobs whose DynamicsKeys are equal —
// e.g. the K tolerance variants of one sweep family — are dispatched as one
// group and executed as a single simulation pass whose recorded trajectory
// is classified once per job at that job's own tolerance, so a K-tolerance
// sweep pays for ~1/K the simulation work.  Every job still produces its own
// StreamResult under its own index and Job.Key, in source order, so sinks,
// caches, sharding and the distributed merge observe byte-identical output
// either way.  Grouping applies only under SummaryOnly retention; KeepTrace
// results own their suites and always run per job.  With grouping disabled
// every job is dispatched on its own and runs as a one-lane batch on a
// width-1 arena: the same lane arena, without dynamics grouping or lane
// batching across variants.  Either way the tests check the stream against
// an independent reference run (a scalar simulation observed by string-keyed
// reference Stepper monitors).
func WithGrouping(enabled bool) EngineOption { return func(e *Engine) { e.grouping = enabled } }

// defaultLaneWidth is the lane-batch width summary-only engines use unless
// WithLanes overrides it.  Four lanes amortize the per-tick commit, program
// step and observer dispatch well while keeping the widened register planes
// comfortably inside cache.
const defaultLaneWidth = 4

// WithLanes sets the lane-batch width: how many consecutive dynamics groups
// of equal scheduled duration are widened into one lockstep simulation whose
// register planes carry all of their trajectories side by side.  Unlike
// grouping — which only helps when neighbouring jobs share a DynamicsKey —
// lane batching accelerates sweeps whose every variant has a different
// trajectory (speed/distance/defect axes): N variants pay one commit, one
// lane-program step and one observer dispatch per tick between them.
//
// Grouped summary-only runs are lane batches at every width: the default is
// defaultLaneWidth, n <= 1 runs each dynamics group as a one-lane batch, and
// widths above temporal.MaxLanes are clamped.  The width is inert when
// grouping is disabled or under KeepTrace retention, where every job runs on
// its own as a one-lane batch.  Results stream under each job's original
// index and Job.Key at every width, so sinks, caches, sharding and the
// distributed merge observe byte-identical output — the laned differential
// tests check each width against the reference run.
func WithLanes(n int) EngineOption {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		if n > temporal.MaxLanes {
			n = temporal.MaxLanes
		}
		e.lanes = n
	}
}

// NewEngine returns an Engine with the given options applied.  The defaults
// are GOMAXPROCS workers, KeepTrace retention, dynamics-grouped execution and
// lane batching at defaultLaneWidth (active only under SummaryOnly
// retention).
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{grouping: true, lanes: defaultLaneWidth}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// workerCount resolves the effective pool size.
func (e *Engine) workerCount() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// grouped reports whether jobs are dispatched as dynamics groups batched
// into lane tasks.  Grouping applies only under SummaryOnly retention; every
// other configuration runs job by job.
func (e *Engine) grouped() bool {
	return e.grouping && e.retention == SummaryOnly
}

// task is one dispatched unit of work: a batch of consecutive dynamics
// groups with equal scheduled duration, executed as one lane batch.  Per-job
// dispatch sends one group holding one job.  idx is the source index of the
// first job; a task's jobs are contiguous in source order, so job i of the
// flattened task streams under index idx+i.
type task struct {
	idx    int
	groups [][]Job
}

// maxGroupWidth bounds how many jobs one dynamics group may carry.  The
// bound keeps per-group memory O(1) and — because the dispatcher holds one
// window token per undispatched job — bounds the window share a pending
// batch can hold, whatever the worker count.
const maxGroupWidth = 16

// Stream pulls jobs from src until it is exhausted or ctx is cancelled,
// executes them on the worker pool, and delivers each Result to sink in
// source order.  It returns nil once every job has been delivered; a
// cancellation that fires only after the source is fully consumed does not
// turn a complete stream into an error.
//
// Cancellation drains cleanly: in-flight jobs finish and their results are
// still delivered, no goroutine is leaked, and Stream returns ctx.Err() — so
// a sink such as an Accumulator holds a valid partial aggregate of every run
// that completed.  A sink error likewise stops dispatch, drains in-flight
// work without further deliveries, and is returned.
func (e *Engine) Stream(ctx context.Context, src JobSource, sink ResultSink) error {
	// stop cancels dispatch on sink errors without requiring callers to
	// pass a cancellable context.
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }
	defer cancel()

	// Every task is a batch of up to width dynamics groups of up to groupCap
	// jobs each.  Per-job dispatch is the degenerate batch: one group of one
	// job.
	groupCap, width := 1, 1
	if e.grouped() {
		groupCap, width = maxGroupWidth, e.lanes
	}

	workers := e.workerCount()
	tasks := make(chan task)
	results := make(chan StreamResult, workers)

	// The dispatcher acquires a window token per job, released when the
	// job's result is delivered, so dispatch runs at most len(window) jobs
	// ahead of in-order delivery.  Without it one slow run would let faster
	// workers race ahead and the out-of-order buffer would grow O(completed),
	// not O(workers).  The dispatcher holds back at most width*groupCap-1
	// jobs (a full batch is sent at once), so even with all of them pending
	// 2*workers tokens remain in circulation and batching can never starve
	// the window.  Per-job dispatch holds nothing back.
	window := make(chan struct{}, 2*workers+width*groupCap-1)

	// exhausted records that the dispatcher consumed the whole source AND
	// dispatched every job (including a final pending batch).  The write is
	// ordered before close(tasks), which is ordered before close(results),
	// which is ordered before the collector's read below.
	exhausted := false

	// Dispatcher: the only goroutine that touches src.  Consecutive jobs
	// whose DynamicsKeys match form one group; a group closes when the key
	// changes, the group reaches groupCap, or the source ends.  Closed groups
	// accumulate into a batch of up to width groups with equal scheduled
	// duration, dispatched as one task; a duration change or the source's end
	// sends the partial batch.  Dispatch order (and therefore result order)
	// is exactly source order.
	go func() {
		defer close(tasks)
		var (
			group      []Job
			keys       groupKeys
			groupStart int
			batch      task
			batchDur   time.Duration
		)
		// sendBatch dispatches the pending batch; its slices are handed to
		// the worker, never reused.
		sendBatch := func() bool {
			if len(batch.groups) == 0 {
				return true
			}
			t := batch
			batch = task{}
			select {
			case tasks <- t:
				return true
			case <-ctx.Done():
			case <-stop:
			}
			return false
		}
		// flush closes the pending group into the batch, sending the batch
		// first on a scheduled-duration mismatch and afterwards at full
		// width.
		flush := func() bool {
			if len(group) == 0 {
				return true
			}
			d := group[0].Scenario.ScheduledDuration()
			if len(batch.groups) > 0 && d != batchDur && !sendBatch() {
				return false
			}
			if len(batch.groups) == 0 {
				batch.idx, batchDur = groupStart, d
			}
			batch.groups = append(batch.groups, group)
			group = nil
			if len(batch.groups) == width {
				return sendBatch()
			}
			return true
		}
		for idx := 0; ; idx++ {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				return
			case <-stop:
				return
			}
			job, ok := src.Next()
			if !ok {
				if flush() && sendBatch() {
					exhausted = true
				}
				return
			}
			// Single-job groups never compare keys, so per-job dispatch
			// never derives one.
			if groupCap > 1 && !keys.matches(job) && len(group) > 0 && !flush() {
				return
			}
			if len(group) == 0 {
				groupStart = idx
				keys.open()
			}
			group = append(group, job)
			if len(group) == groupCap && !flush() {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			e.runWorker(width, tasks, results)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: the only goroutine that touches the sink.  Out-of-order
	// completions are buffered until the next source index arrives;
	// dispatched indices are contiguous and every dispatched job completes,
	// so the buffer always drains (and holds at most len(window) entries).
	var sinkErr error
	pending := make(map[int]StreamResult, workers)
	next := 0
	for sr := range results {
		pending[sr.Index] = sr
		for {
			buffered, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if sinkErr == nil {
				if sinkErr = sink.Consume(buffered); sinkErr != nil {
					cancel()
				}
			}
			// Release the delivered job's window token so the dispatcher
			// can pull the next one.  Every received result holds exactly
			// one token, so this never blocks.
			<-window
		}
	}

	if sinkErr != nil {
		return sinkErr
	}
	if exhausted {
		// Every job was dispatched, completed and delivered: the stream is
		// complete even if ctx was cancelled while the tail drained.
		return nil
	}
	return ctx.Err()
}

// groupKeys is the dispatcher's pair of reused DynamicsKey buffers: the open
// group's key and the incoming job's.  matches builds the incoming key and
// compares; open makes the key last built the open group's, swapping the
// buffers, so grouping allocates nothing once both have grown to a key.
type groupKeys struct{ group, next []byte }

// matches reports whether job's DynamicsKey equals the open group's.
func (k *groupKeys) matches(job Job) bool {
	k.next = job.appendDynamicsKey(k.next[:0])
	return bytes.Equal(k.next, k.group)
}

// open starts a group keyed by the job matches last saw.
func (k *groupKeys) open() { k.group, k.next = k.next, k.group }

// laneArenaPool recycles lane arenas across Stream calls and Engine
// lifetimes: an arena's schema, handle tables and compiled lane program
// depend on nothing job-specific, so a worker borrows one for the duration of
// a stream and returns it, and repeated sweeps (tests, benchmarks, a
// long-lived service evaluating batch after batch) skip the per-worker setup
// entirely.  Widths can differ across Engines, so the pool is width-checked
// on borrow: a mismatched arena is dropped (for the GC) and a fresh one built
// at the requested width.
var laneArenaPool sync.Pool

// borrowLaneArena fetches a summary-only lane arena of the given width from
// the pool, building one when the pool is empty or holds a different width.
// Pooled arenas classify at the default tolerance; each job's summary is
// re-classified at its own (FastSummaryAt).
func borrowLaneArena(lanes int) *laneArena {
	if a, _ := laneArenaPool.Get().(*laneArena); a != nil && a.lanes == lanes {
		return a
	}
	return newLaneArena(lanes, matchTolerance)
}

// runWorker executes dispatched tasks until the task channel closes.  Every
// task runs on a lane arena.  Summary-only tasks share one arena borrowed
// for the stream — per-lane component sets over one lane-widened bus and
// one compiled lane program, rewound between batches — so the per-variant
// cost is the simulation itself, not its construction; it is width lanes
// wide (1 without grouping, where every task is one job).  A KeepTrace task
// is one job on a fresh width-1 arena (runTraced), because its Result keeps
// the arena's trace and suite.
func (e *Engine) runWorker(width int, tasks <-chan task, results chan<- StreamResult) {
	if e.retention == KeepTrace {
		for t := range tasks {
			job := t.groups[0][0]
			results <- StreamResult{Index: t.idx, Job: job, Result: runTraced(job)}
		}
		return
	}
	la := borrowLaneArena(width)
	defer laneArenaPool.Put(la)
	var s laneScratch
	for t := range tasks {
		e.runLaneTask(la, &s, t, results)
	}
}

// laneScratch is one worker's reused working set for runLaneTask, so a task
// allocates nothing for its bookkeeping once the slices have grown to the
// largest batch.
type laneScratch struct {
	key      []byte   // the variant key of the job being resolved
	out      []Result // one result per task job, in flat order
	missJobs []Job    // the cache misses, group by group
	missIdx  []int    // each miss's flat index into out
	missKeys []string // each miss's variant key, kept to store its result
	live     [][]Job  // per surviving group: its run of missJobs
	miss     []Result // the lane batch's results, one per miss
}

// runLaneTask executes one lane batch — consecutive dynamics groups with
// equal scheduled duration — on the worker's lane arena.  Cache hits are
// resolved per job first; a group whose jobs all hit drops out of the batch
// entirely.  The surviving groups' miss subsets (each still sharing its
// group's DynamicsKey) run as ONE lane-widened simulation, one group per
// lane; a batch with a single survivor runs with one active lane.  Every
// job's result streams under its own index and key, so batching is invisible
// to the collector, the cache, sharding and the distributed merge.  Under
// grouping the task's GroupStats and LaneStats are recorded in one update.
func (e *Engine) runLaneTask(la *laneArena, s *laneScratch, t task, results chan<- StreamResult) {
	total := 0
	for _, g := range t.groups {
		total += len(g)
	}
	s.out = growResults(s.out, total)
	// missJobs never grows past total, so the live runs cut from it below
	// stay valid while it fills.
	if cap(s.missJobs) < total {
		s.missJobs = make([]Job, 0, total)
	}
	s.missJobs, s.missIdx, s.missKeys, s.live = s.missJobs[:0], s.missIdx[:0], s.missKeys[:0], s.live[:0]

	// Per-group cache resolution, preserving flat job order.  Each job's key
	// is built once, into s.key; only a miss keeps it, as a string, for the
	// store below.
	var gs GroupStats
	flat := 0
	for _, g := range t.groups {
		first := len(s.missJobs)
		for _, job := range g {
			if e.cache != nil {
				s.key = job.appendKey(s.key[:0])
				if res, hit := e.cache.lookup(s.key, job); hit {
					s.out[flat] = res
					flat++
					continue
				}
				s.missKeys = append(s.missKeys, string(s.key))
			}
			s.missJobs = append(s.missJobs, job)
			s.missIdx = append(s.missIdx, flat)
			flat++
		}
		gs.Groups++
		gs.Jobs += len(g)
		if len(s.missJobs) > first {
			gs.Sims++
			s.live = append(s.live, s.missJobs[first:])
		}
	}

	if len(s.live) > 0 {
		s.miss = growResults(s.miss, len(s.missJobs))
		la.run(s.live, s.miss)
		for mi, res := range s.miss {
			s.out[s.missIdx[mi]] = res
			if e.cache != nil {
				e.cache.store(s.missKeys[mi], res)
			}
		}
	}
	if e.grouped() {
		e.recordTask(gs, len(s.live))
	}

	flat = 0
	for _, g := range t.groups {
		for _, job := range g {
			results <- StreamResult{Index: t.idx + flat, Job: job, Result: s.out[flat]}
			flat++
		}
	}
}

// growResults returns rs resized to n, reallocating only when it lacks the
// capacity.
func growResults(rs []Result, n int) []Result {
	if cap(rs) < n {
		return make([]Result, n)
	}
	return rs[:n]
}

// recordTask folds one executed lane task into the Engine's counters: its
// groups into GroupStats, and its lane batch — if `live` groups survived
// cache resolution — into LaneStats, where a multi-group batch is a widened
// run and a single-group batch is ragged.  At width 1 every batch carries one
// group by construction, so LaneStats stays zero.
func (e *Engine) recordTask(gs GroupStats, live int) {
	e.statsMu.Lock()
	e.stats.Groups += gs.Groups
	e.stats.Jobs += gs.Jobs
	e.stats.Sims += gs.Sims
	switch {
	case e.lanes <= 1 || live == 0:
	case live > 1:
		e.laneStats.Batches++
		e.laneStats.Lanes += live
	default:
		e.laneStats.Ragged++
	}
	e.statsMu.Unlock()
}

// ---------------------------------------------------------------------------
// Per-variant result memoization (the ResultSink seam's cache)
// ---------------------------------------------------------------------------

// cachedSummary is the memoized, retention-independent part of a summary-only
// Result.  The Scenario itself is rebuilt from the incoming job, so a cache
// hit returns a Result indistinguishable from a fresh run of that job.
type cachedSummary struct {
	steps     int
	summary   monitor.Summary
	collision bool
}

// variantCache memoizes summary-only results keyed by variant key.  It is
// shared across an Engine's workers; a run costs milliseconds, so one mutex
// around the map is invisible next to the work it saves.  An Engine built
// without WithResultCache has a nil cache and never calls it.
type variantCache struct {
	mu     sync.Mutex
	m      map[string]cachedSummary
	hits   int
	misses int
}

func newVariantCache() *variantCache { return &variantCache{m: make(map[string]cachedSummary)} }

// lookup returns the memoized Result for the variant whose key (Job.Key,
// shared with distributed sharding and the coordinator's deduplication, so
// "already proved" means the same thing everywhere) is in key; job rebuilds
// the Result's Scenario.  The map index by string(key) does not allocate.
func (c *variantCache) lookup(key []byte, job Job) (Result, bool) {
	c.mu.Lock()
	cs, ok := c.m[string(key)]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	sc := job.Scenario
	sc.Duration = sc.ScheduledDuration()
	return Result{Scenario: sc, Steps: cs.steps, Summary: cs.summary, Collision: cs.collision}, true
}

// store memoizes a freshly computed summary-only result under its variant
// key.
func (c *variantCache) store(key string, res Result) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok {
		c.m[key] = cachedSummary{steps: res.Steps, summary: res.Summary, collision: res.Collision}
	}
	c.mu.Unlock()
}

// SeedResult memoizes an already-proved summary-only result under the job's
// variant key, exactly as if this Engine had computed it: a later stream that
// reaches the same key replays the seeded summary instead of simulating.  It
// is the re-queue fast path of distributed execution — a replacement worker
// is seeded with the variants of its shard already proved, so it only pays
// for the dead shard's genuinely unfinished work.  Seeding an Engine built
// without WithResultCache is a no-op, as is re-seeding a key that is already
// cached.
func (e *Engine) SeedResult(job Job, res Result) {
	if e.cache != nil {
		e.cache.store(job.Key(), res)
	}
}

// CacheStats returns the result cache's hit and miss counts (zero when the
// Engine was built without WithResultCache).
func (e *Engine) CacheStats() (hits, misses int) {
	if e.cache == nil {
		return 0, 0
	}
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.cache.hits, e.cache.misses
}

// GroupStats counts what dynamics-grouped execution did over an Engine's
// lifetime (accumulated across streams, like the cache counters): how many
// groups were dispatched, how many variants they carried, and how many
// simulation passes were actually executed.  With the default configuration
// (no result cache) Jobs - Sims is exactly the number of simulations that
// grouping avoided; with a result cache enabled, fully and partially cached
// groups skip passes too, so SimsSaved then counts both effects.
type GroupStats struct {
	// Groups is the number of dynamics groups dispatched to workers.
	Groups int
	// Jobs is the number of variants those groups carried.
	Jobs int
	// Sims is the number of simulation passes executed for them.
	Sims int
}

// SimsSaved returns how many simulation passes were not run: the variants
// carried minus the passes executed.
func (g GroupStats) SimsSaved() int { return g.Jobs - g.Sims }

// MeanWidth returns the mean number of variants per dispatched group (0
// before any group ran).
func (g GroupStats) MeanWidth() float64 {
	if g.Groups == 0 {
		return 0
	}
	return float64(g.Jobs) / float64(g.Groups)
}

// GroupStats returns the Engine's dynamics-grouping counters.  They stay
// zero when grouping is disabled (WithGrouping(false)) and under KeepTrace
// retention, where every job runs individually.  Sims counts per-trajectory
// simulations, one per lane a group occupied; LaneStats describes how those
// trajectories were batched.
func (e *Engine) GroupStats() GroupStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// LaneStats counts what lane-batched execution did over an Engine's lifetime
// (accumulated across streams, like GroupStats and the cache counters).
type LaneStats struct {
	// Batches is the number of lane-widened simulations executed: batches
	// that ran more than one dynamics group.
	Batches int
	// Lanes is the number of dynamics groups those batches carried — each a
	// trajectory that would otherwise have been its own simulation pass.
	Lanes int
	// Ragged is the number of lane batches that ran a single group with one
	// active lane: the batch was dispatched with one group (a ragged
	// remainder of the stream's grouping structure) or only one group
	// survived cache resolution.
	Ragged int
}

// MeanWidth returns the mean number of lanes per widened batch (0 before any
// batch ran).
func (s LaneStats) MeanWidth() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Lanes) / float64(s.Batches)
}

// LaneStats returns the Engine's lane-batching counters.  They stay zero at
// WithLanes(1), where every batch is one group wide, and when grouping is
// disabled or under KeepTrace retention, where no lane batch runs.
func (e *Engine) LaneStats() LaneStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.laneStats
}

// Accumulate streams src into a fresh Accumulator and returns it.  On
// cancellation the returned error is non-nil and the Accumulator holds the
// partial aggregate of every completed run.
func (e *Engine) Accumulate(ctx context.Context, src JobSource) (*Accumulator, error) {
	var acc Accumulator
	err := e.Stream(ctx, src, &acc)
	return &acc, err
}

// ---------------------------------------------------------------------------
// Online aggregation
// ---------------------------------------------------------------------------

// Accumulator folds results into the cross-variant aggregate online, one run
// at a time, so a sweep's bookkeeping never retains per-run state.  It
// implements ResultSink; the zero value is ready to use.  All methods are
// safe for concurrent use, so a partial aggregate can be read (e.g. by a
// progress reporter) while a stream is still running.
type Accumulator struct {
	mu         sync.Mutex
	runs       int
	collisions int
	early      int
	sum        monitor.Summary
}

// Add folds one result into the aggregate.
func (a *Accumulator) Add(r Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	if r.Collision {
		a.collisions++
	}
	if r.TerminatedEarly() {
		a.early++
	}
	a.sum = a.sum.Add(r.Summary)
}

// Consume implements ResultSink.
func (a *Accumulator) Consume(sr StreamResult) error {
	a.Add(sr.Result)
	return nil
}

// Runs returns the number of results folded so far.
func (a *Accumulator) Runs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runs
}

// Collisions returns the number of runs that terminated on a collision.
func (a *Accumulator) Collisions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.collisions
}

// EarlyTerminations returns the number of runs that stopped before their
// scheduled duration.
func (a *Accumulator) EarlyTerminations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.early
}

// Summary returns the aggregate hit / false-negative / false-positive
// classification — the sweep-level empirical estimate of the residual
// emergence X and Y of thesis §3.4.
func (a *Accumulator) Summary() monitor.Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}

// SweepResult snapshots the aggregate as a SweepResult.
func (a *Accumulator) SweepResult() SweepResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	return SweepResult{
		Aggregate:         a.sum,
		Collisions:        a.collisions,
		EarlyTerminations: a.early,
	}
}
