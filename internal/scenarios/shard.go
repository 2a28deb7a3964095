package scenarios

import "strconv"

// ---------------------------------------------------------------------------
// Deterministic sharding: stable variant keys over any JobSource
// ---------------------------------------------------------------------------
//
// Distributed sweep execution (internal/dist) partitions a job stream across
// worker processes.  The partition must be a pure function of the variant
// itself — not of arrival order, worker count history or process identity —
// so that any two processes enumerating the same source agree on which shard
// owns which variant, a re-queued shard re-derives exactly the jobs its dead
// predecessor owned, and a duplicated result can be recognised wherever it
// surfaces.  Job.Key is that identity; Job.Shard hashes it with FNV-1a (a
// fixed published constant-defined hash, stable across processes, platforms
// and Go releases); ShardSource filters any JobSource down to one shard.

// fnv1a64 is the 64-bit FNV-1a hash.  It is written out rather than taken
// from hash/fnv to make the shard contract self-evident: the hash of a
// variant key is defined by these two published constants and nothing else,
// so any process — today's or a future Go version's — computes the same
// shard for the same key.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Job is one unit of work for the evaluation: a scenario together with the
// options it should run under.  Distinct jobs may pair the same scenario with
// different options (e.g. the corrected-defects ablation).
type Job struct {
	// Scenario is the configuration to run.
	Scenario Scenario
	// Options are the run options (defect correction etc.).
	Options Options
}

// Key returns the job's canonical variant identity: the scenario name (which
// every sweep generator derives from the full parameter assignment), the
// effective scheduled duration in nanoseconds, and the full options label.
// Two jobs with equal keys denote the same evaluation — same dynamics, same
// monitoring configuration — so keys are the unit of idempotence for the
// result cache, distributed sharding and the coordinator's deduplication.  A zero
// Duration resolves to the default before keying, matching what the run
// itself executes.
//
// Hand-built jobs that reuse one scenario name across different
// configurations violate the contract and must not be sharded, cached or
// deduplicated by key.
func (j Job) Key() string {
	d := j.Scenario.Duration
	if d <= 0 {
		d = DefaultDuration
	}
	return j.Scenario.Name + "|" + strconv.FormatInt(int64(d), 10) + "|" + j.Options.Label()
}

// Shard returns the index of the shard that owns this job in an n-way
// partition: the FNV-1a hash of the variant key, reduced mod n.  It is a
// pure function of (Key, n): independent of source order, of which process
// computes it and of the Go version, so every participant in a distributed
// sweep derives the same owner for the same variant.  Non-positive n and
// n == 1 both yield the single shard 0.
func (j Job) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a64(j.Key()) % uint64(n))
}

// ShardSource filters src down to the jobs owned by shard index in an
// total-way partition, preserving source order.  The union of the total
// shard sources over one source enumeration is exactly the source itself,
// pairwise disjoint, so n workers each wrapping their own enumeration of the
// same source collectively evaluate every variant exactly once.  A
// non-positive or single-shard total returns src unchanged.
func ShardSource(src JobSource, index, total int) JobSource {
	if total <= 1 {
		return src
	}
	return SourceFunc(func() (Job, bool) {
		for {
			j, ok := src.Next()
			if !ok {
				return Job{}, false
			}
			if j.Shard(total) == index {
				return j, true
			}
		}
	})
}
