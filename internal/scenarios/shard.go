package scenarios

import (
	"strconv"
	"strings"
)

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
// Job.Shard hashes the scenario name straight from its string and the
// bounded rest of the key through a stack buffer, so hashing a job to its
// shard allocates nothing at any key length; a result cache lookup builds
// its key into a reused buffer (appendKey).

// fnv1a64 is the 64-bit FNV-1a hash.  It is written out rather than taken
// from hash/fnv to make the shard contract self-evident: the hash of a
// variant key is defined by these two published constants and nothing else,
// so any process — today's or a future Go version's — computes the same
// shard for the same key.
func fnv1a64[S string | []byte](s S) uint64 { return fnvAdd(fnvOffset64, s) }

// fnvOffset64 is the FNV-1a offset basis, the hash of the empty input.
const fnvOffset64 = 14695981039346656037

// fnvAdd continues an FNV-1a hash h over s.  The hash is sequential, so
// hashing a key piece by piece gives the hash of the whole key.
func fnvAdd[S string | []byte](h uint64, s S) uint64 {
	const prime64 = 1099511628211
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
	var buf [keyTailLen]byte
	tail := j.appendKeyTail(buf[:0])
	var b strings.Builder
	b.Grow(len(j.Scenario.Name) + len(tail))
	b.WriteString(j.Scenario.Name)
	b.Write(tail)
	return b.String()
}

// keyTailLen bounds the key after the scenario name: '|', the duration
// (at most 20 bytes), '|', then "corrected=false", ",tol=", the tolerance
// (at most 20 bytes), ",fixed=" and "CA+RCA+ACC+PA+Arbiter", 90 bytes in
// all.  Names have no bound, so the key is built around them, never in one
// fixed buffer: a stack buffer of this size holds any tail.
const keyTailLen = 96

// appendKey appends the Key to b.
func (j Job) appendKey(b []byte) []byte {
	return j.appendKeyTail(append(b, j.Scenario.Name...))
}

// appendKeyTail appends the Key after the scenario name to b.
func (j Job) appendKeyTail(b []byte) []byte {
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.Scenario.ScheduledDuration()), 10)
	b = append(b, '|')
	return j.Options.appendLabel(b)
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
	var buf [keyTailLen]byte
	h := fnvAdd(fnv1a64(j.Scenario.Name), j.appendKeyTail(buf[:0]))
	return int(h % uint64(n))
}

// ShardOfKey is Job.Shard for a caller that already holds the job's Key.
func ShardOfKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a64(key) % uint64(n))
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
