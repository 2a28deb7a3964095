package scenarios

import (
	"hash/fnv"
	"testing"
	"time"
)

// TestJobKeyStable pins the variant key down to the exact string: the key is
// a cross-process wire contract (shard assignment, result-cache identity,
// dedup), so any drift in its format silently repartitions distributed
// sweeps.  If this test fails, the shard key contract has changed and every
// participant of a distributed sweep must change together.
func TestJobKeyStable(t *testing.T) {
	sc, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("scenario 7 missing")
	}
	job := Job{Scenario: sc, Options: Options{CorrectDefects: true}}
	want := sc.Name + "|" + "20000000000" + "|" + job.Options.Label()
	if got := job.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}

	// A zero duration keys identically to the explicit default: both run the
	// same evaluation, so they must be the same variant.
	explicit := job
	explicit.Scenario.Duration = DefaultDuration
	if job.Key() != explicit.Key() {
		t.Errorf("zero-duration key %q != explicit-default key %q", job.Key(), explicit.Key())
	}
	longer := job
	longer.Scenario.Duration = 30 * time.Second
	if longer.Key() == job.Key() {
		t.Error("different durations must produce different keys")
	}
}

// TestFNV1a64MatchesStdlib checks the written-out hash against hash/fnv: the
// constants are spelled inline to make the contract self-evident, but they
// must be the published FNV-1a parameters.
func TestFNV1a64MatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "scn7-v30-d20-seeded|20000000000|defects", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := fnv1a64(s), h.Sum64(); got != want {
			t.Errorf("fnv1a64(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestShardPartition checks the three properties the distributed design rests
// on: every n-way split of a sweep is pairwise disjoint, covers the source
// exactly, and assigns each variant by pure function of its key — so
// re-enumerating (as a re-queued worker does) reproduces the partition.
func TestShardPartition(t *testing.T) {
	sweep := DefaultSweep()
	for _, n := range []int{1, 2, 3, 5, 8} {
		owner := make(map[string]int)
		total := 0
		for shard := 0; shard < n; shard++ {
			src := ShardSource(sweep.Source(), shard, n)
			for {
				j, ok := src.Next()
				if !ok {
					break
				}
				key := j.Key()
				if prev, dup := owner[key]; dup {
					t.Fatalf("n=%d: variant %q owned by shards %d and %d", n, key, prev, shard)
				}
				owner[key] = shard
				total++
			}
		}
		if want := sweep.Size(); total != want {
			t.Errorf("n=%d: shards cover %d variants, source has %d", n, total, want)
		}
		// Stability: a fresh enumeration agrees on every owner.
		src := sweep.Source()
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			if got := j.Shard(n); got != owner[j.Key()] {
				t.Fatalf("n=%d: variant %q owner changed between enumerations: %d then %d",
					n, j.Key(), owner[j.Key()], got)
			}
		}
	}
}

// TestShardSourcePreservesOrder checks shard sources yield their variants in
// source order — the property the coordinator's global reordering relies on.
func TestShardSourcePreservesOrder(t *testing.T) {
	sweep := ToleranceSweep()
	index := make(map[string]int)
	src := sweep.Source()
	for i := 0; ; i++ {
		j, ok := src.Next()
		if !ok {
			break
		}
		index[j.Key()] = i
	}
	const n = 3
	for shard := 0; shard < n; shard++ {
		last := -1
		src := ShardSource(sweep.Source(), shard, n)
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			if idx := index[j.Key()]; idx <= last {
				t.Fatalf("shard %d out of source order: index %d after %d", shard, idx, last)
			} else {
				last = idx
			}
		}
	}
}
