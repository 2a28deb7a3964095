package monitor

import (
	"math/rand"
	"testing"
	"time"
)

// TestFastSummaryAtMatchesDedicatedSuite is the monitor-level proof behind
// grouped scenario execution: classifying one observed run at tolerance B via
// FastSummaryAt must equal the FastSummary of a suite BUILT at tolerance B
// that observed the identical states.  The recorded violation intervals
// depend only on the observations, never on the registered tolerance, so one
// observation pass supports classification at any number of tolerances.
func TestFastSummaryAtMatchesDedicatedSuite(t *testing.T) {
	tolerances := []int{1, 4, 16}
	differed := false
	for seed := int64(0); seed < 10; seed++ {
		suites := make(map[int]*CompiledSuite, len(tolerances))
		for _, tol := range tolerances {
			cs := NewCompiledSuite(time.Millisecond, nil)
			for _, h := range compiledPlan() {
				if err := cs.AddHierarchy(h.parent, tol, h.children...); err != nil {
					t.Fatalf("AddHierarchy(%s): %v", h.parent.Goal.Name, err)
				}
			}
			suites[tol] = cs
		}

		// Every suite observes the identical state sequence.
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			st := compiledRandState(r)
			for _, cs := range suites {
				cs.Observe(st)
			}
		}
		for _, cs := range suites {
			cs.Finish()
		}

		for _, own := range tolerances {
			cs := suites[own]
			if got, want := cs.FastSummaryAt(own), cs.Suite().FastSummary(); got != want {
				t.Errorf("seed %d: FastSummaryAt(own %d) = %v, FastSummary = %v", seed, own, got, want)
			}
			for _, other := range tolerances {
				got := cs.FastSummaryAt(other)
				want := suites[other].Suite().FastSummary()
				if got != want {
					t.Errorf("seed %d: suite@%d.FastSummaryAt(%d) = %v, dedicated suite@%d = %v",
						seed, own, other, got, suites[other].Suite().FastSummary(), other)
				}
				if other != own && got != cs.Suite().FastSummary() {
					differed = true
				}
			}
			// Classification at a foreign tolerance reads the recorded
			// intervals without disturbing them: the suite's own summary is
			// unchanged afterwards, as are repeated overridden reads.
			if got, want := cs.Suite().FastSummary(), suites[own].Suite().Summary(); got != want {
				t.Errorf("seed %d: FastSummaryAt mutated suite@%d: FastSummary now %v, want %v",
					seed, own, got, want)
			}
			first := cs.FastSummaryAt(tolerances[0])
			if again := cs.FastSummaryAt(tolerances[0]); again != first {
				t.Errorf("seed %d: repeated FastSummaryAt(%d) flapped: %v then %v",
					seed, tolerances[0], first, again)
			}
		}
	}
	if !differed {
		t.Error("every tolerance produced the same summary on every seed: the differential has no teeth")
	}
}
