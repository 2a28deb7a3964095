package monitor

import (
	"math/rand"
	"testing"
	"time"
)

// TestFastSummaryAtMatchesDedicatedSuite is the monitor-level proof behind
// grouped scenario execution: classifying one observed run at tolerance B via
// FastSummaryAt must equal the ClassifyAll summary of a suite BUILT at
// tolerance B that observed the identical states.  The recorded violation
// intervals depend only on the observations, never on the registered
// tolerance, so one observation pass supports classification at any number
// of tolerances.
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
		classified := make(map[int]Summary, len(tolerances))
		for tol, cs := range suites {
			cs.Finish()
			_, classified[tol] = cs.ClassifyAll()
		}

		for _, own := range tolerances {
			cs := suites[own]
			if got, want := cs.FastSummaryAt(own), classified[own]; got != want {
				t.Errorf("seed %d: FastSummaryAt(own %d) = %v, ClassifyAll = %v", seed, own, got, want)
			}
			for _, other := range tolerances {
				got, want := cs.FastSummaryAt(other), classified[other]
				if got != want {
					t.Errorf("seed %d: suite@%d.FastSummaryAt(%d) = %v, dedicated suite@%d ClassifyAll = %v",
						seed, own, other, got, other, want)
				}
				if other != own && got != classified[own] {
					differed = true
				}
			}
			// Classification at a foreign tolerance reads the recorded
			// intervals without disturbing them: the suite's own
			// classification is unchanged afterwards, as are repeated
			// overridden reads.
			if _, got := cs.ClassifyAll(); got != classified[own] {
				t.Errorf("seed %d: FastSummaryAt mutated suite@%d: ClassifyAll now %v, want %v",
					seed, own, got, classified[own])
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
