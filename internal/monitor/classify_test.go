package monitor

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// classifyQuadratic is the all-pairs reference implementation of
// Hierarchy.Classify that the sort-merge replaced; the differential test
// below proves the two agree on populations with many intervals.
func classifyQuadratic(h *Hierarchy) []Detection {
	var out []Detection

	childIntervals := make(map[*Monitor][]Interval, len(h.Children))
	matchedChild := make(map[*Monitor][]bool, len(h.Children))
	for _, c := range h.Children {
		ivs := c.Violations()
		childIntervals[c] = ivs
		matchedChild[c] = make([]bool, len(ivs))
	}

	for _, pv := range h.Parent.Violations() {
		var matched []string
		for _, c := range h.Children {
			for i, cv := range childIntervals[c] {
				if pv.Overlaps(cv, h.Tolerance) {
					matched = append(matched, c.Goal.Name)
					matchedChild[c][i] = true
				}
			}
		}
		if len(matched) > 0 {
			sort.Strings(matched)
			out = append(out, Detection{
				Kind: Hit, GoalName: h.Parent.Goal.Name, Location: h.Parent.Location,
				Interval: pv, MatchedSubgoals: slices.Compact(matched),
			})
		} else {
			out = append(out, Detection{
				Kind: FalseNegative, GoalName: h.Parent.Goal.Name, Location: h.Parent.Location,
				Interval: pv,
			})
		}
	}

	for _, c := range h.Children {
		for i, cv := range childIntervals[c] {
			if !matchedChild[c][i] {
				out = append(out, Detection{
					Kind: FalsePositive, GoalName: c.Goal.Name, Location: c.Location, Interval: cv,
				})
			}
		}
	}
	return out
}

// TestClassifySortMergeMatchesQuadratic drives a hierarchy through thousands
// of random states — producing hundreds of violation intervals per monitor —
// and requires, at every tolerance, the sort-merge classification to equal
// the all-pairs reference element for element and the counting path
// (Suite.FastSummaryAt) to equal the reference's summary.
func TestClassifySortMergeMatchesQuadratic(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		parent := referenceMonitor(goals.New("G", "", temporal.Var("p")), "Vehicle", time.Millisecond)
		children := []*Monitor{
			referenceMonitor(goals.New("Ga", "", temporal.Var("c0")), "Arbiter", time.Millisecond),
			referenceMonitor(goals.New("Gb", "", temporal.Var("c1")), "CA", time.Millisecond),
			referenceMonitor(goals.New("Gc", "", temporal.Var("c2")), "ACC", time.Millisecond),
		}
		suite := NewSuite()
		suite.Add(NewHierarchy(parent, 0, children...))

		r := rand.New(rand.NewSource(seed))
		st := temporal.NewState()
		for i := 0; i < 4000; i++ {
			st.SetBool("p", r.Intn(3) > 0)
			st.SetBool("c0", r.Intn(3) > 0)
			st.SetBool("c1", r.Intn(8) > 0)
			st.SetBool("c2", r.Intn(2) > 0)
			suite.Observe(st)
		}
		suite.Finish()

		if n := parent.ViolationCount(); n < 100 {
			t.Fatalf("seed %d: only %d parent intervals; the population is too small to exercise the merge", seed, n)
		}
		for _, tolerance := range []int{0, 1, 3, 10} {
			h := NewHierarchy(parent, tolerance, children...)
			got := h.Classify()
			want := classifyQuadratic(h)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tolerance %d: sort-merge classification diverges from the all-pairs reference (%d vs %d detections)",
					seed, tolerance, len(got), len(want))
			}
			if got, want := suite.FastSummaryAt(tolerance), Summarize(want); got != want {
				t.Fatalf("seed %d tolerance %d: FastSummaryAt = %v, all-pairs reference = %v", seed, tolerance, got, want)
			}
		}
	}
}

// TestOverlapsToleranceEdges pins the widening semantics at the boundaries:
// touching endpoints, zero-length intervals and negative widening.
func TestOverlapsToleranceEdges(t *testing.T) {
	tests := []struct {
		name      string
		a, b      Interval
		tolerance int
		want      bool
	}{
		// Touching endpoints: half-open intervals that share an endpoint do
		// not overlap untolerated; any positive tolerance joins them.
		{"touching, no tolerance", Interval{0, 5}, Interval{5, 8}, 0, false},
		{"touching, tolerance 1", Interval{0, 5}, Interval{5, 8}, 1, true},
		// A one-state gap needs the widening to reach across from one side.
		{"gap 1, no tolerance", Interval{0, 5}, Interval{6, 8}, 0, false},
		{"gap 1, tolerance 1", Interval{0, 5}, Interval{6, 8}, 1, true},
		// Zero-length intervals: empty on their own, but strictly inside
		// another interval they widen into an overlap even at tolerance 0.
		{"zero-length inside", Interval{5, 5}, Interval{3, 8}, 0, true},
		{"zero-length at start", Interval{5, 5}, Interval{5, 8}, 0, false},
		{"zero-length at start, tolerance 1", Interval{5, 5}, Interval{5, 8}, 1, true},
		{"two zero-length, same point", Interval{5, 5}, Interval{5, 5}, 0, false},
		{"two zero-length, same point, tolerance 1", Interval{5, 5}, Interval{5, 5}, 1, true},
		// Negative widening shrinks both intervals: a contact that survives
		// shrinking must be deep.
		{"overlap 1, negative tolerance", Interval{0, 5}, Interval{4, 8}, -1, false},
		{"overlap 3, negative tolerance", Interval{0, 5}, Interval{2, 8}, -1, true},
		{"contained, negative tolerance", Interval{2, 4}, Interval{0, 10}, -1, true},
		// Shrinking a one-state interval by one inverts it (start 3, end 2),
		// yet the endpoint algebra still reports an overlap while both
		// inverted endpoints lie strictly inside the other interval.
		{"inverted inner interval still contained", Interval{2, 3}, Interval{0, 10}, -1, true},
		{"inverted interval at the edge", Interval{0, 1}, Interval{1, 10}, -1, false},
	}
	for _, tt := range tests {
		if got := tt.a.Overlaps(tt.b, tt.tolerance); got != tt.want {
			t.Errorf("%s: %v.Overlaps(%v, %d) = %v, want %v", tt.name, tt.a, tt.b, tt.tolerance, got, tt.want)
		}
		if got := tt.b.Overlaps(tt.a, tt.tolerance); got != tt.want {
			t.Errorf("%s: overlap must be symmetric", tt.name)
		}
	}
}
