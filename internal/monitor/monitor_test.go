package monitor

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/goals"
	"repro/internal/temporal"
)

func accelGoal() goals.Goal {
	return goals.MustParse("Achieve[AutoAccelBelowThreshold]",
		"Vehicle acceleration caused by autonomous vehicle control shall not exceed 2 m/s2.",
		"autoSource => accel <= 2")
}

func state(auto bool, accel float64) temporal.State {
	return temporal.NewState().SetBool("autoSource", auto).SetNumber("accel", accel)
}

// referenceMonitor is NewReference for statically valid test goals.
func referenceMonitor(g goals.Goal, location string, period time.Duration) *Monitor {
	m, err := NewReference(g, location, period)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewMonitorErrors(t *testing.T) {
	if _, err := NewReference(goals.Goal{Name: "empty"}, "Vehicle", time.Millisecond); err == nil {
		t.Error("goal without formal definition should be rejected")
	}
	future := goals.New("Achieve[X]", "", temporal.Implies(temporal.Var("A"), temporal.Eventually(temporal.Var("B"))))
	if _, err := NewReference(future, "Vehicle", time.Millisecond); err == nil {
		t.Error("future-time goal should be rejected")
	}
	m, err := NewReference(accelGoal(), "Vehicle", 0)
	if err != nil || m.Period() != time.Millisecond {
		t.Errorf("zero period should default to 1ms, got %v (error %v)", m.Period(), err)
	}
}

func TestMonitorViolationIntervals(t *testing.T) {
	m := referenceMonitor(accelGoal(), "Vehicle", time.Millisecond)

	inputs := []struct {
		auto  bool
		accel float64
	}{
		{false, 5.0}, // driver accelerating hard: no violation
		{true, 1.0},
		{true, 2.5}, // violation starts (index 2)
		{true, 3.0},
		{true, 1.0}, // violation ends (index 4)
		{true, 2.2}, // second violation (index 5)
	}
	for _, in := range inputs {
		m.Observe(state(in.auto, in.accel))
	}
	m.Finish()

	want := []Interval{{Start: 2, End: 4}, {Start: 5, End: 6}}
	if got := m.Violations(); !reflect.DeepEqual(got, want) {
		t.Errorf("Violations() = %v, want %v", got, want)
	}
	if got := m.ViolationCount(); got != 2 {
		t.Errorf("ViolationCount() = %d", got)
	}
	if m.Steps() != len(inputs) {
		t.Errorf("Steps() = %d", m.Steps())
	}
	if !strings.Contains(m.String(), "2 violation(s)") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestMonitorFinishIdempotentAndReset(t *testing.T) {
	m := referenceMonitor(accelGoal(), "Vehicle", time.Millisecond)
	m.Observe(state(true, 3)) // open violation
	if m.ViolationCount() != 0 {
		t.Errorf("an open violation is recorded only by Finish, got %d", m.ViolationCount())
	}
	m.Finish()
	m.Finish()
	if m.ViolationCount() != 1 {
		t.Errorf("ViolationCount() = %d, want 1", m.ViolationCount())
	}
	m.Observe(state(true, 3)) // open again
	m.Reset()
	// Reset also drops the open violation, so Finish has nothing to close.
	m.Finish()
	if m.ViolationCount() != 0 || m.Steps() != 0 {
		t.Error("Reset should clear all state")
	}
}

// replay observes every state of a recorded trace on the reset monitor and
// returns its violation intervals.
func replay(m *Monitor, tr *temporal.Trace) []Interval {
	m.Reset()
	tr.Walk(func(_ int, st temporal.State) { m.Observe(st) })
	m.Finish()
	return m.Violations()
}

func TestMonitorResetReplaysTrace(t *testing.T) {
	m := referenceMonitor(accelGoal(), "Vehicle", time.Millisecond)
	tr := temporal.NewTrace(time.Millisecond)
	tr.Append(state(true, 1))
	tr.Append(state(true, 3))
	tr.Append(state(true, 1))
	got := replay(m, tr)
	want := []Interval{{Start: 1, End: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %v, want %v", got, want)
	}
	// Reset rewinds the evaluator too, so a second replay yields the same
	// result.
	if got2 := replay(m, tr); !reflect.DeepEqual(got2, want) {
		t.Errorf("second replay = %v", got2)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Start: 10, End: 14}
	if iv.Steps() != 4 {
		t.Errorf("Steps() = %d", iv.Steps())
	}
	if iv.Duration(time.Millisecond) != 4*time.Millisecond {
		t.Errorf("Duration() = %v", iv.Duration(time.Millisecond))
	}
	if iv.StartTime(time.Millisecond) != 10*time.Millisecond {
		t.Errorf("StartTime() = %v", iv.StartTime(time.Millisecond))
	}
	if iv.String() != "[10,14)" {
		t.Errorf("String() = %q", iv.String())
	}

	tests := []struct {
		a, b      Interval
		tolerance int
		want      bool
	}{
		{Interval{0, 5}, Interval{3, 8}, 0, true},
		{Interval{0, 5}, Interval{5, 8}, 0, false},
		{Interval{0, 5}, Interval{6, 8}, 2, true},
		{Interval{0, 5}, Interval{20, 25}, 2, false},
		{Interval{10, 12}, Interval{0, 5}, 0, false},
		{Interval{10, 12}, Interval{0, 10}, 1, true},
	}
	for _, tt := range tests {
		if got := tt.a.Overlaps(tt.b, tt.tolerance); got != tt.want {
			t.Errorf("%v.Overlaps(%v, %d) = %v, want %v", tt.a, tt.b, tt.tolerance, got, tt.want)
		}
		if got := tt.b.Overlaps(tt.a, tt.tolerance); got != tt.want {
			t.Errorf("overlap should be symmetric for %v and %v", tt.a, tt.b)
		}
	}
}

func TestPropOverlapSymmetric(t *testing.T) {
	f := func(a, b, c, d uint8, tol uint8) bool {
		i1 := Interval{Start: int(a), End: int(a) + int(b)%50 + 1}
		i2 := Interval{Start: int(c), End: int(c) + int(d)%50 + 1}
		to := int(tol % 10)
		return i1.Overlaps(i2, to) == i2.Overlaps(i1, to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDetectionKindString(t *testing.T) {
	for k, want := range map[DetectionKind]string{
		Hit: "hit", FalseNegative: "false negative", FalsePositive: "false positive",
		DetectionKind(0): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("DetectionKind.String() = %q, want %q", got, want)
		}
	}
}

// buildHierarchy creates a parent goal monitored at the vehicle level and a
// subgoal monitored at the Arbiter level, mirroring goal 1 of the thesis.
func buildHierarchy(tolerance int) (*Hierarchy, *Monitor, *Monitor) {
	parent := referenceMonitor(accelGoal(), "Vehicle", time.Millisecond)
	sub := referenceMonitor(goals.MustParse("Achieve[AutoAccelCommandBelowThreshold]",
		"The arbiter's acceleration command shall not exceed the threshold.",
		"cmdFromSubsystem => accelCmd <= 2"), "Arbiter", time.Millisecond)
	return NewHierarchy(parent, tolerance, sub), parent, sub
}

func hierState(auto bool, accel float64, cmdSub bool, cmd float64) temporal.State {
	return temporal.NewState().
		SetBool("autoSource", auto).SetNumber("accel", accel).
		SetBool("cmdFromSubsystem", cmdSub).SetNumber("accelCmd", cmd)
}

func TestHierarchyHit(t *testing.T) {
	h, _, _ := buildHierarchy(5)
	// The arbiter command exceeds the limit, and shortly afterwards the
	// vehicle acceleration does too: a hit.
	for i := 0; i < 20; i++ {
		cmd, accel := 1.0, 1.0
		if i >= 5 && i < 10 {
			cmd = 3.0
		}
		if i >= 7 && i < 12 {
			accel = 2.6
		}
		h.Observe(hierState(true, accel, true, cmd))
	}
	h.Finish()
	ds := h.Classify()
	sum := Summarize(ds)
	if sum.Hits != 1 || sum.FalseNegatives != 0 || sum.FalsePositives != 0 {
		t.Fatalf("expected a single hit, got %s (%v)", sum, ds)
	}
	if len(ds[0].MatchedSubgoals) != 1 || ds[0].MatchedSubgoals[0] != "Achieve[AutoAccelCommandBelowThreshold]" {
		t.Errorf("MatchedSubgoals = %v", ds[0].MatchedSubgoals)
	}
}

func TestHierarchyFalseNegative(t *testing.T) {
	h, _, _ := buildHierarchy(5)
	// Vehicle acceleration violates the goal but the arbiter command never
	// does: the subgoals did not compose the goal (hidden X).
	for i := 0; i < 20; i++ {
		accel := 1.0
		if i >= 5 && i < 9 {
			accel = 2.7
		}
		h.Observe(hierState(true, accel, true, 1.0))
	}
	h.Finish()
	sum := Summarize(h.Classify())
	if sum.FalseNegatives != 1 || sum.Hits != 0 || sum.FalsePositives != 0 {
		t.Fatalf("expected a single false negative, got %s", sum)
	}
	if !strings.Contains(sum.CompositionEvidence(), "partially compose") {
		t.Errorf("CompositionEvidence() = %q", sum.CompositionEvidence())
	}
}

func TestHierarchyFalsePositive(t *testing.T) {
	h, _, _ := buildHierarchy(5)
	// The arbiter command violates its subgoal but the vehicle-level goal is
	// never violated (e.g. redundant coverage downstream filtered it).
	for i := 0; i < 30; i++ {
		cmd := 1.0
		if i >= 5 && i < 8 {
			cmd = 3.5
		}
		h.Observe(hierState(true, 1.0, true, cmd))
	}
	h.Finish()
	sum := Summarize(h.Classify())
	if sum.FalsePositives != 1 || sum.Hits != 0 || sum.FalseNegatives != 0 {
		t.Fatalf("expected a single false positive, got %s", sum)
	}
	if !strings.Contains(sum.CompositionEvidence(), "restrictive") {
		t.Errorf("CompositionEvidence() = %q", sum.CompositionEvidence())
	}
}

func TestHierarchyToleranceMatching(t *testing.T) {
	// Parent and child violations separated by 10 steps: matched only when
	// the tolerance is large enough.
	build := func(tolerance int) Summary {
		h, _, _ := buildHierarchy(tolerance)
		for i := 0; i < 40; i++ {
			cmd, accel := 1.0, 1.0
			if i >= 5 && i < 7 {
				cmd = 3.0
			}
			if i >= 17 && i < 19 {
				accel = 3.0
			}
			h.Observe(hierState(true, accel, true, cmd))
		}
		h.Finish()
		return Summarize(h.Classify())
	}
	loose := build(15)
	if loose.Hits != 1 {
		t.Errorf("with tolerance 15 expected a hit, got %s", loose)
	}
	strict := build(2)
	if strict.Hits != 0 || strict.FalseNegatives != 1 || strict.FalsePositives != 1 {
		t.Errorf("with tolerance 2 expected FN+FP, got %s", strict)
	}
}

func TestSummaryAddAndEvidence(t *testing.T) {
	s := Summary{Hits: 1}.Add(Summary{FalseNegatives: 2, FalsePositives: 3})
	if s.Hits != 1 || s.FalseNegatives != 2 || s.FalsePositives != 3 {
		t.Errorf("Add() = %+v", s)
	}
	if !strings.Contains(s.String(), "hits=1") {
		t.Errorf("String() = %q", s.String())
	}
	if got := (Summary{}).CompositionEvidence(); !strings.Contains(got, "no violations") {
		t.Errorf("empty evidence = %q", got)
	}
	if got := (Summary{Hits: 2}).CompositionEvidence(); !strings.Contains(got, "consistent with full composability") {
		t.Errorf("hit-only evidence = %q", got)
	}
	both := Summary{FalseNegatives: 1, FalsePositives: 1}
	if !strings.Contains(both.CompositionEvidence(), "hidden X") {
		t.Errorf("both evidence = %q", both.CompositionEvidence())
	}
}

func TestSuite(t *testing.T) {
	s := NewSuite()
	h, parent, sub := buildHierarchy(5)
	s.Add(h)

	for i := 0; i < 10; i++ {
		accel, cmd := 1.0, 1.0
		if i >= 3 && i < 6 {
			accel, cmd = 3.0, 3.0
		}
		s.Observe(hierState(true, accel, true, cmd))
	}
	s.Finish()

	if len(s.Hierarchies()) != 1 {
		t.Fatalf("Hierarchies() = %d", len(s.Hierarchies()))
	}
	if got := len(s.Monitors()); got != 2 {
		t.Fatalf("Monitors() = %d", got)
	}
	if parent.ViolationCount() != 1 || sub.ViolationCount() != 1 {
		t.Fatalf("expected one violation each, got %d / %d", parent.ViolationCount(), sub.ViolationCount())
	}
	byGoal, sum := s.ClassifyAll()
	if len(byGoal[parent.Goal.Name]) == 0 {
		t.Error("ClassifyAll() should include the parent goal")
	}
	if sum.Hits != 1 {
		t.Errorf("ClassifyAll() summary = %s", sum)
	}
	if fast := s.FastSummaryAt(5); fast != sum {
		t.Errorf("FastSummaryAt(5) = %s, ClassifyAll summary = %s", fast, sum)
	}
	report := s.Report()
	if len(report) != 2 {
		t.Fatalf("Report() rows = %d, want 2", len(report))
	}
	if !strings.Contains(report[0].String(), "t=") {
		t.Errorf("report row = %q", report[0].String())
	}
	// Rows are sorted by goal name.
	if report[0].GoalName > report[1].GoalName {
		t.Error("report rows should be sorted by goal name")
	}
}

func TestHitFalsePositiveNegativeClassification(t *testing.T) {
	// Mixed scenario: one hit, one false negative and one false positive in
	// the same run.
	h, _, _ := buildHierarchy(3)
	for i := 0; i < 80; i++ {
		cmd, accel := 1.0, 1.0
		switch {
		case i >= 5 && i < 8:
			cmd, accel = 3.0, 3.0 // hit
		case i >= 30 && i < 33:
			accel = 3.0 // false negative (goal violated, subgoal fine)
		case i >= 60 && i < 63:
			cmd = 3.0 // false positive (subgoal violated, goal fine)
		}
		h.Observe(hierState(true, accel, true, cmd))
	}
	h.Finish()
	sum := Summarize(h.Classify())
	if sum.Hits != 1 || sum.FalseNegatives != 1 || sum.FalsePositives != 1 {
		t.Fatalf("classification = %s, want 1/1/1", sum)
	}
}

func TestPropMonitorMatchesBatchViolations(t *testing.T) {
	// The monitor's violation intervals cover exactly the indices at which
	// the goal formula is false, for random traces.
	g := accelGoal()
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		length := int(n%60) + 1
		tr := temporal.NewTrace(time.Millisecond)
		for i := 0; i < length; i++ {
			tr.Append(state(r.Intn(2) == 0, r.Float64()*4))
		}
		m := referenceMonitor(g, "Vehicle", time.Millisecond)
		ivs := replay(m, tr)
		violating := make(map[int]bool)
		for _, iv := range ivs {
			for i := iv.Start; i < iv.End; i++ {
				violating[i] = true
			}
		}
		for i := 0; i < tr.Len(); i++ {
			if g.Formal.Eval(tr, i) == violating[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumAndRates(t *testing.T) {
	a := Summary{Hits: 2, FalseNegatives: 1}
	b := Summary{Hits: 1, FalsePositives: 3}
	total := a.Add(b)
	if total != (Summary{Hits: 3, FalseNegatives: 1, FalsePositives: 3}) {
		t.Errorf("Add = %+v", total)
	}
	if total.Total() != 7 {
		t.Errorf("Total = %d, want 7", total.Total())
	}
	if got := total.FalseNegativeRate(); got != 0.25 {
		t.Errorf("FalseNegativeRate = %g, want 0.25 (1 of 4 goal violations)", got)
	}
	if got := total.FalsePositiveRate(); got != 3.0/7.0 {
		t.Errorf("FalsePositiveRate = %g, want 3/7", got)
	}
	var empty Summary
	if empty.Add(empty) != empty || empty.FalseNegativeRate() != 0 || empty.FalsePositiveRate() != 0 {
		t.Error("empty summaries must aggregate to zero without dividing by zero")
	}
}

// TestClassifyAllSharedGoalName checks that a suite with two hierarchies
// monitoring the same parent goal (at different locations) counts both in
// the aggregate summary, even though the classification map — keyed by goal
// name — retains only one detection list per name.
func TestClassifyAllSharedGoalName(t *testing.T) {
	mk := func(location string) *Hierarchy {
		parent := referenceMonitor(accelGoal(), location, time.Millisecond)
		return NewHierarchy(parent, 0)
	}
	suite := NewSuite()
	suite.Add(mk("Vehicle"))
	suite.Add(mk("Arbiter"))
	// One violating state: both hierarchies record a parent violation with
	// no children, i.e. one false negative each.
	suite.Observe(state(true, 5.0))
	suite.Finish()

	m, sum := suite.ClassifyAll()
	if len(m) != 1 {
		t.Fatalf("classification map has %d entries, want 1 (shared goal name)", len(m))
	}
	if sum.FalseNegatives != 2 {
		t.Errorf("aggregate counted %d false negatives, want 2 (one per hierarchy)", sum.FalseNegatives)
	}
	if got := suite.FastSummaryAt(0); got != sum {
		t.Errorf("FastSummaryAt(0) = %v, ClassifyAll sum = %v", got, sum)
	}
}
