// Package monitor implements the run-time safety-goal monitoring of thesis
// Chapter 5: goals and ICPA-derived subgoals are evaluated on every
// simulation state, violations are recorded as intervals, and violations at
// the system level are matched against violations at the subsystem level to
// classify detections as hits, false positives and false negatives
// (thesis §5.1.2).  The ratio of false positives and false negatives is the
// empirical estimate of the residual emergence X and Y of §3.4.
//
// Monitors are passive: they observe state snapshots and never influence the
// monitored system, matching the thesis' separation of monitoring from the
// subsystems being monitored (§2.5.1).
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// Interval is a half-open range of state indices [Start, End) during which a
// goal was continuously violated.
type Interval struct {
	// Start is the first violating state index.
	Start int
	// End is the first non-violating state index after the violation (or
	// the trace length if the violation persisted to the end).
	End int
}

// Steps returns the violation length in states.
func (iv Interval) Steps() int { return iv.End - iv.Start }

// Duration converts the violation length to wall-clock time for the given
// state period.
func (iv Interval) Duration(period time.Duration) time.Duration {
	return time.Duration(iv.Steps()) * period
}

// StartTime returns the simulation time of the first violating state.
func (iv Interval) StartTime(period time.Duration) time.Duration {
	return time.Duration(iv.Start) * period
}

// Overlaps reports whether two intervals overlap when each is widened by
// tolerance steps on both sides.  The tolerance accounts for observation and
// actuation delays between hierarchy levels (thesis §2.5, Peters & Parnas).
func (iv Interval) Overlaps(other Interval, tolerance int) bool {
	aStart, aEnd := iv.Start-tolerance, iv.End+tolerance
	bStart, bEnd := other.Start-tolerance, other.End+tolerance
	return aStart < bEnd && bStart < aEnd
}

// String renders the interval.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// Monitor evaluates one safety goal at one monitoring location on every
// observed state and records the violation intervals.
type Monitor struct {
	// Goal is the monitored goal.
	Goal goals.Goal
	// Location is the hierarchy level the monitor is attached to
	// (e.g. "Vehicle", "Arbiter", "CA"); see thesis Table 5.3.
	Location string

	// eval is the reference evaluator of a NewReference monitor; nil for
	// the monitors a CompiledSuite or LaneSuite records verdicts into.
	eval        *temporal.Stepper
	period      time.Duration
	step        int
	inViolation bool
	current     Interval
	violations  []Interval
}

// NewReference creates a monitor whose goal is evaluated by the reference
// temporal.Stepper, which reads atoms through the string-keyed State API on
// every observation.  It is the independent oracle of the differential tests
// that prove the program-evaluated suites (CompiledSuite, LaneSuite) detect
// exactly the same violations.  The period converts bounded-past operator
// durations (non-positive defaults to 1 ms); it returns an error when the
// goal's formal definition cannot be monitored at run time (contains
// future-time operators).
func NewReference(g goals.Goal, location string, period time.Duration) (*Monitor, error) {
	if g.Formal == nil {
		return nil, fmt.Errorf("monitor: goal %q has no formal definition", g.Name)
	}
	ev, err := temporal.CompileReference(g.Formal, period)
	if err != nil {
		return nil, fmt.Errorf("monitor: goal %q: %w", g.Name, err)
	}
	if period <= 0 {
		period = time.Millisecond
	}
	return &Monitor{Goal: g, Location: location, eval: ev, period: period}, nil
}

// Observe evaluates the goal on the next state, folds the verdict into the
// violation intervals and returns true when the goal holds at that state.
// It panics on a program-fed monitor (one built by a CompiledSuite or
// LaneSuite): those monitors have no evaluator of their own and receive
// their verdicts from the suite's shared program instead.
func (m *Monitor) Observe(s temporal.State) bool {
	if m.eval == nil {
		panic("monitor: Observe on a program-fed monitor; verdicts come from its suite's shared program")
	}
	ok := m.eval.Step(s)
	if !ok && !m.inViolation {
		m.inViolation = true
		m.current = Interval{Start: m.step}
	}
	if ok && m.inViolation {
		m.current.End = m.step
		m.violations = append(m.violations, m.current)
		m.inViolation = false
	}
	m.step++
	return ok
}

// Finish closes any open violation interval at the end of a run.  It is safe
// to call multiple times.
func (m *Monitor) Finish() {
	if m.inViolation {
		m.current.End = m.step
		m.violations = append(m.violations, m.current)
		m.inViolation = false
	}
}

// Reset clears all recorded state so the monitor can observe a new run.  The
// violation-interval slice keeps its capacity, so a monitor reused across the
// runs of a sweep (e.g. inside an Engine worker's arena) records the next
// run's intervals without reallocating.
func (m *Monitor) Reset() {
	if m.eval != nil {
		m.eval.Reset()
	}
	m.step = 0
	m.inViolation = false
	m.current = Interval{}
	m.violations = m.violations[:0]
}

// Steps returns the number of states observed.
func (m *Monitor) Steps() int { return m.step }

// Period returns the state period the monitor was created with.
func (m *Monitor) Period() time.Duration { return m.period }

// Violations returns the recorded violation intervals (closed by Finish).
func (m *Monitor) Violations() []Interval {
	out := make([]Interval, len(m.violations))
	copy(out, m.violations)
	return out
}

// ViolationCount returns the number of distinct violation intervals.
func (m *Monitor) ViolationCount() int { return len(m.violations) }

// Violated reports whether the goal was violated at least once.
func (m *Monitor) Violated() bool { return len(m.violations) > 0 || m.inViolation }

// TotalViolationSteps returns the total number of violating states.
func (m *Monitor) TotalViolationSteps() int {
	total := 0
	for _, v := range m.violations {
		total += v.Steps()
	}
	if m.inViolation {
		total += m.step - m.current.Start
	}
	return total
}

// String summarises the monitor.
func (m *Monitor) String() string {
	return fmt.Sprintf("%s @ %s: %d violation(s)", m.Goal.Name, m.Location, m.ViolationCount())
}

// RunTrace replays a recorded trace through the monitor (resetting it first)
// and returns the violation intervals.  It is the batch counterpart of
// Observe for offline analysis of recorded scenarios.  Like Observe, it
// panics on a program-fed monitor (one retained from a CompiledSuite run):
// such monitors cannot re-evaluate their goal on their own.
func (m *Monitor) RunTrace(tr *temporal.Trace) []Interval {
	if m.eval == nil {
		panic("monitor: RunTrace on a program-fed monitor; its goal is evaluated by its suite's shared program")
	}
	m.Reset()
	for i := 0; i < tr.Len(); i++ {
		m.Observe(tr.At(i))
	}
	m.Finish()
	return m.Violations()
}

// ---------------------------------------------------------------------------
// Hierarchical monitoring and violation classification
// ---------------------------------------------------------------------------

// DetectionKind classifies a correspondence between system-level and
// subsystem-level violations (thesis §5.1.2).
type DetectionKind int

// Detection kinds.
const (
	// Hit: a goal violation with a corresponding subgoal violation.
	Hit DetectionKind = iota + 1
	// FalseNegative: a goal violation with no corresponding subgoal
	// violation — evidence of residual emergence X (hidden subgoals).
	FalseNegative
	// FalsePositive: a subgoal violation with no corresponding goal
	// violation — evidence of restrictive subgoals or redundant coverage
	// masking the problem (emergent behaviour Y).
	FalsePositive
)

// String names the detection kind.
func (k DetectionKind) String() string {
	switch k {
	case Hit:
		return "hit"
	case FalseNegative:
		return "false negative"
	case FalsePositive:
		return "false positive"
	default:
		return "unknown"
	}
}

// Detection is one classified correspondence.
type Detection struct {
	// Kind is the classification.
	Kind DetectionKind
	// GoalName is the parent goal (for hits and false negatives) or the
	// subgoal (for false positives).
	GoalName string
	// Location is the monitoring location of the violated goal.
	Location string
	// Interval is the violation interval being classified.
	Interval Interval
	// MatchedSubgoals lists subgoal names whose violations correspond to a
	// parent violation (hits only).
	MatchedSubgoals []string
}

// Hierarchy groups one parent (system-level) goal monitor with the monitors
// of its ICPA-derived subgoals at lower levels of the system hierarchy.
type Hierarchy struct {
	// Parent monitors the system-level goal.
	Parent *Monitor
	// Children monitor the subgoals.
	Children []*Monitor
	// Tolerance is the matching window, in states, used when deciding
	// whether a parent violation and a subgoal violation correspond.  It
	// absorbs the one-state observation delay and actuation delays between
	// hierarchy levels.
	Tolerance int
}

// NewHierarchy builds a hierarchy with the given matching tolerance.
func NewHierarchy(parent *Monitor, tolerance int, children ...*Monitor) *Hierarchy {
	return &Hierarchy{Parent: parent, Children: children, Tolerance: tolerance}
}

// Observe feeds the state to the parent and every child monitor.
func (h *Hierarchy) Observe(s temporal.State) {
	h.Parent.Observe(s)
	for _, c := range h.Children {
		c.Observe(s)
	}
}

// Finish closes open violation intervals on all monitors.
func (h *Hierarchy) Finish() {
	h.Parent.Finish()
	for _, c := range h.Children {
		c.Finish()
	}
}

// Classify matches parent violations against child violations and returns
// the hits, false negatives and false positives (thesis §5.1.2).
//
// Violation intervals are recorded in trace order, so each monitor's list is
// sorted by Start and End and pairwise disjoint.  Matching is therefore a
// sort-merge per child: for each parent violation the overlapping child
// violations form one contiguous range, and the range's lower bound only ever
// advances — O(parent + child + matches) instead of the all-pairs scan.
func (h *Hierarchy) Classify() []Detection {
	pvs := h.Parent.Violations()
	matched := make([][]string, len(pvs))
	var falsePositives []Detection

	for _, c := range h.Children {
		cvs := c.Violations()
		matchedChild := make([]bool, len(cvs))
		// lo is the first child interval not entirely before the current
		// parent interval.  Child ends are non-decreasing (disjoint, ordered
		// intervals) and parent starts are non-decreasing, so a child skipped
		// here can never overlap a later parent and lo advances monotonically.
		lo := 0
		for i, pv := range pvs {
			pStart, pEnd := pv.Start-h.Tolerance, pv.End+h.Tolerance
			for lo < len(cvs) && cvs[lo].End+h.Tolerance <= pStart {
				lo++
			}
			for j := lo; j < len(cvs) && cvs[j].Start-h.Tolerance < pEnd; j++ {
				matched[i] = append(matched[i], c.Goal.Name)
				matchedChild[j] = true
			}
		}
		for j, cv := range cvs {
			if !matchedChild[j] {
				falsePositives = append(falsePositives, Detection{
					Kind: FalsePositive, GoalName: c.Goal.Name, Location: c.Location, Interval: cv,
				})
			}
		}
	}

	var out []Detection
	for i, pv := range pvs {
		if names := matched[i]; len(names) > 0 {
			sort.Strings(names)
			out = append(out, Detection{
				Kind: Hit, GoalName: h.Parent.Goal.Name, Location: h.Parent.Location,
				Interval: pv, MatchedSubgoals: uniqueStrings(names),
			})
		} else {
			out = append(out, Detection{
				Kind: FalseNegative, GoalName: h.Parent.Goal.Name, Location: h.Parent.Location,
				Interval: pv,
			})
		}
	}
	return append(out, falsePositives...)
}

// Summary aggregates a classified detection list.
type Summary struct {
	// Hits, FalseNegatives and FalsePositives are the counts by kind.
	Hits           int `json:"hits"`
	FalseNegatives int `json:"false_negatives"`
	FalsePositives int `json:"false_positives"`
}

// Summarize counts detections by kind.
func Summarize(ds []Detection) Summary {
	var s Summary
	for _, d := range ds {
		switch d.Kind {
		case Hit:
			s.Hits++
		case FalseNegative:
			s.FalseNegatives++
		case FalsePositive:
			s.FalsePositives++
		}
	}
	return s
}

// Add accumulates another summary into this one and returns the result.
func (s Summary) Add(o Summary) Summary {
	s.Hits += o.Hits
	s.FalseNegatives += o.FalseNegatives
	s.FalsePositives += o.FalsePositives
	return s
}

// Sum aggregates summaries across runs, e.g. over every variant of a
// scenario sweep.
func Sum(summaries ...Summary) Summary {
	var total Summary
	for _, s := range summaries {
		total = total.Add(s)
	}
	return total
}

// Total returns the number of classified detections.
func (s Summary) Total() int { return s.Hits + s.FalseNegatives + s.FalsePositives }

// FalseNegativeRate returns the fraction of goal violations with no
// corresponding subgoal violation — the empirical estimate of hidden
// emergence X (thesis §3.4).  It is 0 when no goal violations occurred.
func (s Summary) FalseNegativeRate() float64 {
	goalViolations := s.Hits + s.FalseNegatives
	if goalViolations == 0 {
		return 0
	}
	return float64(s.FalseNegatives) / float64(goalViolations)
}

// FalsePositiveRate returns the fraction of classified detections that are
// unmatched subgoal violations — the empirical estimate of restrictive or
// redundantly covered subgoals Y (thesis §3.4).  It is 0 when there are no
// detections.
func (s Summary) FalsePositiveRate() float64 {
	if s.Total() == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(s.Total())
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("hits=%d false-negatives=%d false-positives=%d",
		s.Hits, s.FalseNegatives, s.FalsePositives)
}

// CompositionEvidence interprets a summary as empirical evidence about the
// composability of the monitored decomposition (thesis §3.4): false
// negatives witness hidden subgoals X (the decomposition is at best
// partially composable); false positives witness restriction or redundant
// coverage Y.
func (s Summary) CompositionEvidence() string {
	switch {
	case s.FalseNegatives == 0 && s.FalsePositives == 0 && s.Hits == 0:
		return "no violations observed; no evidence about composability"
	case s.FalseNegatives == 0 && s.FalsePositives == 0:
		return "all goal violations were detected by subgoals; consistent with full composability on this run"
	case s.FalseNegatives > 0 && s.FalsePositives > 0:
		return "subgoals only partially compose the goal (hidden X) and are restrictive or redundantly covered (Y)"
	case s.FalseNegatives > 0:
		return "subgoals only partially compose the goal: hidden dependencies X remain"
	default:
		return "subgoals are more restrictive than the goal or redundant coverage masked the fault (Y)"
	}
}

func uniqueStrings(in []string) []string {
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// ---------------------------------------------------------------------------
// Monitor suites (Table 5.3 style goal x location matrices)
// ---------------------------------------------------------------------------

// Suite is a collection of hierarchies observed together, one per system
// safety goal, as deployed for the thesis' vehicle evaluation.
type Suite struct {
	hierarchies []*Hierarchy

	// pmScratch / cmScratch are the reusable parent- and child-matched flag
	// buffers of FastSummary, so a summary-only classification allocates
	// nothing at steady state.  A Suite is single-goroutine, like its
	// monitors.
	pmScratch, cmScratch []bool
}

// NewSuite creates an empty suite.
func NewSuite() *Suite { return &Suite{} }

// Add registers a hierarchy.
func (s *Suite) Add(h *Hierarchy) { s.hierarchies = append(s.hierarchies, h) }

// Hierarchies returns the registered hierarchies.
func (s *Suite) Hierarchies() []*Hierarchy { return s.hierarchies }

// Observe feeds the state to every hierarchy.
func (s *Suite) Observe(st temporal.State) {
	for _, h := range s.hierarchies {
		h.Observe(st)
	}
}

// Finish closes all monitors.
func (s *Suite) Finish() {
	for _, h := range s.hierarchies {
		h.Finish()
	}
}

// Monitors returns every monitor in the suite (parents then children, per
// hierarchy).
func (s *Suite) Monitors() []*Monitor {
	var out []*Monitor
	for _, h := range s.hierarchies {
		out = append(out, h.Parent)
		out = append(out, h.Children...)
	}
	return out
}

// Classify classifies every hierarchy and returns the detections keyed by
// parent goal name.
func (s *Suite) Classify() map[string][]Detection {
	m, _ := s.ClassifyAll()
	return m
}

// ClassifyAll classifies every hierarchy exactly once and returns both the
// detections keyed by parent goal name and the aggregate summary.  The
// summary is folded per hierarchy, not from the map, so hierarchies sharing
// a parent goal name (e.g. one goal monitored at several locations) are all
// counted even though the map retains only the last one per name.  It is the
// single-pass form of calling Classify and Summary separately, each of which
// reclassifies every hierarchy.
func (s *Suite) ClassifyAll() (map[string][]Detection, Summary) {
	out := make(map[string][]Detection, len(s.hierarchies))
	var sum Summary
	for _, h := range s.hierarchies {
		ds := h.Classify()
		out[h.Parent.Goal.Name] = ds
		sum = sum.Add(Summarize(ds))
	}
	return out, sum
}

// Summary aggregates the classification of all hierarchies.
func (s *Suite) Summary() Summary {
	_, sum := s.ClassifyAll()
	return sum
}

// FastSummary computes exactly the Summary ClassifyAll returns — the same
// sort-merge matching per hierarchy — without materializing any Detection,
// interval copy or per-goal map.  It is the classification path for
// summary-only sweeps, where only the hit / false-negative / false-positive
// counts survive the run: with the suite's reusable scratch buffers it
// allocates nothing at steady state.
func (s *Suite) FastSummary() Summary {
	var sum Summary
	for _, h := range s.hierarchies {
		sum = sum.Add(h.countSummaryAt(h.Tolerance, &s.pmScratch, &s.cmScratch))
	}
	return sum
}

// FastSummaryAt is FastSummary with the hit-matching tolerance overridden:
// every hierarchy is classified as if it had been built with the given
// window instead of its own.  The tolerance only parameterizes the
// final interval matching — it never influences which violations a run
// records — so one suite's recorded intervals can be classified at K
// different tolerances after a single observation pass, which is what turns
// a grouped K-tolerance sweep into one simulation instead of K.  Like
// FastSummary it reuses the suite's scratch buffers and allocates nothing
// at steady state.
func (s *Suite) FastSummaryAt(tolerance int) Summary {
	var sum Summary
	for _, h := range s.hierarchies {
		sum = sum.Add(h.countSummaryAt(tolerance, &s.pmScratch, &s.cmScratch))
	}
	return sum
}

// resizeCleared returns (*buf)[:n] with every flag false, growing the backing
// array only when n exceeds its capacity.
func resizeCleared(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
		*buf = b
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	return b
}

// countSummaryAt is the counting form of Classify at an explicit matching
// tolerance: each parent violation is one hit (some child violation
// corresponds) or one false negative, and each unmatched child violation is
// one false positive.  The interval matching is the same monotone sort-merge
// per child; only the detections themselves are never built.  Classify reads
// h.Tolerance; callers wanting its behaviour pass it explicitly (FastSummary)
// or override it per call (FastSummaryAt).
func (h *Hierarchy) countSummaryAt(tolerance int, pmBuf, cmBuf *[]bool) Summary {
	pvs := h.Parent.violations
	pm := resizeCleared(pmBuf, len(pvs))
	var sum Summary
	for _, c := range h.Children {
		cvs := c.violations
		if len(cvs) == 0 {
			continue
		}
		cm := resizeCleared(cmBuf, len(cvs))
		lo := 0
		for i, pv := range pvs {
			pStart, pEnd := pv.Start-tolerance, pv.End+tolerance
			for lo < len(cvs) && cvs[lo].End+tolerance <= pStart {
				lo++
			}
			for j := lo; j < len(cvs) && cvs[j].Start-tolerance < pEnd; j++ {
				pm[i] = true
				cm[j] = true
			}
		}
		for _, matched := range cm {
			if !matched {
				sum.FalsePositives++
			}
		}
	}
	for _, matched := range pm {
		if matched {
			sum.Hits++
		} else {
			sum.FalseNegatives++
		}
	}
	return sum
}

// ViolationReport is one row of a scenario violation table (Appendix D):
// a goal, the location it was monitored at, and its violations.
type ViolationReport struct {
	// GoalName identifies the goal or subgoal.
	GoalName string
	// Location is the monitoring location.
	Location string
	// Violations are the recorded intervals.
	Violations []Interval
	// Period is the state period for time conversion.
	Period time.Duration
}

// Report collects a violation report row for every monitor in the suite that
// recorded at least one violation, sorted by goal name then location.
func (s *Suite) Report() []ViolationReport {
	var out []ViolationReport
	for _, m := range s.Monitors() {
		if m.ViolationCount() == 0 {
			continue
		}
		out = append(out, ViolationReport{
			GoalName:   m.Goal.Name,
			Location:   m.Location,
			Violations: m.Violations(),
			Period:     m.Period(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GoalName != out[j].GoalName {
			return out[i].GoalName < out[j].GoalName
		}
		return out[i].Location < out[j].Location
	})
	return out
}

// String renders the report row.
func (r ViolationReport) String() string {
	parts := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		parts[i] = fmt.Sprintf("t=%.3fs for %s", v.StartTime(r.Period).Seconds(), v.Duration(r.Period))
	}
	return fmt.Sprintf("%-55s %-10s %s", r.GoalName, r.Location, strings.Join(parts, "; "))
}
