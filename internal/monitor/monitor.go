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
	"slices"
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

// Steps returns the number of states a reference monitor observed.
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

// String summarises the monitor.
func (m *Monitor) String() string {
	return fmt.Sprintf("%s @ %s: %d violation(s)", m.Goal.Name, m.Location, m.ViolationCount())
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
// the hits, false negatives and false positives (thesis §5.1.2): the parent
// violations in trace order, each a hit listing the sorted names of the
// subgoals that matched it or a false negative, then every unmatched child
// violation as a false positive, child by child.
func (h *Hierarchy) Classify() []Detection {
	pvs := h.Parent.violations
	matched := make([][]string, len(pvs))
	var pmBuf, cmBuf []bool
	var falsePositives []Detection
	for _, c := range h.Children {
		cvs := c.violations
		if len(cvs) == 0 {
			continue
		}
		pm := resizeCleared(&pmBuf, len(pvs))
		cm := resizeCleared(&cmBuf, len(cvs))
		matchChild(pvs, cvs, h.Tolerance, pm, cm)
		for i, ok := range pm {
			if ok {
				matched[i] = append(matched[i], c.Goal.Name)
			}
		}
		for j, ok := range cm {
			if !ok {
				falsePositives = append(falsePositives, Detection{
					Kind: FalsePositive, GoalName: c.Goal.Name, Location: c.Location, Interval: cvs[j],
				})
			}
		}
	}

	var out []Detection
	for i, pv := range pvs {
		d := Detection{Kind: FalseNegative, GoalName: h.Parent.Goal.Name, Location: h.Parent.Location, Interval: pv}
		if names := matched[i]; len(names) > 0 {
			slices.Sort(names)
			d.Kind, d.MatchedSubgoals = Hit, slices.Compact(names)
		}
		out = append(out, d)
	}
	return append(out, falsePositives...)
}

// matchChild is the interval matching rule of §5.1.2 for one child monitor:
// it sets pm[i] when parent violation i and some child violation overlap once
// both are widened by tol states on each side, and cm[j] when child
// violation j overlaps some parent violation.  It never clears a flag, so pm
// accumulates across the children of a hierarchy.
//
// Violation intervals are recorded in trace order, so each list is sorted by
// Start and End and pairwise disjoint.  Matching is therefore a sort-merge:
// for each parent violation the overlapping child violations form one
// contiguous range whose lower bound only ever advances — O(parent + child +
// matches) instead of the all-pairs scan.
func matchChild(pvs, cvs []Interval, tol int, pm, cm []bool) {
	// lo is the first child interval not entirely before the current parent
	// interval.  Child ends are non-decreasing (disjoint, ordered intervals)
	// and parent starts are non-decreasing, so a child skipped here can never
	// overlap a later parent and lo advances monotonically.
	lo := 0
	for i, pv := range pvs {
		pStart, pEnd := pv.Start-tol, pv.End+tol
		for lo < len(cvs) && cvs[lo].End+tol <= pStart {
			lo++
		}
		for j := lo; j < len(cvs) && cvs[j].Start-tol < pEnd; j++ {
			pm[i] = true
			cm[j] = true
		}
	}
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

// ---------------------------------------------------------------------------
// Monitor suites (Table 5.3 style goal x location matrices)
// ---------------------------------------------------------------------------

// Suite is a collection of hierarchies observed together, one per system
// safety goal, as deployed for the thesis' vehicle evaluation.
type Suite struct {
	hierarchies []*Hierarchy

	// pmScratch / cmScratch are the reusable parent- and child-matched flag
	// buffers of FastSummaryAt, so a summary-only classification allocates
	// nothing at steady state.  A Suite is single-goroutine, like its
	// monitors.
	pmScratch, cmScratch []bool
}

// NewSuite creates an empty suite.
func NewSuite() *Suite { return &Suite{} }

// Add registers a hierarchy.
func (s *Suite) Add(h *Hierarchy) { s.hierarchies = append(s.hierarchies, h) }

// Clone returns an independent copy of the suite with every hierarchy's
// matching tolerance set to the given window: the same goals, locations and
// recorded violation intervals, in one allocation each for the hierarchies,
// the monitors, the child lists and the intervals.  The copy's monitors
// record nothing further (Observe on them panics, as on a program-fed
// monitor), so it serves classification and reports.  A lane arena that
// reuses its suite for run after run hands each run's result a clone.
func (s *Suite) Clone(tolerance int) *Suite {
	nm, ni := 0, 0
	for _, h := range s.hierarchies {
		nm += 1 + len(h.Children)
		ni += len(h.Parent.violations)
		for _, c := range h.Children {
			ni += len(c.violations)
		}
	}
	hs := make([]Hierarchy, len(s.hierarchies))
	out := &Suite{hierarchies: make([]*Hierarchy, len(s.hierarchies))}
	ms := make([]Monitor, 0, nm)
	kids := make([]*Monitor, 0, nm-len(s.hierarchies))
	ivs := make([]Interval, 0, ni)
	clone := func(m *Monitor) *Monitor {
		c := *m
		c.eval = nil
		n := len(ivs)
		ivs = append(ivs, m.violations...)
		c.violations = ivs[n:len(ivs):len(ivs)]
		ms = append(ms, c)
		return &ms[len(ms)-1]
	}
	for i, h := range s.hierarchies {
		hs[i] = Hierarchy{Parent: clone(h.Parent), Tolerance: tolerance}
		n := len(kids)
		for _, c := range h.Children {
			kids = append(kids, clone(c))
		}
		hs[i].Children = kids[n:len(kids):len(kids)]
		out.hierarchies[i] = &hs[i]
	}
	return out
}

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

// ClassifyAll classifies every hierarchy exactly once and returns both the
// detections keyed by parent goal name and the aggregate summary.  The
// summary is folded per hierarchy, not from the map, so hierarchies sharing
// a parent goal name (e.g. one goal monitored at several locations) are all
// counted even though the map retains only the last one per name.
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

// FastSummaryAt computes exactly the Summary ClassifyAll returns — the same
// matching rule per hierarchy — without materializing any Detection or
// per-goal map, with every hierarchy's hit-matching tolerance overridden by
// the given window.  It is the classification path for summary-only sweeps,
// where only the hit / false-negative / false-positive counts survive the
// run: with the suite's reusable scratch buffers it allocates nothing at
// steady state.  The tolerance only parameterizes the final interval
// matching — it never influences which violations a run records — so one
// suite's recorded intervals can be classified at K different tolerances
// after a single observation pass, which is what turns a grouped K-tolerance
// sweep into one simulation instead of K.
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
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// countSummaryAt is the counting form of Classify at an explicit matching
// tolerance: each parent violation is one hit (some child violation
// corresponds) or one false negative, and each unmatched child violation is
// one false positive.  It runs the same matchChild rule; only the detections
// themselves are never built.
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
		matchChild(pvs, cvs, tolerance, pm, cm)
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
