// Package hazard implements the traditional hazard-analysis baselines that
// the thesis contrasts ICPA with (thesis §2.2.1): Preliminary Hazard
// Analysis (PHA), Fault Tree Analysis (FTA, Figure 2.2) and Failure Modes
// and Effects Analysis (FMEA, Figure 2.3).
//
// These techniques search from hazards to component faults (FTA, backward)
// or from component faults to hazards (FMEA, forward), whereas ICPA traces
// goal state variables to the agents that influence them; implementing the
// baselines lets the repository regenerate the thesis' comparison figures
// and provides the hazard catalogue the vehicle safety goals are derived
// from.
package hazard

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Severity is the qualitative hazard severity used in a PHA.
type Severity int

// Severity levels (MIL-STD-882 style, as commonly used in PHA tables).
const (
	// SeverityNegligible hazards cause less than minor injury or damage.
	SeverityNegligible Severity = iota + 1
	// SeverityMarginal hazards cause minor injury or system damage.
	SeverityMarginal
	// SeverityCritical hazards cause severe injury or major damage.
	SeverityCritical
	// SeverityCatastrophic hazards cause death or system loss.
	SeverityCatastrophic
)

// String names the severity level.
func (s Severity) String() string {
	switch s {
	case SeverityNegligible:
		return "negligible"
	case SeverityMarginal:
		return "marginal"
	case SeverityCritical:
		return "critical"
	case SeverityCatastrophic:
		return "catastrophic"
	default:
		return "unknown"
	}
}

// PHAEntry is one row of a Preliminary Hazard Analysis: a hazard, its
// severity, and the mitigations added as the design progresses.
type PHAEntry struct {
	// Hazard describes the hazardous system state.
	Hazard string
	// Severity is the assessed severity.
	Severity Severity
	// Causes lists known potential causes.
	Causes []string
	// Mitigations lists prevention or mitigation measures; for this
	// repository they reference the derived system safety goals.
	Mitigations []string
}

// PHA is a Preliminary Hazard Analysis: the list of system-level hazards
// identified early in development.
type PHA struct {
	// System names the analysed system.
	System string
	// Entries are the hazard rows.
	Entries []PHAEntry
}

// Add appends an entry.
func (p *PHA) Add(e PHAEntry) { p.Entries = append(p.Entries, e) }

// Render writes the PHA as a plain-text table.
func (p *PHA) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Preliminary Hazard Analysis: %s\n", p.System)
	fmt.Fprintln(&b, strings.Repeat("-", 78))
	for _, e := range p.Entries {
		fmt.Fprintf(&b, "%-48s %s\n", e.Hazard, e.Severity)
		if len(e.Causes) > 0 {
			fmt.Fprintf(&b, "    causes: %s\n", strings.Join(e.Causes, "; "))
		}
		if len(e.Mitigations) > 0 {
			fmt.Fprintf(&b, "    mitigations: %s\n", strings.Join(e.Mitigations, "; "))
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fault Tree Analysis
// ---------------------------------------------------------------------------

// GateKind is the logical gate type of a fault-tree node.
type GateKind int

// Gate kinds.
const (
	// GateBasic is a leaf basic event with a probability of occurrence.
	GateBasic GateKind = iota + 1
	// GateAnd requires all input events to occur.
	GateAnd
	// GateOr requires at least one input event to occur.
	GateOr
)

// String names the gate kind.
func (g GateKind) String() string {
	switch g {
	case GateBasic:
		return "basic"
	case GateAnd:
		return "AND"
	case GateOr:
		return "OR"
	default:
		return "unknown"
	}
}

// Event is a node of a fault tree: either a basic event (leaf) or an
// intermediate event combining children through an AND or OR gate.
type Event struct {
	// Name describes the event.
	Name string
	// Gate is the node kind.
	Gate GateKind
	// Probability is the occurrence probability (or rate per hour) of a
	// basic event; ignored for gates.
	Probability float64
	// Children are the gate inputs (empty for basic events).
	Children []*Event
}

// BasicEvent constructs a leaf event with a probability.
func BasicEvent(name string, probability float64) *Event {
	return &Event{Name: name, Gate: GateBasic, Probability: probability}
}

// AndGate constructs an intermediate event whose children must all occur.
func AndGate(name string, children ...*Event) *Event {
	return &Event{Name: name, Gate: GateAnd, Children: children}
}

// OrGate constructs an intermediate event where any child suffices.
func OrGate(name string, children ...*Event) *Event {
	return &Event{Name: name, Gate: GateOr, Children: children}
}

// FaultTree is a fault tree rooted at a top-level hazard.
type FaultTree struct {
	// Hazard is the top event.
	Hazard string
	// Root is the root node.
	Root *Event
}

// TopProbability computes the probability of the top event assuming basic
// events are independent: products across AND gates and the complement
// product across OR gates.
func (t *FaultTree) TopProbability() float64 {
	if t.Root == nil {
		return 0
	}
	return eventProbability(t.Root)
}

func eventProbability(e *Event) float64 {
	switch e.Gate {
	case GateBasic:
		return e.Probability
	case GateAnd:
		p := 1.0
		for _, c := range e.Children {
			p *= eventProbability(c)
		}
		if len(e.Children) == 0 {
			return 0
		}
		return p
	case GateOr:
		q := 1.0
		for _, c := range e.Children {
			q *= 1 - eventProbability(c)
		}
		return 1 - q
	default:
		return math.NaN()
	}
}

// CutSet is a set of basic-event names whose joint occurrence causes the top
// event.
type CutSet []string

// String renders the cut set.
func (c CutSet) String() string { return "{" + strings.Join(c, ", ") + "}" }

// MinimalCutSets computes the minimal cut sets of the tree by expanding OR
// gates into alternatives and AND gates into unions, then removing
// supersets.  Single-element cut sets are the single-point failures a
// traditional FTA aims to eliminate (thesis §2.2.1).
func (t *FaultTree) MinimalCutSets() []CutSet {
	if t.Root == nil {
		return nil
	}
	raw := cutSets(t.Root)
	return minimize(raw)
}

func cutSets(e *Event) []CutSet {
	switch e.Gate {
	case GateBasic:
		return []CutSet{{e.Name}}
	case GateOr:
		var out []CutSet
		for _, c := range e.Children {
			out = append(out, cutSets(c)...)
		}
		return out
	case GateAnd:
		out := []CutSet{{}}
		for _, c := range e.Children {
			child := cutSets(c)
			var next []CutSet
			for _, a := range out {
				for _, b := range child {
					next = append(next, unionSets(a, b))
				}
			}
			out = next
		}
		return out
	default:
		return nil
	}
}

func unionSets(a, b CutSet) CutSet {
	seen := make(map[string]struct{}, len(a)+len(b))
	var out CutSet
	for _, s := range append(append(CutSet{}, a...), b...) {
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func minimize(sets []CutSet) []CutSet {
	// Remove duplicates and supersets of smaller sets.
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	var out []CutSet
	for _, cs := range sets {
		redundant := false
		for _, kept := range out {
			if isSubset(kept, cs) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, cs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

func isSubset(small, big CutSet) bool {
	set := make(map[string]struct{}, len(big))
	for _, s := range big {
		set[s] = struct{}{}
	}
	for _, s := range small {
		if _, ok := set[s]; !ok {
			return false
		}
	}
	return true
}

// Render writes the fault tree as an indented text outline.
func (t *FaultTree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tree for hazard: %s\n", t.Hazard)
	renderEvent(&b, t.Root, 0)
	return b.String()
}

func renderEvent(b *strings.Builder, e *Event, depth int) {
	if e == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	switch e.Gate {
	case GateBasic:
		fmt.Fprintf(b, "%s- %s (p=%.2e)\n", indent, e.Name, e.Probability)
	default:
		fmt.Fprintf(b, "%s+ %s [%s]\n", indent, e.Name, e.Gate)
	}
	for _, c := range e.Children {
		renderEvent(b, c, depth+1)
	}
}

// ---------------------------------------------------------------------------
// Failure Modes and Effects Analysis
// ---------------------------------------------------------------------------

// FailureMode is one row of an FMEA table (thesis Figure 2.3).
type FailureMode struct {
	// Component is the analysed component.
	Component string
	// Mode is the failure mode (e.g. "false positive").
	Mode string
	// Cause is the assumed cause.
	Cause string
	// Effect is the system-level effect.
	Effect string
	// Probability is the occurrence rate per hour.
	Probability float64
	// Criticality optionally records an FMECA criticality ranking
	// (0 when not assessed).
	Criticality int
}

// FMEA is a Failure Modes and Effects Analysis table.
type FMEA struct {
	// System names the analysed system.
	System string
	// Rows are the failure-mode entries.
	Rows []FailureMode
}

// Add appends a failure mode.
func (f *FMEA) Add(m FailureMode) { f.Rows = append(f.Rows, m) }

// HighestRisk returns the n rows with the highest probability (all rows when
// n exceeds the table size).
func (f *FMEA) HighestRisk(n int) []FailureMode {
	rows := append([]FailureMode(nil), f.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Probability > rows[j].Probability })
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n]
}

// Render writes the FMEA as a plain-text table.
func (f *FMEA) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FMEA: %s\n", f.System)
	fmt.Fprintf(&b, "%-22s %-18s %-24s %-40s %s\n", "Component", "Failure Mode", "Cause", "Effect", "Prob/hr")
	fmt.Fprintln(&b, strings.Repeat("-", 118))
	for _, m := range f.Rows {
		fmt.Fprintf(&b, "%-22s %-18s %-24s %-40s %.1e\n", m.Component, m.Mode, m.Cause, m.Effect, m.Probability)
	}
	return b.String()
}
