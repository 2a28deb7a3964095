package core

import (
	"fmt"
	"strings"

	"repro/internal/temporal"
)

// Capability is an agent's relationship to one abstract pattern variable in
// the realizability tables (thesis Table 4.5 and Appendix B).
type Capability int

// Capabilities.
const (
	// CapNone: the agent can neither observe nor control the variable.
	CapNone Capability = iota
	// CapObservable: the agent can observe (monitor) the variable.
	CapObservable
	// CapControllable: the agent can control the variable (control implies
	// the ability to know its own output).
	CapControllable
)

// String renders the capability as used in the pattern tables.
func (c Capability) String() string {
	switch c {
	case CapObservable:
		return "observable"
	case CapControllable:
		return "controllable"
	default:
		return "none"
	}
}

// PatternShape is the propositional shape of a goal pattern in the
// realizability catalogue.
type PatternShape int

// Pattern shapes.
const (
	// ShapeSimple is A ⇒ B.
	ShapeSimple PatternShape = iota + 1
	// ShapeOrAntecedent is A ∨ B ⇒ C.
	ShapeOrAntecedent
	// ShapeAndAntecedent is A ∧ B ⇒ C.
	ShapeAndAntecedent
	// ShapeAndConsequent is A ⇒ B ∧ C.
	ShapeAndConsequent
	// ShapeOrConsequent is A ⇒ B ∨ C.
	ShapeOrConsequent
)

// String names the shape.
func (s PatternShape) String() string {
	switch s {
	case ShapeSimple:
		return "A => B"
	case ShapeOrAntecedent:
		return "A | B => C"
	case ShapeAndAntecedent:
		return "A & B => C"
	case ShapeAndConsequent:
		return "A => B & C"
	case ShapeOrConsequent:
		return "A => B | C"
	default:
		return "unknown"
	}
}

// TemporalMark is the temporal decoration of the pattern (where the l
// operator sits), matching the three variants of each Appendix B table.
type TemporalMark int

// Temporal marks.
const (
	// MarkNone: antecedent and consequent refer to the same state.
	MarkNone TemporalMark = iota + 1
	// MarkPrevAntecedent: the antecedent is observed one state earlier
	// (lA ⇒ B).
	MarkPrevAntecedent
	// MarkPrevConsequent: the consequent refers to the previous state
	// (A ⇒ lB).
	MarkPrevConsequent
)

// String names the mark.
func (m TemporalMark) String() string {
	switch m {
	case MarkNone:
		return "same state"
	case MarkPrevAntecedent:
		return "prev antecedent"
	case MarkPrevConsequent:
		return "prev consequent"
	default:
		return "unknown"
	}
}

// PatternCase is one row input of a realizability table: a goal pattern
// (shape + temporal mark) together with the agent's capability for each
// abstract variable.
type PatternCase struct {
	// Shape is the propositional shape.
	Shape PatternShape
	// Mark is the temporal decoration.
	Mark TemporalMark
	// Caps maps each abstract variable ("A", "B", and "C" for three-
	// variable shapes) to the agent's capability.
	Caps map[string]Capability
}

// AntecedentVars returns the abstract antecedent variables of the shape.
func (c PatternCase) AntecedentVars() []string {
	switch c.Shape {
	case ShapeOrAntecedent, ShapeAndAntecedent:
		return []string{"A", "B"}
	default:
		return []string{"A"}
	}
}

// ConsequentVars returns the abstract consequent variables of the shape.
func (c PatternCase) ConsequentVars() []string {
	switch c.Shape {
	case ShapeAndConsequent, ShapeOrConsequent:
		return []string{"B", "C"}
	case ShapeOrAntecedent, ShapeAndAntecedent:
		return []string{"C"}
	default:
		return []string{"B"}
	}
}

func (c PatternCase) antecedentFormula(prev bool) temporal.Formula {
	wrap := func(v string) temporal.Formula {
		if prev {
			return temporal.Prev(temporal.Var(v))
		}
		return temporal.Var(v)
	}
	switch c.Shape {
	case ShapeOrAntecedent:
		return temporal.Or(wrap("A"), wrap("B"))
	case ShapeAndAntecedent:
		return temporal.And(wrap("A"), wrap("B"))
	default:
		return wrap("A")
	}
}

func (c PatternCase) consequentFormula(prev bool) temporal.Formula {
	wrap := func(v string) temporal.Formula {
		if prev {
			return temporal.Prev(temporal.Var(v))
		}
		return temporal.Var(v)
	}
	switch c.Shape {
	case ShapeAndConsequent:
		return temporal.And(wrap("B"), wrap("C"))
	case ShapeOrConsequent:
		return temporal.Or(wrap("B"), wrap("C"))
	case ShapeOrAntecedent, ShapeAndAntecedent:
		return wrap("C")
	default:
		return wrap("B")
	}
}

// PatternOutcome is the result of analysing a pattern case: whether the goal
// is strictly realizable by a single agent with those capabilities, and if
// not, the alternative (possibly restrictive) goal that is realizable, or a
// statement that no single-agent alternative exists (shared responsibility or
// a design change is required).
type PatternOutcome struct {
	// Realizable reports whether the goal is realizable as stated.
	Realizable bool
	// Alternative is the alternative goal (equivalent rewriting or a more
	// restrictive goal); nil when the goal is realizable as stated or when
	// no single-agent alternative exists.
	Alternative temporal.Formula
	// Restrictive reports whether the alternative restricts behaviour
	// beyond the original goal.
	Restrictive bool
	// Feasible is false when neither the goal nor any single-agent
	// alternative is realizable with the given capabilities; shared
	// responsibility or a design change (new sensor/actuator) is needed.
	Feasible bool
	// Note explains the outcome.
	Note string
}

// String summarises the outcome.
func (o PatternOutcome) String() string {
	switch {
	case o.Realizable:
		return "realizable"
	case !o.Feasible:
		return "not realizable by a single agent: " + o.Note
	case o.Restrictive:
		return fmt.Sprintf("alternative (restrictive): %s", o.Alternative)
	default:
		return fmt.Sprintf("alternative (equivalent): %s", o.Alternative)
	}
}

// AnalyzeRealizabilityPattern analyses one pattern case following the
// thesis' controllability/observability rules (§4.5.3):
//
//   - A goal is realizable as stated when all consequent variables are
//     controllable and every antecedent variable is either controllable or
//     (when the antecedent is observed in a previous state) observable.
//   - When the antecedent refers to the same state and is only observable,
//     the goal is unrealizable (reference to the future); a restrictive
//     alternative guarantees the consequent unconditionally.
//   - When an antecedent variable is unknowable, OR-reduction drops the
//     unknowable conjunct (conjunctive antecedent) or falls back to the
//     unconditional consequent (simple/disjunctive antecedent).
//   - When a consequent variable is uncontrollable, a disjunctive consequent
//     is restricted to its controllable disjuncts; otherwise the fallback is
//     to prevent the antecedent, which requires the antecedent to be fully
//     controllable.
//   - A ⇒ lB is realizable without restriction when A is controllable and
//     B observable, via the equivalent contrapositive ¬lB ⇒ ¬A.
//
// Every returned alternative either is equivalent to the original pattern or
// entails it (restrictive); this is verified by the package tests.
func AnalyzeRealizabilityPattern(c PatternCase) PatternOutcome {
	capOf := func(v string) Capability { return c.Caps[v] }
	ctrl := func(v string) bool { return capOf(v) == CapControllable }
	know := func(v string) bool { return capOf(v) != CapNone }

	antVars := c.AntecedentVars()
	conVars := c.ConsequentVars()

	allCtrl := func(vs []string) bool {
		for _, v := range vs {
			if !ctrl(v) {
				return false
			}
		}
		return true
	}

	if c.Mark == MarkPrevConsequent {
		return analyzePrevConsequent(c, ctrl, know, antVars, conVars, allCtrl)
	}

	// Reactive forms: the agent controls the consequent in the current
	// state, reacting to the antecedent.
	antKnowable := func(v string) bool {
		if ctrl(v) {
			return true
		}
		if c.Mark == MarkPrevAntecedent {
			return know(v)
		}
		// Same-state observation of a merely observable variable is a
		// reference to the future.
		return false
	}

	// Step 1: consequent controllability.
	consequentOK := allCtrl(conVars)
	restrictedConsequent := c.consequentFormula(false)
	consequentRestricted := false
	if !consequentOK {
		switch c.Shape {
		case ShapeOrConsequent:
			var kept []temporal.Formula
			for _, v := range conVars {
				if ctrl(v) {
					kept = append(kept, temporal.Var(v))
				}
			}
			if len(kept) > 0 {
				restrictedConsequent = temporal.Or(kept...)
				consequentOK = true
				consequentRestricted = true
			}
		default:
			// Conjunctive or simple consequent with an uncontrollable part
			// cannot be achieved; fall back to preventing the antecedent.
		}
		if !consequentOK {
			if allCtrl(antVars) {
				alt := temporal.Not(c.antecedentFormula(false))
				return PatternOutcome{
					Alternative: alt,
					Restrictive: true,
					Feasible:    true,
					Note:        "consequent not controllable; prevent the antecedent instead",
				}
			}
			return PatternOutcome{
				Feasible: false,
				Note:     "consequent not controllable and antecedent cannot be prevented; requires shared responsibility or a design change",
			}
		}
	}

	// Step 2: antecedent knowability.
	var unknowable []string
	for _, v := range antVars {
		if !antKnowable(v) {
			unknowable = append(unknowable, v)
		}
	}

	if len(unknowable) == 0 {
		if consequentRestricted {
			alt := temporal.Implies(c.markedAntecedent(), restrictedConsequent)
			return PatternOutcome{
				Alternative: alt,
				Restrictive: true,
				Feasible:    true,
				Note:        "uncontrollable consequent disjunct dropped by OR-reduction",
			}
		}
		return PatternOutcome{Realizable: true, Feasible: true, Note: "all controllability and observability requirements met"}
	}

	// Some antecedent variables cannot be known in time.
	switch c.Shape {
	case ShapeAndAntecedent:
		// Drop the unknowable conjunct: a weaker antecedent yields a more
		// restrictive goal that still entails the original.
		var kept []temporal.Formula
		for _, v := range antVars {
			if antKnowable(v) {
				kept = append(kept, c.markedVar(v))
			}
		}
		if len(kept) > 0 {
			alt := temporal.Implies(temporal.And(kept...), restrictedConsequent)
			return PatternOutcome{
				Alternative: alt,
				Restrictive: true,
				Feasible:    true,
				Note:        "unknowable antecedent conjunct dropped by OR-reduction",
			}
		}
		fallthrough
	default:
		// Simple or disjunctive antecedent with an unknowable term: the
		// agent must guarantee the consequent unconditionally.
		return PatternOutcome{
			Alternative: restrictedConsequent,
			Restrictive: true,
			Feasible:    true,
			Note:        "antecedent not knowable in time; guarantee the consequent unconditionally",
		}
	}
}

func (c PatternCase) markedVar(v string) temporal.Formula {
	if c.Mark == MarkPrevAntecedent {
		return temporal.Prev(temporal.Var(v))
	}
	return temporal.Var(v)
}

func (c PatternCase) markedAntecedent() temporal.Formula {
	return c.antecedentFormula(c.Mark == MarkPrevAntecedent)
}

func analyzePrevConsequent(c PatternCase, ctrl, know func(string) bool,
	antVars, conVars []string, allCtrl func([]string) bool) PatternOutcome {

	consequentKnowable := true
	for _, v := range conVars {
		if !know(v) {
			consequentKnowable = false
		}
	}

	switch {
	case allCtrl(antVars) && (consequentKnowable || allCtrl(conVars)):
		// Equivalent contrapositive: ¬lB ⇒ ¬A, realizable without
		// restriction because the agent observes B one state earlier and
		// controls A now.
		alt := temporal.Implies(
			temporal.Not(c.consequentFormula(true)),
			temporal.Not(c.antecedentFormula(false)),
		)
		return PatternOutcome{
			Realizable:  true,
			Alternative: alt,
			Restrictive: false,
			Feasible:    true,
			Note:        "realizable via the equivalent contrapositive form",
		}
	case allCtrl(conVars):
		// The agent can keep the consequent always true.
		return PatternOutcome{
			Alternative: c.consequentFormula(false),
			Restrictive: true,
			Feasible:    true,
			Note:        "antecedent not controllable; keep the consequent invariantly true",
		}
	case allCtrl(antVars):
		// The agent can keep the antecedent always false.
		return PatternOutcome{
			Alternative: temporal.Not(c.antecedentFormula(false)),
			Restrictive: true,
			Feasible:    true,
			Note:        "consequent not observable; prevent the antecedent",
		}
	default:
		return PatternOutcome{
			Feasible: false,
			Note:     "neither the antecedent nor the consequent is controllable; requires shared responsibility or a design change",
		}
	}
}

// PatternRow is one row of a generated realizability table.
type PatternRow struct {
	// Case is the pattern case analysed.
	Case PatternCase
	// Outcome is the analysis result.
	Outcome PatternOutcome
}

// PatternTable is one realizability table (Table 4.5 or one of Appendix B's
// tables): a goal shape and temporal mark with one row per capability
// combination.
type PatternTable struct {
	// Title identifies the table.
	Title string
	// Shape and Mark identify the pattern.
	Shape PatternShape
	Mark  TemporalMark
	// Rows are the capability combinations and their outcomes.
	Rows []PatternRow
}

// capabilityCombos enumerates all capability assignments for the variables.
func capabilityCombos(vars []string) []map[string]Capability {
	caps := []Capability{CapNone, CapObservable, CapControllable}
	var out []map[string]Capability
	total := 1
	for range vars {
		total *= len(caps)
	}
	for idx := 0; idx < total; idx++ {
		m := make(map[string]Capability, len(vars))
		rem := idx
		for _, v := range vars {
			m[v] = caps[rem%len(caps)]
			rem /= len(caps)
		}
		out = append(out, m)
	}
	return out
}

// buildTable generates a realizability table for a shape and mark by
// enumerating every capability combination.
func buildTable(title string, shape PatternShape, mark TemporalMark) PatternTable {
	sample := PatternCase{Shape: shape, Mark: mark}
	vars := append(sample.AntecedentVars(), sample.ConsequentVars()...)
	t := PatternTable{Title: title, Shape: shape, Mark: mark}
	for _, caps := range capabilityCombos(vars) {
		c := PatternCase{Shape: shape, Mark: mark, Caps: caps}
		t.Rows = append(t.Rows, PatternRow{Case: c, Outcome: AnalyzeRealizabilityPattern(c)})
	}
	return t
}

// Table4_5 generates the goal controllability and observability table for
// goals of the form A ⇒ B (thesis Table 4.5): the three temporal variants of
// the simple pattern, one row per capability combination of A and B.
func Table4_5() []PatternTable {
	return []PatternTable{
		buildTable("A => B", ShapeSimple, MarkNone),
		buildTable("prev(A) => B", ShapeSimple, MarkPrevAntecedent),
		buildTable("A => prev(B)", ShapeSimple, MarkPrevConsequent),
	}
}

// AppendixBTables generates the goal realizability pattern catalogue of
// thesis Appendix B (Tables B.1–B.13): every combination of propositional
// shape and temporal mark, with one row per capability combination.
func AppendixBTables() []PatternTable {
	specs := []struct {
		title string
		shape PatternShape
		mark  TemporalMark
	}{
		{"B.1a  A => B", ShapeSimple, MarkNone},
		{"B.1b  prev(A) => B", ShapeSimple, MarkPrevAntecedent},
		{"B.1c  A => prev(B)", ShapeSimple, MarkPrevConsequent},
		{"B.2   A | B => C", ShapeOrAntecedent, MarkNone},
		{"B.3   prev(A) | prev(B) => C", ShapeOrAntecedent, MarkPrevAntecedent},
		{"B.4   A | B => prev(C)", ShapeOrAntecedent, MarkPrevConsequent},
		{"B.5   A & B => C", ShapeAndAntecedent, MarkNone},
		{"B.6   prev(A) & prev(B) => C", ShapeAndAntecedent, MarkPrevAntecedent},
		{"B.7   A & B => prev(C)", ShapeAndAntecedent, MarkPrevConsequent},
		{"B.8   A => B & C", ShapeAndConsequent, MarkNone},
		{"B.9   prev(A) => B & C", ShapeAndConsequent, MarkPrevAntecedent},
		{"B.10  A => prev(B) & prev(C)", ShapeAndConsequent, MarkPrevConsequent},
		{"B.11  A => B | C", ShapeOrConsequent, MarkNone},
		{"B.12  prev(A) => B | C", ShapeOrConsequent, MarkPrevAntecedent},
		{"B.13  A => prev(B) | prev(C)", ShapeOrConsequent, MarkPrevConsequent},
	}
	out := make([]PatternTable, 0, len(specs))
	for _, s := range specs {
		out = append(out, buildTable(s.title, s.shape, s.mark))
	}
	return out
}

// Render renders the pattern table as text.
func (t PatternTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%s, %s)\n", t.Title, t.Shape, t.Mark)
	fmt.Fprintln(&b, strings.Repeat("-", 100))
	for _, r := range t.Rows {
		caps := make([]string, 0, len(r.Case.Caps))
		for _, v := range append(r.Case.AntecedentVars(), r.Case.ConsequentVars()...) {
			caps = append(caps, fmt.Sprintf("%s=%-12s", v, r.Case.Caps[v]))
		}
		fmt.Fprintf(&b, "%-46s | %s\n", strings.Join(caps, " "), r.Outcome)
	}
	return b.String()
}
