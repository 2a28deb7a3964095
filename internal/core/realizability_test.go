package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/temporal"
)

func caps(vals ...Capability) map[string]Capability {
	names := []string{"A", "B", "C"}
	m := make(map[string]Capability, len(vals))
	for i, v := range vals {
		m[names[i]] = v
	}
	return m
}

func TestCapabilityAndShapeStrings(t *testing.T) {
	for v, want := range map[Capability]string{
		CapNone: "none", CapObservable: "observable", CapControllable: "controllable",
	} {
		if got := v.String(); got != want {
			t.Errorf("Capability.String() = %q, want %q", got, want)
		}
	}
	for v, want := range map[PatternShape]string{
		ShapeSimple: "A => B", ShapeOrAntecedent: "A | B => C", ShapeAndAntecedent: "A & B => C",
		ShapeAndConsequent: "A => B & C", ShapeOrConsequent: "A => B | C", PatternShape(0): "unknown",
	} {
		if got := v.String(); got != want {
			t.Errorf("PatternShape.String() = %q, want %q", got, want)
		}
	}
	for v, want := range map[TemporalMark]string{
		MarkNone: "same state", MarkPrevAntecedent: "prev antecedent",
		MarkPrevConsequent: "prev consequent", TemporalMark(0): "unknown",
	} {
		if got := v.String(); got != want {
			t.Errorf("TemporalMark.String() = %q, want %q", got, want)
		}
	}
}

// patternFormula builds the abstract goal formula of the pattern case, with
// prev() on the side its temporal mark names.
func patternFormula(c PatternCase) temporal.Formula {
	return temporal.Implies(c.antecedentFormula(c.Mark == MarkPrevAntecedent),
		c.consequentFormula(c.Mark == MarkPrevConsequent))
}

// holdsThroughout reports whether f holds at every state of the trace.
func holdsThroughout(f temporal.Formula, tr *temporal.Trace) bool {
	for i := 0; i < tr.Len(); i++ {
		if !f.Eval(tr, i) {
			return false
		}
	}
	return true
}

func TestPatternCaseFormula(t *testing.T) {
	tests := []struct {
		c    PatternCase
		want string
	}{
		{PatternCase{Shape: ShapeSimple, Mark: MarkNone}, "(A) => (B)"},
		{PatternCase{Shape: ShapeSimple, Mark: MarkPrevAntecedent}, "(prev(A)) => (B)"},
		{PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent}, "(A) => (prev(B))"},
		{PatternCase{Shape: ShapeOrAntecedent, Mark: MarkNone}, "((A) | (B)) => (C)"},
		{PatternCase{Shape: ShapeAndAntecedent, Mark: MarkPrevAntecedent}, "((prev(A)) & (prev(B))) => (C)"},
		{PatternCase{Shape: ShapeAndConsequent, Mark: MarkNone}, "(A) => ((B) & (C))"},
		{PatternCase{Shape: ShapeOrConsequent, Mark: MarkPrevConsequent}, "(A) => ((prev(B)) | (prev(C)))"},
	}
	for _, tt := range tests {
		if got := patternFormula(tt.c).String(); got != tt.want {
			t.Errorf("pattern formula = %q, want %q", got, tt.want)
		}
	}
}

// TestTable4_5_Realizability checks the key rows of thesis Table 4.5: goal
// controllability and observability requirements for goals of the form
// A => B, prev(A) => B and A => prev(B).
func TestTable4_5_Realizability(t *testing.T) {
	tests := []struct {
		name        string
		c           PatternCase
		realizable  bool
		restrictive bool
		feasible    bool
		altContains string
	}{
		{
			name:       "A=>B both controllable",
			c:          PatternCase{Shape: ShapeSimple, Mark: MarkNone, Caps: caps(CapControllable, CapControllable)},
			realizable: true, feasible: true,
		},
		{
			name:        "A=>B A observable only: reference to future, restrict to B",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkNone, Caps: caps(CapObservable, CapControllable)},
			restrictive: true, feasible: true, altContains: "B",
		},
		{
			name:        "A=>B A unknown: restrict to B",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkNone, Caps: caps(CapNone, CapControllable)},
			restrictive: true, feasible: true, altContains: "B",
		},
		{
			name:        "A=>B B not controllable, A controllable: prevent A",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkNone, Caps: caps(CapControllable, CapObservable)},
			restrictive: true, feasible: true, altContains: "!(A)",
		},
		{
			name:     "A=>B neither controllable: infeasible",
			c:        PatternCase{Shape: ShapeSimple, Mark: MarkNone, Caps: caps(CapObservable, CapObservable)},
			feasible: false,
		},
		{
			name:       "prev(A)=>B A observable B controllable: realizable",
			c:          PatternCase{Shape: ShapeSimple, Mark: MarkPrevAntecedent, Caps: caps(CapObservable, CapControllable)},
			realizable: true, feasible: true,
		},
		{
			name:       "prev(A)=>B both controllable: realizable",
			c:          PatternCase{Shape: ShapeSimple, Mark: MarkPrevAntecedent, Caps: caps(CapControllable, CapControllable)},
			realizable: true, feasible: true,
		},
		{
			name:        "prev(A)=>B A unknown: restrict to B",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkPrevAntecedent, Caps: caps(CapNone, CapControllable)},
			restrictive: true, feasible: true, altContains: "B",
		},
		{
			name:       "A=>prev(B) A controllable B observable: contrapositive rewrite",
			c:          PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent, Caps: caps(CapControllable, CapObservable)},
			realizable: true, feasible: true, altContains: "!(prev(B))",
		},
		{
			name:        "A=>prev(B) only B controllable: keep B invariantly true",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent, Caps: caps(CapObservable, CapControllable)},
			restrictive: true, feasible: true, altContains: "B",
		},
		{
			name:        "A=>prev(B) only A controllable, B unknown: prevent A",
			c:           PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent, Caps: caps(CapControllable, CapNone)},
			restrictive: true, feasible: true, altContains: "!(A)",
		},
		{
			name:     "A=>prev(B) nothing controllable: infeasible",
			c:        PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent, Caps: caps(CapObservable, CapObservable)},
			feasible: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := AnalyzeRealizabilityPattern(tt.c)
			if out.Realizable != tt.realizable {
				t.Errorf("Realizable = %v, want %v (%s)", out.Realizable, tt.realizable, out)
			}
			if out.Feasible != tt.feasible {
				t.Errorf("Feasible = %v, want %v (%s)", out.Feasible, tt.feasible, out)
			}
			if !tt.realizable && tt.feasible && out.Restrictive != tt.restrictive {
				t.Errorf("Restrictive = %v, want %v (%s)", out.Restrictive, tt.restrictive, out)
			}
			if tt.altContains != "" {
				if out.Alternative == nil || !strings.Contains(out.Alternative.String(), tt.altContains) {
					t.Errorf("Alternative = %v, want it to contain %q", out.Alternative, tt.altContains)
				}
			}
		})
	}
}

func TestCompoundPatternOutcomes(t *testing.T) {
	tests := []struct {
		name        string
		c           PatternCase
		realizable  bool
		feasible    bool
		altContains string
	}{
		{
			name: "A&B=>C with unknowable conjunct drops it",
			c: PatternCase{Shape: ShapeAndAntecedent, Mark: MarkPrevAntecedent,
				Caps: map[string]Capability{"A": CapObservable, "B": CapNone, "C": CapControllable}},
			feasible: true, altContains: "(prev(A)) => (C)",
		},
		{
			name: "A|B=>C with unknowable disjunct guarantees C",
			c: PatternCase{Shape: ShapeOrAntecedent, Mark: MarkPrevAntecedent,
				Caps: map[string]Capability{"A": CapObservable, "B": CapNone, "C": CapControllable}},
			feasible: true, altContains: "C",
		},
		{
			name: "A=>B|C with one controllable disjunct restricts to it",
			c: PatternCase{Shape: ShapeOrConsequent, Mark: MarkPrevAntecedent,
				Caps: map[string]Capability{"A": CapObservable, "B": CapControllable, "C": CapNone}},
			feasible: true, altContains: "(prev(A)) => (B)",
		},
		{
			name: "A=>B&C with uncontrollable conjunct and controllable antecedent prevents A",
			c: PatternCase{Shape: ShapeAndConsequent, Mark: MarkNone,
				Caps: map[string]Capability{"A": CapControllable, "B": CapControllable, "C": CapObservable}},
			feasible: true, altContains: "!(A)",
		},
		{
			name: "A=>B&C fully controllable is realizable",
			c: PatternCase{Shape: ShapeAndConsequent, Mark: MarkNone,
				Caps: map[string]Capability{"A": CapControllable, "B": CapControllable, "C": CapControllable}},
			realizable: true, feasible: true,
		},
		{
			name: "A&B=>C nothing knowable or controllable is infeasible",
			c: PatternCase{Shape: ShapeAndAntecedent, Mark: MarkNone,
				Caps: map[string]Capability{"A": CapObservable, "B": CapNone, "C": CapObservable}},
			feasible: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := AnalyzeRealizabilityPattern(tt.c)
			if out.Realizable != tt.realizable {
				t.Errorf("Realizable = %v, want %v (%s)", out.Realizable, tt.realizable, out)
			}
			if out.Feasible != tt.feasible {
				t.Errorf("Feasible = %v, want %v (%s)", out.Feasible, tt.feasible, out)
			}
			if tt.altContains != "" {
				if out.Alternative == nil || !strings.Contains(out.Alternative.String(), tt.altContains) {
					t.Errorf("Alternative = %v, want it to contain %q", out.Alternative, tt.altContains)
				}
			}
		})
	}
}

func TestTable4_5Generation(t *testing.T) {
	tables := Table4_5()
	if len(tables) != 3 {
		t.Fatalf("Table 4.5 should have the three temporal variants, got %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 9 {
			t.Errorf("table %q should enumerate 9 capability combinations, got %d", tab.Title, len(tab.Rows))
		}
		if !strings.Contains(tab.Render(), "|") {
			t.Errorf("Render() of %q looks empty", tab.Title)
		}
	}
}

func TestAppendixBPatterns(t *testing.T) {
	tables := AppendixBTables()
	if len(tables) != 15 {
		t.Fatalf("Appendix B should produce 15 tables (B.1 split in three), got %d", len(tables))
	}
	totalRows := 0
	for _, tab := range tables {
		totalRows += len(tab.Rows)
		for _, r := range tab.Rows {
			// Every row must have a definite outcome: realizable, an
			// alternative goal, or explicitly infeasible.
			if !r.Outcome.Realizable && r.Outcome.Feasible && r.Outcome.Alternative == nil {
				t.Errorf("row %+v has no outcome", r.Case)
			}
		}
	}
	if totalRows < 200 {
		t.Errorf("expected exhaustive capability enumeration, got %d rows", totalRows)
	}
}

// TestAlternativeGoalsEntailOriginal verifies the soundness property of the
// realizability catalogue: every restrictive alternative, interpreted as an
// invariant held in every state (the thesis' entailment reading of safety
// goals), guarantees the original pattern.  Checked over all two-state
// boolean traces, at index 1 so that prev() has a defined previous state.
func TestAlternativeGoalsEntailOriginal(t *testing.T) {
	vars := []string{"A", "B", "C"}
	traces := allTwoStateTraces(vars)
	for _, tab := range AppendixBTables() {
		for _, row := range tab.Rows {
			alt := row.Outcome.Alternative
			if alt == nil || row.Outcome.Realizable {
				continue
			}
			orig := patternFormula(row.Case)
			for _, tr := range traces {
				if holdsThroughout(alt, tr) && !orig.Eval(tr, 1) {
					t.Fatalf("alternative %s (held throughout) does not entail original %s for case %+v",
						alt, orig, row.Case)
				}
			}
		}
	}
}

// TestContrapositiveEquivalence verifies that the non-restrictive rewrite for
// A => prev(B) is genuinely equivalent, not just an entailment.
func TestContrapositiveEquivalence(t *testing.T) {
	c := PatternCase{Shape: ShapeSimple, Mark: MarkPrevConsequent, Caps: caps(CapControllable, CapObservable)}
	out := AnalyzeRealizabilityPattern(c)
	if !out.Realizable || out.Alternative == nil || out.Restrictive {
		t.Fatalf("unexpected outcome: %s", out)
	}
	orig := patternFormula(c)
	for _, tr := range allTwoStateTraces([]string{"A", "B"}) {
		if out.Alternative.Eval(tr, 1) != orig.Eval(tr, 1) {
			t.Fatalf("contrapositive rewrite is not equivalent on trace %v", tr.At(0))
		}
	}
}

// allTwoStateTraces enumerates every trace of length two over boolean
// variables.
func allTwoStateTraces(vars []string) []*temporal.Trace {
	nStates := 1 << len(vars)
	var out []*temporal.Trace
	for s0 := 0; s0 < nStates; s0++ {
		for s1 := 0; s1 < nStates; s1++ {
			tr := temporal.NewTrace(time.Millisecond)
			for _, mask := range []int{s0, s1} {
				st := temporal.NewState()
				for i, v := range vars {
					st.SetBool(v, mask&(1<<i) != 0)
				}
				tr.Append(st)
			}
			out = append(out, tr)
		}
	}
	return out
}

func TestPatternOutcomeString(t *testing.T) {
	if got := (PatternOutcome{Realizable: true, Feasible: true}).String(); got != "realizable" {
		t.Errorf("String() = %q", got)
	}
	if got := (PatternOutcome{Feasible: false, Note: "nope"}).String(); !strings.Contains(got, "nope") {
		t.Errorf("String() = %q", got)
	}
	alt := PatternOutcome{Feasible: true, Restrictive: true, Alternative: temporal.Var("B")}
	if !strings.Contains(alt.String(), "restrictive") {
		t.Errorf("String() = %q", alt.String())
	}
	eq := PatternOutcome{Feasible: true, Alternative: temporal.Var("B")}
	if !strings.Contains(eq.String(), "equivalent") {
		t.Errorf("String() = %q", eq.String())
	}
}
