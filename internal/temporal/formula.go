package temporal

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Formula is a temporal-logic formula over discrete-time traces of system
// state.  Eval evaluates the formula at state index i of a trace; Vars
// returns the state variables the formula references.
//
// The operator set follows Figure 2.5 of the thesis:
//
//	¬P, P∧Q, P∨Q, P→Q, P⇔Q      propositional connectives
//	l P                          true in previous state (Prev)
//	⧫ P                          true in some previous state (Once)
//	▣ P                          true in all previous states (Historically)
//	@P  =  P ∧ l¬P               became true in current state (Became)
//	ln<T P                       true for duration T up to the previous state (PrevFor)
//	l<T P                        true at least once within duration T before now (PrevWithin)
//	S0 ⊨ P                       true in the initial state (Initially)
//	m P, ♦P, qP                  next / eventually / always (future time)
type Formula interface {
	// Eval evaluates the formula at index i of trace tr.
	Eval(tr *Trace, i int) bool
	// Vars returns the sorted, de-duplicated state variables referenced.
	Vars() []string
	// String renders the formula in the thesis' ASCII notation.
	String() string
}

// CompareOp is a comparison operator used by atomic formulas.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the comparison operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

func compareNumbers(a, b float64, op CompareOp) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	default:
		return false
	}
}

func compareValues(a, b Value, op CompareOp) bool {
	switch op {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	default:
		return compareNumbers(a.AsNumber(), b.AsNumber(), op)
	}
}

// mergeVars merges and de-duplicates the variable sets of sub-formulas.
func mergeVars(fs ...Formula) []string {
	seen := make(map[string]struct{})
	for _, f := range fs {
		if f == nil {
			continue
		}
		for _, v := range f.Vars() {
			seen[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Atomic formulas
// ---------------------------------------------------------------------------

// atomFormula is an atomic formula: one whose truth at a tick depends on that
// tick's state alone.  Eval of an atom is holds of the state at index i.
type atomFormula interface {
	Formula
	holds(s State) bool
}

// constFormula is the constant true/false formula.
type constFormula bool

// True is the constant true formula.
var True Formula = constFormula(true)

// False is the constant false formula.
var False Formula = constFormula(false)

func (c constFormula) Eval(*Trace, int) bool { return bool(c) }
func (c constFormula) holds(State) bool      { return bool(c) }
func (c constFormula) Vars() []string        { return nil }
func (c constFormula) String() string {
	if c {
		return "true"
	}
	return "false"
}

// varFormula is a boolean state-variable atom, e.g. "DoorClosed".
type varFormula struct{ name string }

// Var returns an atom that is true when the named variable is truthy.
func Var(name string) Formula { return varFormula{name: name} }

func (v varFormula) Eval(tr *Trace, i int) bool { return v.holds(tr.At(i)) }
func (v varFormula) holds(s State) bool         { return s.Bool(v.name) }
func (v varFormula) Vars() []string             { return []string{v.name} }
func (v varFormula) String() string             { return v.name }

// compareFormula compares a state variable with a constant value.
type compareFormula struct {
	name string
	op   CompareOp
	val  Value
}

// Compare returns an atom comparing the named variable with a constant.
func Compare(name string, op CompareOp, val Value) Formula {
	return compareFormula{name: name, op: op, val: val}
}

// Eq returns the atom "name == val".
func Eq(name string, val Value) Formula { return Compare(name, OpEq, val) }

// Ne returns the atom "name != val".
func Ne(name string, val Value) Formula { return Compare(name, OpNe, val) }

// Lt returns the atom "name < x".
func Lt(name string, x float64) Formula { return Compare(name, OpLt, Number(x)) }

// Le returns the atom "name <= x".
func Le(name string, x float64) Formula { return Compare(name, OpLe, Number(x)) }

// Gt returns the atom "name > x".
func Gt(name string, x float64) Formula { return Compare(name, OpGt, Number(x)) }

// Ge returns the atom "name >= x".
func Ge(name string, x float64) Formula { return Compare(name, OpGe, Number(x)) }

func (c compareFormula) Eval(tr *Trace, i int) bool { return c.holds(tr.At(i)) }
func (c compareFormula) holds(s State) bool {
	v := s.Get(c.name)
	if !v.IsValid() {
		return false
	}
	return compareValues(v, c.val, c.op)
}
func (c compareFormula) Vars() []string { return []string{c.name} }
func (c compareFormula) String() string {
	return fmt.Sprintf("%s %s %s", c.name, c.op, c.val)
}

// compareVarsFormula compares two state variables.
type compareVarsFormula struct {
	left  string
	op    CompareOp
	right string
}

// CompareVars returns an atom comparing two state variables.
func CompareVars(left string, op CompareOp, right string) Formula {
	return compareVarsFormula{left: left, op: op, right: right}
}

func (c compareVarsFormula) Eval(tr *Trace, i int) bool { return c.holds(tr.At(i)) }
func (c compareVarsFormula) holds(s State) bool {
	lv, rv := s.Get(c.left), s.Get(c.right)
	if !lv.IsValid() || !rv.IsValid() {
		return false
	}
	return compareValues(lv, rv, c.op)
}
func (c compareVarsFormula) Vars() []string {
	if c.left == c.right {
		return []string{c.left}
	}
	vs := []string{c.left, c.right}
	sort.Strings(vs)
	return vs
}
func (c compareVarsFormula) String() string {
	return fmt.Sprintf("%s %s %s", c.left, c.op, c.right)
}

// ---------------------------------------------------------------------------
// Propositional connectives
// ---------------------------------------------------------------------------

type notFormula struct{ f Formula }

// Not returns the negation ¬f.
func Not(f Formula) Formula { return notFormula{f: f} }

func (n notFormula) Eval(tr *Trace, i int) bool { return !n.f.Eval(tr, i) }
func (n notFormula) Vars() []string             { return n.f.Vars() }
func (n notFormula) String() string             { return "!(" + n.f.String() + ")" }

type andFormula struct{ fs []Formula }

// And returns the conjunction of the given formulas (true when empty).
func And(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return andFormula{fs: fs}
}

func (a andFormula) Eval(tr *Trace, i int) bool {
	for _, f := range a.fs {
		if !f.Eval(tr, i) {
			return false
		}
	}
	return true
}
func (a andFormula) Vars() []string { return mergeVars(a.fs...) }
func (a andFormula) String() string { return joinFormulas(a.fs, " & ") }

type orFormula struct{ fs []Formula }

// Or returns the disjunction of the given formulas (false when empty).
func Or(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return orFormula{fs: fs}
}

func (o orFormula) Eval(tr *Trace, i int) bool {
	for _, f := range o.fs {
		if f.Eval(tr, i) {
			return true
		}
	}
	return false
}
func (o orFormula) Vars() []string { return mergeVars(o.fs...) }
func (o orFormula) String() string { return joinFormulas(o.fs, " | ") }

func joinFormulas(fs []Formula, sep string) string {
	if len(fs) == 0 {
		if sep == " & " {
			return "true"
		}
		return "false"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

type impliesFormula struct{ ant, con Formula }

// Implies returns the material implication ant → con evaluated state-wise.
// Safety goals in the thesis use the entailment pattern P ⇒ Q, meaning the
// implication holds in every state; Eval checks the current state and the
// monitor layer checks it continuously.
func Implies(ant, con Formula) Formula { return impliesFormula{ant: ant, con: con} }

func (im impliesFormula) Eval(tr *Trace, i int) bool {
	return !im.ant.Eval(tr, i) || im.con.Eval(tr, i)
}
func (im impliesFormula) Vars() []string { return mergeVars(im.ant, im.con) }
func (im impliesFormula) String() string {
	return "(" + im.ant.String() + ") => (" + im.con.String() + ")"
}

// Antecedent returns the antecedent of an implication formula, or nil when
// the formula is not an implication.  ICPA uses the antecedent/consequent
// split to infer monitored versus controlled variable sets.
func Antecedent(f Formula) Formula {
	if im, ok := f.(impliesFormula); ok {
		return im.ant
	}
	return nil
}

// Consequent returns the consequent of an implication formula, or nil.
func Consequent(f Formula) Formula {
	if im, ok := f.(impliesFormula); ok {
		return im.con
	}
	return nil
}

type iffFormula struct{ a, b Formula }

// Iff returns the biconditional a ⇔ b.
func Iff(a, b Formula) Formula { return iffFormula{a: a, b: b} }

func (f iffFormula) Eval(tr *Trace, i int) bool { return f.a.Eval(tr, i) == f.b.Eval(tr, i) }
func (f iffFormula) Vars() []string             { return mergeVars(f.a, f.b) }
func (f iffFormula) String() string {
	return "(" + f.a.String() + ") <=> (" + f.b.String() + ")"
}

// ---------------------------------------------------------------------------
// Past-time temporal operators
// ---------------------------------------------------------------------------

type prevFormula struct{ f Formula }

// Prev returns l f: true when f held in the previous state.  In the initial
// state there is no previous state and Prev is false, matching the KAOS
// convention that monitored values are unknown before the first observation.
func Prev(f Formula) Formula { return prevFormula{f: f} }

func (p prevFormula) Eval(tr *Trace, i int) bool {
	if i == 0 {
		return false
	}
	return p.f.Eval(tr, i-1)
}
func (p prevFormula) Vars() []string { return p.f.Vars() }
func (p prevFormula) String() string { return "prev(" + p.f.String() + ")" }

type onceFormula struct{ f Formula }

// Once returns the "true in some previous state" operator.
func Once(f Formula) Formula { return onceFormula{f: f} }

func (o onceFormula) Eval(tr *Trace, i int) bool {
	for j := 0; j < i; j++ {
		if o.f.Eval(tr, j) {
			return true
		}
	}
	return false
}
func (o onceFormula) Vars() []string { return o.f.Vars() }
func (o onceFormula) String() string { return "once(" + o.f.String() + ")" }

type historicallyFormula struct{ f Formula }

// Historically returns the "true in all previous states" operator (vacuously
// true in the initial state).
func Historically(f Formula) Formula { return historicallyFormula{f: f} }

func (h historicallyFormula) Eval(tr *Trace, i int) bool {
	for j := 0; j < i; j++ {
		if !h.f.Eval(tr, j) {
			return false
		}
	}
	return true
}
func (h historicallyFormula) Vars() []string { return h.f.Vars() }
func (h historicallyFormula) String() string { return "hist(" + h.f.String() + ")" }

type becameFormula struct{ f Formula }

// Became returns @f = f ∧ l¬f: f is true now and was false in the previous
// state.  In the initial state Became is true when f is true, because the
// thesis treats the initial state as the instant the condition first holds.
func Became(f Formula) Formula { return becameFormula{f: f} }

func (b becameFormula) Eval(tr *Trace, i int) bool {
	if !b.f.Eval(tr, i) {
		return false
	}
	if i == 0 {
		return true
	}
	return !b.f.Eval(tr, i-1)
}
func (b becameFormula) Vars() []string { return b.f.Vars() }
func (b becameFormula) String() string { return "became(" + b.f.String() + ")" }

type prevForFormula struct {
	f Formula
	d time.Duration
}

// PrevFor returns ln<T f: f held continuously for duration T ending at the
// previous state.  It is false until the trace contains at least T worth of
// history, reflecting that actuation-delay assumptions cannot be discharged
// before the delay has elapsed.
func PrevFor(f Formula, d time.Duration) Formula { return prevForFormula{f: f, d: d} }

func (p prevForFormula) Eval(tr *Trace, i int) bool {
	n := tr.StepsFor(p.d)
	if n == 0 {
		return true
	}
	if i < n {
		return false
	}
	for j := i - n; j < i; j++ {
		if !p.f.Eval(tr, j) {
			return false
		}
	}
	return true
}
func (p prevForFormula) Vars() []string { return p.f.Vars() }
func (p prevForFormula) String() string {
	return fmt.Sprintf("prevfor[%s](%s)", p.d, p.f.String())
}

type prevWithinFormula struct {
	f Formula
	d time.Duration
}

// PrevWithin returns l<T f: f held at least once within duration T before the
// current state.
func PrevWithin(f Formula, d time.Duration) Formula { return prevWithinFormula{f: f, d: d} }

func (p prevWithinFormula) Eval(tr *Trace, i int) bool {
	n := tr.StepsFor(p.d)
	lo := i - n
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < i; j++ {
		if p.f.Eval(tr, j) {
			return true
		}
	}
	return false
}
func (p prevWithinFormula) Vars() []string { return p.f.Vars() }
func (p prevWithinFormula) String() string {
	return fmt.Sprintf("prevwithin[%s](%s)", p.d, p.f.String())
}

type initiallyFormula struct{ f Formula }

// Initially returns S0 ⊨ f: f held in the initial state of the trace.
func Initially(f Formula) Formula { return initiallyFormula{f: f} }

func (n initiallyFormula) Eval(tr *Trace, i int) bool {
	if tr.Len() == 0 {
		return false
	}
	return n.f.Eval(tr, 0)
}
func (n initiallyFormula) Vars() []string { return n.f.Vars() }
func (n initiallyFormula) String() string { return "initially(" + n.f.String() + ")" }

// ---------------------------------------------------------------------------
// Future-time operators (specification and realizability analysis only)
// ---------------------------------------------------------------------------

type nextFormula struct{ f Formula }

// Next returns m f: f holds in the next state (false at the end of a trace).
func Next(f Formula) Formula { return nextFormula{f: f} }

func (n nextFormula) Eval(tr *Trace, i int) bool {
	if i+1 >= tr.Len() {
		return false
	}
	return n.f.Eval(tr, i+1)
}
func (n nextFormula) Vars() []string { return n.f.Vars() }
func (n nextFormula) String() string { return "next(" + n.f.String() + ")" }

type eventuallyFormula struct{ f Formula }

// Eventually returns ♦f: f holds now or in some future state of the trace.
// Goals containing Eventually are not realizable by run-time monitors (the
// thesis, §4.5.3); the realizability analysis flags them.
func Eventually(f Formula) Formula { return eventuallyFormula{f: f} }

func (e eventuallyFormula) Eval(tr *Trace, i int) bool {
	for j := i; j < tr.Len(); j++ {
		if e.f.Eval(tr, j) {
			return true
		}
	}
	return false
}
func (e eventuallyFormula) Vars() []string { return e.f.Vars() }
func (e eventuallyFormula) String() string { return "eventually(" + e.f.String() + ")" }

type alwaysFormula struct{ f Formula }

// Always returns qf: f holds now and in all future states of the trace.
func Always(f Formula) Formula { return alwaysFormula{f: f} }

func (a alwaysFormula) Eval(tr *Trace, i int) bool {
	for j := i; j < tr.Len(); j++ {
		if !a.f.Eval(tr, j) {
			return false
		}
	}
	return true
}
func (a alwaysFormula) Vars() []string { return a.f.Vars() }
func (a alwaysFormula) String() string { return "always(" + a.f.String() + ")" }

// ---------------------------------------------------------------------------
// Structural queries
// ---------------------------------------------------------------------------

// IsPastTime reports whether the formula uses only propositional and
// past-time operators, i.e. whether it can be monitored incrementally at
// run time without reference to the future.
func IsPastTime(f Formula) bool {
	switch ff := f.(type) {
	case nextFormula, eventuallyFormula, alwaysFormula:
		return false
	case notFormula:
		return IsPastTime(ff.f)
	case andFormula:
		for _, sub := range ff.fs {
			if !IsPastTime(sub) {
				return false
			}
		}
		return true
	case orFormula:
		for _, sub := range ff.fs {
			if !IsPastTime(sub) {
				return false
			}
		}
		return true
	case impliesFormula:
		return IsPastTime(ff.ant) && IsPastTime(ff.con)
	case iffFormula:
		return IsPastTime(ff.a) && IsPastTime(ff.b)
	case prevFormula:
		return IsPastTime(ff.f)
	case onceFormula:
		return IsPastTime(ff.f)
	case historicallyFormula:
		return IsPastTime(ff.f)
	case becameFormula:
		return IsPastTime(ff.f)
	case prevForFormula:
		return IsPastTime(ff.f)
	case prevWithinFormula:
		return IsPastTime(ff.f)
	case initiallyFormula:
		return IsPastTime(ff.f)
	default:
		return true
	}
}

// ReferencesFuture reports whether the formula contains an unbounded
// future-time operator (Eventually), which makes a goal unrealizable per the
// thesis' realizability rules.
func ReferencesFuture(f Formula) bool {
	switch ff := f.(type) {
	case eventuallyFormula:
		return true
	case nextFormula:
		return ReferencesFuture(ff.f)
	case alwaysFormula:
		return ReferencesFuture(ff.f)
	case notFormula:
		return ReferencesFuture(ff.f)
	case andFormula:
		for _, sub := range ff.fs {
			if ReferencesFuture(sub) {
				return true
			}
		}
		return false
	case orFormula:
		for _, sub := range ff.fs {
			if ReferencesFuture(sub) {
				return true
			}
		}
		return false
	case impliesFormula:
		return ReferencesFuture(ff.ant) || ReferencesFuture(ff.con)
	case iffFormula:
		return ReferencesFuture(ff.a) || ReferencesFuture(ff.b)
	case prevFormula:
		return ReferencesFuture(ff.f)
	case onceFormula:
		return ReferencesFuture(ff.f)
	case historicallyFormula:
		return ReferencesFuture(ff.f)
	case becameFormula:
		return ReferencesFuture(ff.f)
	case prevForFormula:
		return ReferencesFuture(ff.f)
	case prevWithinFormula:
		return ReferencesFuture(ff.f)
	case initiallyFormula:
		return ReferencesFuture(ff.f)
	default:
		return false
	}
}

// Conjuncts returns the top-level conjuncts of a formula: the operands of a
// top-level And, or the formula itself otherwise.  ICPA's conjunctive-goal
// splitting (thesis §3.3.4) is built on this.
func Conjuncts(f Formula) []Formula {
	if a, ok := f.(andFormula); ok {
		return append([]Formula(nil), a.fs...)
	}
	return []Formula{f}
}

// Disjuncts returns the top-level disjuncts of a formula: the operands of a
// top-level Or, or the formula itself otherwise.  OR-reduction (thesis
// §3.3.5) is built on this.
func Disjuncts(f Formula) []Formula {
	if o, ok := f.(orFormula); ok {
		return append([]Formula(nil), o.fs...)
	}
	return []Formula{f}
}

// IsDelayed reports whether every atomic proposition in the formula is
// guarded by a past-time operator (Prev, Once, Historically, Became,
// PrevFor, PrevWithin or Initially).  ICPA uses this to decide whether the
// antecedent of a goal is observed at least one state before the controlled
// action, which is a precondition for realizability (thesis §4.5.3).
func IsDelayed(f Formula) bool {
	switch ff := f.(type) {
	case prevFormula, onceFormula, historicallyFormula, becameFormula,
		prevForFormula, prevWithinFormula, initiallyFormula:
		return true
	case constFormula:
		return true
	case notFormula:
		return IsDelayed(ff.f)
	case andFormula:
		for _, sub := range ff.fs {
			if !IsDelayed(sub) {
				return false
			}
		}
		return len(ff.fs) > 0
	case orFormula:
		for _, sub := range ff.fs {
			if !IsDelayed(sub) {
				return false
			}
		}
		return len(ff.fs) > 0
	case impliesFormula:
		return IsDelayed(ff.ant) && IsDelayed(ff.con)
	case iffFormula:
		return IsDelayed(ff.a) && IsDelayed(ff.b)
	default:
		return false
	}
}
