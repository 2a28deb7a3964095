package temporal

import (
	"slices"
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
//
// Every constructor returns one immutable node whose operator comes from
// the operator enum below.  That enum is the one place where an operator is
// added: Eval, Vars, String and the structural queries here, the reference
// Stepper and the Program compiler all switch on it.
type Formula interface {
	// Eval evaluates the formula at index i of trace tr.  It is the
	// definitional evaluator, not a fast one: every atom materialises its
	// tick through Trace.At, and once, hist, prevfor and prevwithin re-walk
	// earlier indices, so evaluating every index of an n-tick trace costs
	// O(n²).  Callers that scan a long trace step the Stepper or a Program
	// over Trace.Walk instead.
	Eval(tr *Trace, i int) bool
	// Vars returns the sorted, de-duplicated state variables referenced.
	Vars() []string
	// String renders the formula in the thesis' ASCII notation.
	String() string
}

// operator is the operator of a formula node and of a compiled Program
// node.  The order matters: the atoms come first, then the connectives,
// the past-time operators and the future-time ones (isAtom, isTemporal).
type operator uint8

const (
	// Atoms read the state of one tick.
	opConst       operator = iota // val, a Bool
	opVar                         // name is truthy
	opCompare                     // name cmp val
	opCompareVars                 // name cmp right
	// Connectives.
	opNot
	opAnd
	opOr
	opImplies
	opIff
	// Past-time operators, which carry state from tick to tick.
	opPrev
	opOnce
	opHist
	opBecame
	opPrevFor    // d
	opPrevWithin // d
	opInitially
	// Future-time operators, for specification and realizability analysis
	// only; no run-time monitor compiles them.
	opNext
	opEventually
	opAlways
)

// isAtom reports whether the operator reads the state.
func (op operator) isAtom() bool { return op <= opCompareVars }

// isTemporal reports whether the operator carries per-run state.
func (op operator) isTemporal() bool { return op >= opPrev && op <= opInitially }

// opNames renders the operators of one child as name(child); opSeps joins
// the children of the others as (a) sep (b).
var (
	opNames = [...]string{opNot: "!", opPrev: "prev", opOnce: "once", opHist: "hist", opBecame: "became",
		opPrevFor: "prevfor", opPrevWithin: "prevwithin", opInitially: "initially",
		opNext: "next", opEventually: "eventually", opAlways: "always"}
	opSeps = [...]string{opAnd: " & ", opOr: " | ", opImplies: " => ", opIff: " <=> "}
)

// node is every formula: an operator, its atom operands, the window of the
// bounded-past operators (zero for every other operator) and the operand
// formulas.
type node struct {
	op    operator
	cmp   CompareOp
	name  string
	right string
	val   Value
	d     time.Duration
	kids  []Formula
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

// True is the constant true formula.
var True Formula = &node{op: opConst, val: Bool(true)}

// False is the constant false formula.
var False Formula = &node{op: opConst, val: Bool(false)}

// Var returns an atom that is true when the named variable is truthy.
func Var(name string) Formula { return &node{op: opVar, name: name} }

// Compare returns an atom comparing the named variable with a constant.
func Compare(name string, op CompareOp, val Value) Formula {
	return &node{op: opCompare, name: name, cmp: op, val: val}
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

// CompareVars returns an atom comparing two state variables.
func CompareVars(left string, op CompareOp, right string) Formula {
	return &node{op: opCompareVars, name: left, cmp: op, right: right}
}

// Comparison returns the variable, operator and constant of an atom built by
// Compare (or Eq, Ne, Lt, Le, Gt, Ge); ok is false for every other formula.
func Comparison(f Formula) (name string, op CompareOp, val Value, ok bool) {
	if n, isNode := f.(*node); isNode && n.op == opCompare {
		return n.name, n.cmp, n.val, true
	}
	return "", 0, Value{}, false
}

// Not returns the negation ¬f.
func Not(f Formula) Formula { return &node{op: opNot, kids: []Formula{f}} }

// And returns the conjunction of the given formulas (true when empty).
func And(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return &node{op: opAnd, kids: fs}
}

// Or returns the disjunction of the given formulas (false when empty).
func Or(fs ...Formula) Formula {
	if len(fs) == 1 {
		return fs[0]
	}
	return &node{op: opOr, kids: fs}
}

// Implies returns the material implication ant → con evaluated state-wise.
// Safety goals in the thesis use the entailment pattern P ⇒ Q, meaning the
// implication holds in every state; Eval checks the current state and the
// monitor layer checks it continuously.
func Implies(ant, con Formula) Formula { return &node{op: opImplies, kids: []Formula{ant, con}} }

// Iff returns the biconditional a ⇔ b.
func Iff(a, b Formula) Formula { return &node{op: opIff, kids: []Formula{a, b}} }

// Prev returns l f: true when f held in the previous state.  In the initial
// state there is no previous state and Prev is false, matching the KAOS
// convention that monitored values are unknown before the first observation.
func Prev(f Formula) Formula { return &node{op: opPrev, kids: []Formula{f}} }

// Once returns the "true in some previous state" operator.
func Once(f Formula) Formula { return &node{op: opOnce, kids: []Formula{f}} }

// Historically returns the "true in all previous states" operator (vacuously
// true in the initial state).
func Historically(f Formula) Formula { return &node{op: opHist, kids: []Formula{f}} }

// Became returns @f = f ∧ l¬f: f is true now and was false in the previous
// state.  In the initial state Became is true when f is true, because the
// thesis treats the initial state as the instant the condition first holds.
func Became(f Formula) Formula { return &node{op: opBecame, kids: []Formula{f}} }

// PrevFor returns ln<T f: f held continuously for duration T ending at the
// previous state.  It is false until the trace contains at least T worth of
// history, reflecting that actuation-delay assumptions cannot be discharged
// before the delay has elapsed.
func PrevFor(f Formula, d time.Duration) Formula {
	return &node{op: opPrevFor, d: d, kids: []Formula{f}}
}

// PrevWithin returns l<T f: f held at least once within duration T before the
// current state.
func PrevWithin(f Formula, d time.Duration) Formula {
	return &node{op: opPrevWithin, d: d, kids: []Formula{f}}
}

// Initially returns S0 ⊨ f: f held in the initial state of the trace.
func Initially(f Formula) Formula { return &node{op: opInitially, kids: []Formula{f}} }

// Next returns m f: f holds in the next state (false at the end of a trace).
func Next(f Formula) Formula { return &node{op: opNext, kids: []Formula{f}} }

// Eventually returns ♦f: f holds now or in some future state of the trace.
// Goals containing Eventually are not realizable by run-time monitors (the
// thesis, §4.5.3); the realizability analysis flags them.
func Eventually(f Formula) Formula { return &node{op: opEventually, kids: []Formula{f}} }

// Always returns qf: f holds now and in all future states of the trace.
func Always(f Formula) Formula { return &node{op: opAlways, kids: []Formula{f}} }

// holds evaluates an atom on one state.
func (f *node) holds(s State) bool {
	switch f.op {
	case opConst:
		return f.val.b
	case opVar:
		return s.Bool(f.name)
	case opCompare:
		v := s.Get(f.name)
		return v.IsValid() && compareValues(v, f.val, f.cmp)
	default: // opCompareVars
		l, r := s.Get(f.name), s.Get(f.right)
		return l.IsValid() && r.IsValid() && compareValues(l, r, f.cmp)
	}
}

// Eval evaluates the formula at index i of trace tr.  The bounded-past
// windows are converted to steps at the trace's period.
func (f *node) Eval(tr *Trace, i int) bool {
	switch f.op {
	case opConst:
		return f.val.b
	case opVar, opCompare, opCompareVars:
		return f.holds(tr.At(i))
	case opAnd, opOr:
		// And is false at its first false operand, Or true at its first
		// true one.
		stop := f.op == opOr
		for _, k := range f.kids {
			if k.Eval(tr, i) == stop {
				return stop
			}
		}
		return !stop
	}
	k := f.kids[0]
	switch f.op {
	case opNot:
		return !k.Eval(tr, i)
	case opImplies:
		return !k.Eval(tr, i) || f.kids[1].Eval(tr, i)
	case opIff:
		return k.Eval(tr, i) == f.kids[1].Eval(tr, i)
	case opPrev:
		return i > 0 && k.Eval(tr, i-1)
	case opOnce:
		return evalsTo(true, k, tr, 0, i)
	case opHist:
		return !evalsTo(false, k, tr, 0, i)
	case opBecame:
		return k.Eval(tr, i) && (i == 0 || !k.Eval(tr, i-1))
	case opPrevFor:
		n := stepsFor(f.d, tr.Period)
		return n == 0 || (i >= n && !evalsTo(false, k, tr, i-n, i))
	case opPrevWithin:
		return evalsTo(true, k, tr, max(i-stepsFor(f.d, tr.Period), 0), i)
	case opInitially:
		return tr.Len() > 0 && k.Eval(tr, 0)
	case opNext:
		return i+1 < tr.Len() && k.Eval(tr, i+1)
	case opEventually:
		return evalsTo(true, k, tr, i, tr.Len())
	default: // opAlways
		return !evalsTo(false, k, tr, i, tr.Len())
	}
}

// evalsTo reports whether f evaluates to want at some index in [lo, hi).
func evalsTo(want bool, f Formula, tr *Trace, lo, hi int) bool {
	for j := lo; j < hi; j++ {
		if f.Eval(tr, j) == want {
			return true
		}
	}
	return false
}

// Vars returns the sorted, de-duplicated state variables referenced.
func (f *node) Vars() []string {
	switch f.op {
	case opConst:
		return nil
	case opVar, opCompare:
		return []string{f.name}
	case opCompareVars:
		if f.name == f.right {
			return []string{f.name}
		}
		vs := []string{f.name, f.right}
		sort.Strings(vs)
		return vs
	case opAnd, opOr, opImplies, opIff:
		return mergeVars(f.kids)
	default:
		return f.kids[0].Vars()
	}
}

// mergeVars merges and de-duplicates the variable sets of sub-formulas.
func mergeVars(fs []Formula) []string {
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

// String renders the formula in the thesis' ASCII notation.
func (f *node) String() string {
	switch f.op {
	case opConst:
		return f.val.String()
	case opVar:
		return f.name
	case opCompare:
		return f.name + " " + f.cmp.String() + " " + f.val.String()
	case opCompareVars:
		return f.name + " " + f.cmp.String() + " " + f.right
	case opAnd, opOr, opImplies, opIff:
		if len(f.kids) == 0 { // And() and Or()
			return Bool(f.op == opAnd).String()
		}
		parts := make([]string, len(f.kids))
		for i, k := range f.kids {
			parts[i] = "(" + k.String() + ")"
		}
		return strings.Join(parts, opSeps[f.op])
	case opPrevFor, opPrevWithin:
		return opNames[f.op] + "[" + f.d.String() + "](" + f.kids[0].String() + ")"
	default:
		return opNames[f.op] + "(" + f.kids[0].String() + ")"
	}
}

// ---------------------------------------------------------------------------
// Structural queries
// ---------------------------------------------------------------------------

// anyOp reports whether f or any formula below it has one of the operators.
func anyOp(f Formula, ops ...operator) bool {
	n, ok := f.(*node)
	if !ok {
		return false
	}
	if slices.Contains(ops, n.op) {
		return true
	}
	for _, k := range n.kids {
		if anyOp(k, ops...) {
			return true
		}
	}
	return false
}

// IsPastTime reports whether the formula uses only propositional and
// past-time operators, i.e. whether it can be monitored incrementally at
// run time without reference to the future.
func IsPastTime(f Formula) bool { return !anyOp(f, opNext, opEventually, opAlways) }

// ReferencesFuture reports whether the formula contains an unbounded
// future-time operator (Eventually), which makes a goal unrealizable per the
// thesis' realizability rules.
func ReferencesFuture(f Formula) bool { return anyOp(f, opEventually) }

// kidsOf returns the operands of f when it is a node with the operator op.
func kidsOf(f Formula, op operator) ([]Formula, bool) {
	if n, ok := f.(*node); ok && n.op == op {
		return n.kids, true
	}
	return nil, false
}

// Antecedent returns the antecedent of an implication formula, or nil when
// the formula is not an implication.  ICPA uses the antecedent/consequent
// split to infer monitored versus controlled variable sets.
func Antecedent(f Formula) Formula {
	if kids, ok := kidsOf(f, opImplies); ok {
		return kids[0]
	}
	return nil
}

// Consequent returns the consequent of an implication formula, or nil.
func Consequent(f Formula) Formula {
	if kids, ok := kidsOf(f, opImplies); ok {
		return kids[1]
	}
	return nil
}

// Conjuncts returns the top-level conjuncts of a formula: the operands of a
// top-level And, or the formula itself otherwise.  ICPA's conjunctive-goal
// splitting (thesis §3.3.4) is built on this.
func Conjuncts(f Formula) []Formula {
	if kids, ok := kidsOf(f, opAnd); ok {
		return append([]Formula(nil), kids...)
	}
	return []Formula{f}
}

// Disjuncts returns the top-level disjuncts of a formula: the operands of a
// top-level Or, or the formula itself otherwise.  OR-reduction (thesis
// §3.3.5) is built on this.
func Disjuncts(f Formula) []Formula {
	if kids, ok := kidsOf(f, opOr); ok {
		return append([]Formula(nil), kids...)
	}
	return []Formula{f}
}

// IsDelayed reports whether every atomic proposition in the formula is
// guarded by a past-time operator (Prev, Once, Historically, Became,
// PrevFor, PrevWithin or Initially).  ICPA uses this to decide whether the
// antecedent of a goal is observed at least one state before the controlled
// action, which is a precondition for realizability (thesis §4.5.3).
func IsDelayed(f Formula) bool {
	n, ok := f.(*node)
	switch {
	case !ok:
		return false
	case n.op == opConst || n.op.isTemporal():
		return true
	case n.op < opNot || n.op > opIff:
		return false
	}
	for _, k := range n.kids {
		if !IsDelayed(k) {
			return false
		}
	}
	return len(n.kids) > 0
}
