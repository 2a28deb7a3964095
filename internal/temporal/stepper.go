package temporal

import (
	"fmt"
	"time"
)

// Stepper is the reference incremental evaluator for a past-time formula: it
// consumes one state per simulation step and reports whether the formula
// holds at that step, without re-scanning the trace.  It walks the formula
// tree node by node and evaluates every atom on the stepped state by name,
// through the State's string-keyed Get and Bool — the behaviour of the
// map-backed State representation — so it shares no evaluation code with
// Program, the production evaluator.
// It exists as the independent oracle the differential tests compare
// Program (and every suite built on it) against.
type Stepper struct {
	root  *stepNode
	cur   State // the state being stepped, which the atoms read
	steps int
}

// CompileReference builds a reference Stepper for a past-time formula.  The
// period is the simulation state period used to convert the bounded-past
// operators' durations into step counts; a zero period defaults to 1 ms.  It
// returns an error when the formula contains future-time operators, which
// cannot be monitored incrementally.
func CompileReference(f Formula, period time.Duration) (*Stepper, error) {
	if period <= 0 {
		period = time.Millisecond
	}
	if !IsPastTime(f) {
		return nil, fmt.Errorf("temporal: formula %q contains future-time operators and cannot be compiled to a run-time monitor", f)
	}
	root, err := compileStep(f, period)
	if err != nil {
		return nil, err
	}
	st := &Stepper{root: root}
	st.Reset()
	return st, nil
}

// Step feeds the next state and reports whether the formula holds at it.
func (s *Stepper) Step(st State) bool {
	s.cur = st
	r := s.root.step(s)
	s.cur = nil
	s.steps++
	return r
}

// Steps returns the number of states consumed so far.
func (s *Stepper) Steps() int { return s.steps }

// Reset clears all temporal operator state so the Stepper can be reused for
// a fresh trace.
func (s *Stepper) Reset() {
	s.steps = 0
	s.root.reset()
}

// stepNode is one node of the evaluator tree: the formula node and the
// operator's state between steps.
type stepNode struct {
	f    *node
	kids []*stepNode
	n    int  // the window in steps of PrevFor and PrevWithin
	b    bool // prev: the child's last value; once: seen; hist: all previous; became: previous true; initially: the initial value
	cnt  int  // PrevFor: the child's run length; PrevWithin: the step it was last true (-1 never)
}

// compileStep builds the evaluator tree of a formula, children first.
func compileStep(f Formula, period time.Duration) (*stepNode, error) {
	nd, ok := f.(*node)
	if !ok {
		return nil, fmt.Errorf("temporal: cannot compile formula node %T", f)
	}
	sn := &stepNode{f: nd, kids: make([]*stepNode, len(nd.kids)), n: stepsFor(nd.d, period)}
	for i, k := range nd.kids {
		c, err := compileStep(k, period)
		if err != nil {
			return nil, err
		}
		sn.kids[i] = c
	}
	return sn, nil
}

// step evaluates the node at the Stepper's current state.  Every child is
// stepped, also once the result is known, so that all temporal
// sub-operators advance their state.
func (n *stepNode) step(s *Stepper) bool {
	switch n.f.op {
	case opConst, opVar, opCompare, opCompareVars:
		return n.f.holds(s.cur)
	case opAnd, opOr:
		and := n.f.op == opAnd
		out := and
		for _, c := range n.kids {
			if c.step(s) != and {
				out = !and
			}
		}
		return out
	}
	a := n.kids[0].step(s)
	switch n.f.op {
	case opNot:
		return !a
	case opImplies:
		b := n.kids[1].step(s)
		return !a || b
	case opIff:
		return a == n.kids[1].step(s)
	case opPrev:
		out := s.steps > 0 && n.b
		n.b = a
		return out
	case opOnce:
		out := n.b
		n.b = n.b || a
		return out
	case opHist:
		out := n.b
		n.b = n.b && a
		return out
	case opBecame:
		out := a && !n.b
		n.b = a
		return out
	case opPrevFor:
		out := n.n == 0 || (s.steps >= n.n && n.cnt >= n.n)
		if a {
			n.cnt++
		} else {
			n.cnt = 0
		}
		return out
	case opPrevWithin:
		out := n.cnt >= 0 && s.steps-n.cnt <= n.n
		if a {
			n.cnt = s.steps
		}
		return out
	default: // opInitially
		if s.steps == 0 {
			n.b = a
		}
		return n.b
	}
}

// reset rewinds the node and its children to their state before the first
// step.
func (n *stepNode) reset() {
	n.b = n.f.op == opHist
	n.cnt = 0
	if n.f.op == opPrevWithin {
		n.cnt = -1
	}
	for _, c := range n.kids {
		c.reset()
	}
}
