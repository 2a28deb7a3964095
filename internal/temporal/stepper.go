package temporal

import (
	"fmt"
	"time"
)

// Stepper is the reference incremental evaluator for a past-time formula: it
// consumes one state per simulation step and reports whether the formula
// holds at that step, without re-scanning the trace.  It walks the formula
// tree node by node and evaluates every atom on the state through the same
// string-keyed lookups as Formula.Eval — the behaviour of the map-backed
// State representation — so it shares no evaluation code with Program, the
// production evaluator.
// It exists as the independent oracle the differential tests compare
// Program (and every suite built on it) against.
type Stepper struct {
	root  stepNode
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
	c := &compiler{period: period}
	root, err := c.compile(f)
	if err != nil {
		return nil, err
	}
	return &Stepper{root: root}, nil
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

// stepNode is one node of the compiled evaluator tree.
type stepNode interface {
	step(s *Stepper) bool
	reset()
}

// compiler lowers a Formula tree into stepNodes.
type compiler struct {
	period time.Duration
}

func (c *compiler) compile(f Formula) (stepNode, error) {
	switch ff := f.(type) {
	case constFormula, varFormula, compareFormula, compareVarsFormula:
		return &atomNode{f: f.(atomFormula)}, nil
	case notFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &notNode{c: n}, nil
	case andFormula:
		cs, err := c.compileAll(ff.fs)
		if err != nil {
			return nil, err
		}
		return &andNode{cs: cs}, nil
	case orFormula:
		cs, err := c.compileAll(ff.fs)
		if err != nil {
			return nil, err
		}
		return &orNode{cs: cs}, nil
	case impliesFormula:
		a, err := c.compile(ff.ant)
		if err != nil {
			return nil, err
		}
		b, err := c.compile(ff.con)
		if err != nil {
			return nil, err
		}
		return &impliesNode{a: a, b: b}, nil
	case iffFormula:
		a, err := c.compile(ff.a)
		if err != nil {
			return nil, err
		}
		b, err := c.compile(ff.b)
		if err != nil {
			return nil, err
		}
		return &iffNode{a: a, b: b}, nil
	case prevFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &prevNode{c: n}, nil
	case onceFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &onceNode{c: n}, nil
	case historicallyFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &histNode{c: n, allPrev: true}, nil
	case becameFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &becameNode{c: n}, nil
	case prevForFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &prevForNode{c: n, n: stepsFor(ff.d, c.period)}, nil
	case prevWithinFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &prevWithinNode{c: n, n: stepsFor(ff.d, c.period), lastTrue: -1}, nil
	case initiallyFormula:
		n, err := c.compile(ff.f)
		if err != nil {
			return nil, err
		}
		return &initiallyNode{c: n}, nil
	default:
		return nil, fmt.Errorf("temporal: cannot compile formula node %T", f)
	}
}

func (c *compiler) compileAll(fs []Formula) ([]stepNode, error) {
	out := make([]stepNode, len(fs))
	for i, f := range fs {
		n, err := c.compile(f)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// atomNode evaluates an atom on the stepped state by name, as Formula.Eval
// does.
type atomNode struct{ f atomFormula }

func (n *atomNode) step(s *Stepper) bool { return n.f.holds(s.cur) }
func (n *atomNode) reset()               {}

type notNode struct{ c stepNode }

func (n *notNode) step(s *Stepper) bool { return !n.c.step(s) }
func (n *notNode) reset()               { n.c.reset() }

type andNode struct{ cs []stepNode }

func (n *andNode) step(s *Stepper) bool {
	// Every child is stepped even after the result is known so that all
	// temporal sub-operators advance their internal state.
	out := true
	for _, c := range n.cs {
		if !c.step(s) {
			out = false
		}
	}
	return out
}
func (n *andNode) reset() {
	for _, c := range n.cs {
		c.reset()
	}
}

type orNode struct{ cs []stepNode }

func (n *orNode) step(s *Stepper) bool {
	out := false
	for _, c := range n.cs {
		if c.step(s) {
			out = true
		}
	}
	return out
}
func (n *orNode) reset() {
	for _, c := range n.cs {
		c.reset()
	}
}

type impliesNode struct{ a, b stepNode }

func (n *impliesNode) step(s *Stepper) bool {
	av := n.a.step(s)
	bv := n.b.step(s)
	return !av || bv
}
func (n *impliesNode) reset() { n.a.reset(); n.b.reset() }

type iffNode struct{ a, b stepNode }

func (n *iffNode) step(s *Stepper) bool {
	av := n.a.step(s)
	bv := n.b.step(s)
	return av == bv
}
func (n *iffNode) reset() { n.a.reset(); n.b.reset() }

type prevNode struct {
	c    stepNode
	prev bool
}

func (n *prevNode) step(s *Stepper) bool {
	out := s.steps > 0 && n.prev
	n.prev = n.c.step(s)
	return out
}
func (n *prevNode) reset() { n.prev = false; n.c.reset() }

type onceNode struct {
	c    stepNode
	seen bool
}

func (n *onceNode) step(s *Stepper) bool {
	out := n.seen
	if n.c.step(s) {
		n.seen = true
	}
	return out
}
func (n *onceNode) reset() { n.seen = false; n.c.reset() }

type histNode struct {
	c       stepNode
	allPrev bool
}

func (n *histNode) step(s *Stepper) bool {
	out := n.allPrev
	if !n.c.step(s) {
		n.allPrev = false
	}
	return out
}
func (n *histNode) reset() { n.allPrev = true; n.c.reset() }

type becameNode struct {
	c        stepNode
	prevTrue bool
}

func (n *becameNode) step(s *Stepper) bool {
	cur := n.c.step(s)
	out := cur && !n.prevTrue
	n.prevTrue = cur
	return out
}
func (n *becameNode) reset() { n.prevTrue = false; n.c.reset() }

type prevForNode struct {
	c   stepNode
	n   int
	run int
}

func (n *prevForNode) step(s *Stepper) bool {
	out := n.n == 0 || (s.steps >= n.n && n.run >= n.n)
	if n.c.step(s) {
		n.run++
	} else {
		n.run = 0
	}
	return out
}
func (n *prevForNode) reset() { n.run = 0; n.c.reset() }

type prevWithinNode struct {
	c        stepNode
	n        int
	lastTrue int
}

func (n *prevWithinNode) step(s *Stepper) bool {
	i := s.steps
	out := n.lastTrue >= 0 && i-n.lastTrue <= n.n
	if n.c.step(s) {
		n.lastTrue = i
	}
	return out
}
func (n *prevWithinNode) reset() { n.lastTrue = -1; n.c.reset() }

type initiallyNode struct {
	c       stepNode
	have    bool
	initial bool
}

func (n *initiallyNode) step(s *Stepper) bool {
	cur := n.c.step(s)
	if !n.have {
		n.initial = cur
		n.have = true
	}
	return n.initial
}
func (n *initiallyNode) reset() { n.have = false; n.initial = false; n.c.reset() }
