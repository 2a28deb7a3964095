package temporal

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Program is a suite-level compiled evaluator: the goal formulas of a whole
// monitor suite are lowered into one flat, topologically ordered node array
// with common subexpressions hash-consed away, so each shared atom and each
// shared subformula is evaluated exactly once per observed state however many
// formulas reference it.  The thesis' hierarchical monitoring plan evaluates
// ~30 goal and subgoal formulas against the same state every step, and those
// formulas overlap heavily (the same `collision`, speed and actuator-command
// atoms appear across many goals); Kopetz's system-of-systems argument
// (PAPERS.md) treats such a monitoring layer as one composed artifact rather
// than independent constituents, and the Program is that artifact made
// executable.
//
// Formulas are registered with Add, which returns a Tap — a stable handle to
// the formula's per-step boolean output.  Each Step evaluates every node once
// (children always precede their parents in the array, so a single forward
// pass suffices) and Output reads a tap's verdict for that state.  Semantics
// are identical to compiling each formula to its own Stepper and stepping
// them in lockstep: every temporal operator node advances its internal state
// exactly once per step, and sharing is sound because a node's output is a
// deterministic function of its children's per-step values and its own state.
//
// Reset clears all operator state so one compiled Program can monitor run
// after run: a sweep worker compiles the suite once and re-resolves each
// atom's register slot against the next run's schema on its first step (a
// pointer-guarded name lookup, not a recompilation).  A Program is not safe
// for concurrent use; workers own one each.
type Program struct {
	period time.Duration
	schema *Schema

	nodes []pnode
	vals  []bool
	roots []int

	intern map[string]int
	steps  int

	nodeRefs int
	atomRefs int

	// Lane mode (SetLanes/StepLanes): per-node lane registers.  lmask holds
	// each node's per-lane output mask for the last StepLanes, lbool the mask
	// analogue of pnode.bstate, and lcnt the per-lane counters of the
	// bounded-past operators (run length for PrevFor, last-true step for
	// PrevWithin; nil for every other op).
	lanes int
	lmask []uint64
	lbool []uint64
	lcnt  [][]int32

	// Lane-mode lowering (program_lanes.go): the typed atom kernels bound to
	// lschema, the CSR parent adjacency (node i's parents are
	// lpar[lparAt[i]:lparAt[i+1]]), and node bitsets — lops (every
	// connective and temporal node, a full pass), lalways (the stateful
	// temporal nodes, evaluated every step) and ldirty (nodes whose inputs
	// changed this step).  lfull forces a full pass on the next StepLanes.
	latoms  []laneAtom
	latomAt [atomOther + 2]int // latoms[latomAt[k]:latomAt[k+1]] have kind k
	lschema *Schema
	lpar    []int32
	lparAt  []int32
	lops    []uint64
	lalways []uint64
	ldirty  []uint64
	lfull   bool
}

// Tap is a handle to one registered formula's per-step output.
type Tap int

// NewProgram returns an empty program.  The period converts bounded-past
// operator durations into step counts (a non-positive period defaults to the
// thesis' 1 ms); a non-nil schema resolves every atom to its register slot at
// compile time, exactly like CompileWithSchema.
func NewProgram(period time.Duration, schema *Schema) *Program {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Program{period: period, schema: schema, intern: make(map[string]int)}
}

// Add compiles a formula into the program, sharing every node an earlier
// formula already contributed, and returns the tap its verdict is read from.
// Like Compile, it rejects formulas containing future-time operators.
func (p *Program) Add(f Formula) (Tap, error) {
	if !IsPastTime(f) {
		return 0, fmt.Errorf("temporal: formula %q contains future-time operators and cannot be compiled to a run-time monitor", f)
	}
	idx, err := p.compile(f)
	if err != nil {
		return 0, err
	}
	p.roots = append(p.roots, idx)
	return Tap(idx), nil
}

// MustAdd is like Add but panics on error; for statically known goal
// catalogues.
func (p *Program) MustAdd(f Formula) Tap {
	t, err := p.Add(f)
	if err != nil {
		panic(err)
	}
	return t
}

// Step evaluates every node against the next state, in topological order, and
// advances all temporal operator state by one step.
func (p *Program) Step(st State) {
	steps := p.steps
	vals := p.vals
	for i := range p.nodes {
		n := &p.nodes[i]
		var out bool
		switch n.op {
		case opConst:
			out = n.bstate
		case opVar:
			out = n.ref.boolAt(st)
		case opCompareNum:
			// All comparisons against a non-string constant — and ordered
			// comparisons against any constant — reduce to one float compare
			// on the number plane (AsNumber maps bools to 0/1 and strings to
			// NaN, which no comparison or inequality misclassifies).
			if f, ok := n.ref.numberOK(st); ok {
				out = compareNumbers(f, n.cval, n.cmp)
			}
		case opCompareStrEq:
			// Equality against an enumeration constant is an id compare on
			// the enumeration plane.
			if slot, ok := n.ref.resolve(st); ok {
				if k := st.SlotKind(slot); k != KindInvalid {
					match := k == KindString && st.SlotStringID(slot) == n.eref.idIn(st.Schema())
					out = match == (n.cmp == OpEq)
				}
			}
		case opCompareVarsNum:
			lf, lok := n.ref.numberOK(st)
			rf, rok := n.ref2.numberOK(st)
			out = lok && rok && compareNumbers(lf, rf, n.cmp)
		case opCompareVars:
			lv, rv := n.ref.value(st), n.ref2.value(st)
			if lv.IsValid() && rv.IsValid() {
				out = compareValues(lv, rv, n.cmp)
			}
		case opPred:
			out = n.fn(st)
		case opNot:
			out = !vals[n.a]
		case opAnd:
			out = true
			for _, k := range n.kids {
				if !vals[k] {
					out = false
					break // children are already evaluated; no state is skipped
				}
			}
		case opOr:
			for _, k := range n.kids {
				if vals[k] {
					out = true
					break
				}
			}
		case opImplies:
			out = !vals[n.a] || vals[n.b]
		case opIff:
			out = vals[n.a] == vals[n.b]
		case opPrev:
			out = steps > 0 && n.bstate
			n.bstate = vals[n.a]
		case opOnce:
			out = n.bstate
			if vals[n.a] {
				n.bstate = true
			}
		case opHist:
			out = n.bstate
			if !vals[n.a] {
				n.bstate = false
			}
		case opBecame:
			cur := vals[n.a]
			out = cur && !n.bstate
			n.bstate = cur
		case opPrevFor:
			out = n.n == 0 || (steps >= n.n && n.run >= n.n)
			if vals[n.a] {
				n.run++
			} else {
				n.run = 0
			}
		case opPrevWithin:
			out = n.lastTrue >= 0 && steps-n.lastTrue <= n.n
			if vals[n.a] {
				n.lastTrue = steps
			}
		case opInitially:
			cur := vals[n.a]
			if !n.have {
				n.bstate = cur
				n.have = true
			}
			out = n.bstate
		}
		vals[i] = out
	}
	p.steps++
}

// Output reads the verdict a tap's formula produced for the last Step.
func (p *Program) Output(t Tap) bool { return p.vals[t] }

// Steps returns the number of states consumed since the last Reset.
func (p *Program) Steps() int { return p.steps }

// Period returns the state period the program was compiled with.
func (p *Program) Period() time.Duration { return p.period }

// Reset clears all temporal operator state so the program can evaluate a
// fresh trace — the same contract as Stepper.Reset, applied to every shared
// node at once.
func (p *Program) Reset() {
	p.steps = 0
	for i := range p.nodes {
		n := &p.nodes[i]
		switch n.op {
		case opPrev, opOnce, opBecame:
			n.bstate = false
		case opHist:
			n.bstate = true
		case opPrevFor:
			n.run = 0
		case opPrevWithin:
			n.lastTrue = -1
		case opInitially:
			n.bstate, n.have = false, false
		}
	}
	p.resetLanes()
}

// ProgramStats describes how much evaluation the program's sharing removed.
type ProgramStats struct {
	// Formulas is the number of formulas registered with Add.
	Formulas int
	// Nodes is the number of unique nodes after hash-consing — the work one
	// Step performs.
	Nodes int
	// NodeRefs is the number of nodes the formulas would evaluate per step as
	// independent Steppers; NodeRefs - Nodes is the per-step saving.
	NodeRefs int
	// Atoms is the number of unique atom nodes (state reads) after sharing.
	Atoms int
	// AtomRefs is the number of atom occurrences across all formulas: how
	// many state reads per step the per-monitor evaluation performs.
	AtomRefs int
}

// Stats reports the program's sharing statistics.
func (p *Program) Stats() ProgramStats {
	s := ProgramStats{
		Formulas: len(p.roots),
		Nodes:    len(p.nodes),
		NodeRefs: p.nodeRefs,
		AtomRefs: p.atomRefs,
	}
	for i := range p.nodes {
		if p.nodes[i].op.isAtom() {
			s.Atoms++
		}
	}
	return s
}

// progOp enumerates the node kinds of a compiled program.
type progOp uint8

const (
	opConst progOp = iota
	opVar
	opCompareNum
	opCompareStrEq
	opCompareVarsNum
	opCompareVars
	opPred
	opNot
	opAnd
	opOr
	opImplies
	opIff
	opPrev
	opOnce
	opHist
	opBecame
	opPrevFor
	opPrevWithin
	opInitially
)

// isAtom reports whether the op reads the state (the ops up to opPred).
func (op progOp) isAtom() bool { return op <= opPred }

// isTemporal reports whether the op carries per-run operator state (the ops
// from opPrev on).
func (op progOp) isTemporal() bool { return op >= opPrev }

// pnode is one node of the flat program: its operator, operand node indices
// (always smaller than the node's own index) and the per-run operator state.
// bstate is the operator's single boolean register: the previous child value
// for prev, the seen flag for once, the all-previous flag for hist, the
// previous-true flag for became, the captured initial verdict for initially,
// and the constant itself for const nodes.
type pnode struct {
	op   progOp
	a, b int
	kids []int
	ref  slotRef
	ref2 slotRef
	cmp  CompareOp
	val  Value
	cval float64 // val.AsNumber(), precomputed for opCompareNum
	eref enumRef // val's interned id, for opCompareStrEq
	fn   func(State) bool
	n    int

	bstate   bool
	have     bool
	run      int
	lastTrue int
}

// compile lowers one formula node, hash-consing it against every node the
// program already holds.  Children are compiled first, so their indices are
// available for both the structural key and the evaluation order invariant.
func (p *Program) compile(f Formula) (int, error) {
	p.nodeRefs++
	switch ff := f.(type) {
	case constFormula:
		p.atomRefs++
		return p.internNode("c|"+strconv.FormatBool(bool(ff)),
			pnode{op: opConst, bstate: bool(ff)}), nil
	case varFormula:
		p.atomRefs++
		return p.internNode("v|"+ff.name,
			pnode{op: opVar, ref: p.newSlotRef(ff.name)}), nil
	case compareFormula:
		p.atomRefs++
		key := "k|" + ff.name + "|" + strconv.Itoa(int(ff.op)) + "|" + valueKey(ff.val)
		node := pnode{op: opCompareNum, ref: p.newSlotRef(ff.name), cmp: ff.op, val: ff.val, cval: ff.val.AsNumber()}
		if ff.val.kind == KindString && (ff.op == OpEq || ff.op == OpNe) {
			node = pnode{op: opCompareStrEq, ref: p.newSlotRef(ff.name), cmp: ff.op, val: ff.val, eref: p.newEnumRef(ff.val.s)}
		}
		return p.internNode(key, node), nil
	case compareVarsFormula:
		p.atomRefs++
		key := "K|" + ff.left + "|" + strconv.Itoa(int(ff.op)) + "|" + ff.right
		node := pnode{op: opCompareVars, ref: p.newSlotRef(ff.left), cmp: ff.op, ref2: p.newSlotRef(ff.right)}
		if ff.op != OpEq && ff.op != OpNe {
			node.op = opCompareVarsNum
		}
		return p.internNode(key, node), nil
	case predFormula:
		// Predicate atoms are never shared: two predicates may render and
		// list variables identically yet close over different functions, so
		// structural identity cannot be established.  Each occurrence gets
		// its own node.
		p.atomRefs++
		return p.appendNode(pnode{op: opPred, fn: ff.fn}), nil
	case notFormula:
		a, err := p.compile(ff.f)
		if err != nil {
			return 0, err
		}
		return p.internNode("!|"+strconv.Itoa(a), pnode{op: opNot, a: a}), nil
	case andFormula:
		return p.compileNary(opAnd, "&|", ff.fs)
	case orFormula:
		return p.compileNary(opOr, "||", ff.fs)
	case impliesFormula:
		a, err := p.compile(ff.ant)
		if err != nil {
			return 0, err
		}
		b, err := p.compile(ff.con)
		if err != nil {
			return 0, err
		}
		return p.internNode("=>|"+strconv.Itoa(a)+"|"+strconv.Itoa(b),
			pnode{op: opImplies, a: a, b: b}), nil
	case iffFormula:
		a, err := p.compile(ff.a)
		if err != nil {
			return 0, err
		}
		b, err := p.compile(ff.b)
		if err != nil {
			return 0, err
		}
		return p.internNode("<=>|"+strconv.Itoa(a)+"|"+strconv.Itoa(b),
			pnode{op: opIff, a: a, b: b}), nil
	case prevFormula:
		return p.compileUnary(opPrev, "p|", ff.f, 0)
	case onceFormula:
		return p.compileUnary(opOnce, "o|", ff.f, 0)
	case historicallyFormula:
		return p.compileUnary(opHist, "h|", ff.f, 0)
	case becameFormula:
		return p.compileUnary(opBecame, "b|", ff.f, 0)
	case prevForFormula:
		return p.compileUnary(opPrevFor, "pf|", ff.f, stepsFor(ff.d, p.period))
	case prevWithinFormula:
		return p.compileUnary(opPrevWithin, "pw|", ff.f, stepsFor(ff.d, p.period))
	case initiallyFormula:
		return p.compileUnary(opInitially, "i|", ff.f, 0)
	default:
		return 0, fmt.Errorf("temporal: cannot compile formula node %T", f)
	}
}

// compileUnary interns a single-child operator node; n is the bounded-past
// window in steps (part of the structural identity for the bounded ops).
func (p *Program) compileUnary(op progOp, tag string, child Formula, n int) (int, error) {
	a, err := p.compile(child)
	if err != nil {
		return 0, err
	}
	key := tag + strconv.Itoa(a)
	if n != 0 {
		key += "|" + strconv.Itoa(n)
	}
	node := pnode{op: op, a: a, n: n}
	switch op {
	case opHist:
		node.bstate = true
	case opPrevWithin:
		node.lastTrue = -1
	}
	return p.internNode(key, node), nil
}

// compileNary interns an and/or node over its children's node indices.  The
// key preserves child order: And(a, b) and And(b, a) evaluate identically but
// are interned separately, which costs a node and never correctness.
func (p *Program) compileNary(op progOp, tag string, fs []Formula) (int, error) {
	kids := make([]int, len(fs))
	var key strings.Builder
	key.WriteString(tag)
	for i, f := range fs {
		a, err := p.compile(f)
		if err != nil {
			return 0, err
		}
		kids[i] = a
		if i > 0 {
			key.WriteByte(',')
		}
		key.WriteString(strconv.Itoa(a))
	}
	return p.internNode(key.String(), pnode{op: op, kids: kids}), nil
}

// internNode returns the existing node for a structural key or appends a new
// one.
func (p *Program) internNode(key string, n pnode) int {
	if i, ok := p.intern[key]; ok {
		return i
	}
	i := p.appendNode(n)
	p.intern[key] = i
	return i
}

func (p *Program) appendNode(n pnode) int {
	i := len(p.nodes)
	p.nodes = append(p.nodes, n)
	p.vals = append(p.vals, false)
	return i
}

// newSlotRef resolves an atom's variable name against the program's schema,
// exactly as the per-formula compiler does: resolved at compile time when the
// schema is known, re-resolved lazily (one pointer compare per step, one name
// lookup per schema change) otherwise.
func (p *Program) newSlotRef(name string) slotRef {
	r := slotRef{name: name}
	if p.schema != nil {
		r.schema = p.schema
		r.slot = p.schema.Intern(name)
	}
	return r
}

// newEnumRef resolves an enumeration-string constant against the program's
// schema at compile time (lazily on the first step otherwise), mirroring
// newSlotRef.
func (p *Program) newEnumRef(s string) enumRef {
	e := enumRef{s: s}
	if p.schema != nil {
		e.schema = p.schema
		e.id = p.schema.InternString(s)
	}
	return e
}

// valueKey renders a Value with its kind tag for structural identity: the
// number 2 and the string "2" render differently, and two NaN constants
// intern separately (NaN never equals itself, so sharing them is pointless
// but harmless either way).
func valueKey(v Value) string {
	return strconv.Itoa(int(v.kind)) + ":" + v.String()
}
