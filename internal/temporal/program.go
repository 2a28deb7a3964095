package temporal

import (
	"encoding/binary"
	"fmt"
	"math"
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
// the formula's per-step boolean output.  Step evaluates the program against
// the next state and Output reads a tap's verdict for that state.  There is
// one evaluator: Step is the width-1 case of lane-batched evaluation
// (program_lanes.go), StepLanes over the scalar state with the verdict in bit
// 0 of each tap's mask.  Semantics are identical to compiling each formula to
// its own reference Stepper and stepping them in lockstep: every temporal
// operator node advances its internal state exactly once per step, and
// sharing is sound because a node's output is a deterministic function of its
// children's per-step values and its own state.
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
	roots []int

	intern map[string]int
	steps  int

	nodeRefs int
	atomRefs int

	// Lane registers (SetLanes): lmask holds each node's per-lane output
	// mask for the last step, lbool the single-bit operator state (the
	// previous child value for prev, the seen flag for once, the
	// all-previous flag for historically, the previous-true flag for became,
	// the captured initial verdict for initially), and lcnt the per-lane
	// counters of the bounded-past operators (run length for PrevFor,
	// last-true step for PrevWithin; nil for every other op).
	lanes int
	lmask []uint64
	lbool []uint64
	lcnt  [][]int32

	// Lane-mode lowering (program_lanes.go): the atom kernels bound to
	// lschema, the watch table, the CSR parent adjacency (node i's parents
	// are lpar[lparAt[i]:lparAt[i+1]]), and node bitsets — lops (every
	// connective and temporal node, a full pass), lalways (the stateful
	// temporal nodes, evaluated every step) and ldirty (nodes whose inputs
	// changed this step).  lfull forces a full pass on the next StepLanes.
	//
	// bindAtoms orders latoms as the watched typed atoms grouped by operand
	// slot, then from lwAt[len(lwBase)] the atoms run every step.  Watch
	// group g reads the lane group at physical index lwBase[g], its atoms
	// are latoms[lwAt[g]:lwAt[g+1]], and its shadow — the group's kinds and
	// values as its atoms last evaluated them — is
	// lshKind/lshVal[g*lanes:(g+1)*lanes].  lchanged lists this step's
	// changed groups; lnoKind and lnoVal are one all-absent lane group.
	latoms   []laneAtom
	lwBase   []int
	lwAt     []int32
	lshKind  []uint8
	lshVal   []float64
	lchanged []int32
	lnoKind  []uint8
	lnoVal   []float64
	lschema  *Schema
	lpar     []int32
	lparAt   []int32
	lops     []uint64
	lalways  []uint64
	ldirty   []uint64
	lfull    bool
}

// Tap is a handle to one registered formula's per-step output.
type Tap int

// NewProgram returns an empty program.  The period converts bounded-past
// operator durations into step counts (a non-positive period defaults to the
// thesis' 1 ms); a non-nil schema resolves every atom to its register slot at
// compile time, so even the first step is hash-free.
func NewProgram(period time.Duration, schema *Schema) *Program {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Program{period: period, schema: schema, intern: make(map[string]int)}
}

// Add compiles a formula into the program, sharing every node an earlier
// formula already contributed, and returns the tap its verdict is read from.
// It rejects formulas containing future-time operators.
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

// Step evaluates the program against the next state and advances all
// temporal operator state by one step.  It is StepLanes at width 1: the first
// Step lowers the program to one lane — and lowers it again when formulas
// were added since, which mid-run requires a Reset first — and every later
// Step runs the lane kernels over the scalar state.  A program set to a wider
// lane mode must be driven through StepLanes.
func (p *Program) Step(st State) {
	if p.lanes != 1 || len(p.lmask) != len(p.nodes) {
		p.lowerScalar()
	}
	p.StepLanes(st)
}

// lowerScalar switches the program to lane width 1 before its first Step.
//
//lint:allocok one-time width-1 lowering before the first step of a program; steady-state Steps reuse its tables
func (p *Program) lowerScalar() {
	switch {
	case p.lanes > 1:
		panic(fmt.Sprintf("temporal: Step on a program in %d-lane mode; use StepLanes", p.lanes))
	case p.steps > 0:
		panic("temporal: formulas added after the first Step; Reset before stepping again")
	}
	_ = p.SetLanes(1) // width 1 accepts every program
}

// Output reads the verdict a tap's formula produced for the last Step.
func (p *Program) Output(t Tap) bool { return p.lmask[t]&1 != 0 }

// Steps returns the number of states consumed since the last Reset.
func (p *Program) Steps() int { return p.steps }

// Period returns the state period the program was compiled with.
func (p *Program) Period() time.Duration { return p.period }

// Reset clears all temporal operator state so the program can evaluate a
// fresh trace — the same contract as Stepper.Reset, applied to every shared
// node at once.
func (p *Program) Reset() {
	p.steps = 0
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

// pnode is one node of the flat program: its operator, its operand node
// indices (each smaller than the node's own index), the bounded-past window
// in steps, and the formula node it was compiled from, whose atom operands
// are also resolved here against a schema.  The per-run operator state
// lives in the program's lane registers.
type pnode struct {
	op   operator
	kids []int
	n    int
	f    *node
	ref  slotRef // the variable of opVar and opCompare, the left one of opCompareVars
	ref2 slotRef // the right variable of opCompareVars
	eref enumRef // a string constant of opCompare
}

// compile lowers one formula node, hash-consing it against every node the
// program already holds.  Children are compiled first, so their indices are
// available for both the structural key and the evaluation order invariant.
// The key is built in a stack buffer and looked up without allocating; it
// keeps the children's order, so And(a, b) and And(b, a) are two nodes,
// which costs a node and never correctness.
func (p *Program) compile(f Formula) (int, error) {
	nd, ok := f.(*node)
	if !ok {
		return 0, fmt.Errorf("temporal: cannot compile formula node %T", f)
	}
	p.nodeRefs++
	var kb [4]int
	kids := kb[:0]
	for _, k := range nd.kids {
		i, err := p.compile(k)
		if err != nil {
			return 0, err
		}
		kids = append(kids, i)
	}
	n := stepsFor(nd.d, p.period) // 0 but for PrevFor and PrevWithin

	var kbuf [64]byte
	key := append(kbuf[:0], byte(nd.op), byte(nd.cmp))
	if nd.op.isAtom() {
		p.atomRefs++
		key = appendKeyString(appendKeyString(key, nd.name), nd.right)
		key = append(key, byte(nd.val.kind))
		switch nd.val.kind {
		case KindBool:
			key = append(key, byte(b2u(nd.val.b)))
		case KindNumber:
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(nd.val.f))
		case KindString:
			key = appendKeyString(key, nd.val.s)
		}
	}
	for _, k := range kids {
		key = binary.AppendUvarint(key, uint64(k))
	}
	key = binary.AppendUvarint(key, uint64(n))
	if i, ok := p.intern[string(key)]; ok {
		return i, nil
	}

	pn := pnode{op: nd.op, kids: append([]int(nil), kids...), n: n, f: nd}
	switch nd.op {
	case opVar:
		pn.ref = p.newSlotRef(nd.name)
	case opCompare:
		pn.ref = p.newSlotRef(nd.name)
		if nd.val.kind == KindString {
			pn.eref = p.newEnumRef(nd.val.s)
		}
	case opCompareVars:
		pn.ref, pn.ref2 = p.newSlotRef(nd.name), p.newSlotRef(nd.right)
	}
	i := len(p.nodes)
	p.nodes = append(p.nodes, pn)
	p.intern[string(key)] = i
	return i, nil
}

// appendKeyString appends s to a structural key, length first, so no two
// operand lists encode alike.
func appendKeyString(key []byte, s string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(s))), s...)
}

// newSlotRef resolves an atom's variable name against the program's schema:
// at compile time when the schema is known, lazily (one pointer compare per
// step, one name lookup per schema change) otherwise.
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

// stepsFor converts a bounded-past operator's duration into a whole number of
// steps at the given period (1 ms when the period is not positive), rounding
// up so the window is never under-approximated.
func stepsFor(d, period time.Duration) int {
	if d <= 0 {
		return 0
	}
	if period <= 0 {
		period = time.Millisecond
	}
	steps := int((d + period - 1) / period)
	if steps < 1 {
		steps = 1
	}
	return steps
}

// slotRef is a variable reference resolved to a register slot.  The slot is
// bound to one Schema: when a state from a different schema is observed (the
// program was compiled without a schema, or is reused across scenarios) the
// name is re-resolved once and cached, so steady-state evaluation is an
// array load guarded by one pointer compare.
type slotRef struct {
	name   string
	schema *Schema
	slot   int
}

// resolve returns the register slot of the reference for st's schema,
// re-resolving (and caching) on a schema change.  ok is false only for the
// nil State, whose variables are all absent.
func (r *slotRef) resolve(st State) (int, bool) {
	if sc := st.Schema(); sc != r.schema {
		if sc == nil {
			return 0, false
		}
		r.rebind(sc)
	}
	return r.slot, true
}

// rebind resolves the name against a new schema.
//
//lint:allocok schema rebind through Schema.Intern; runs on the first observation of a schema, never in steady state
func (r *slotRef) rebind(sc *Schema) {
	r.schema = sc
	r.slot = sc.Intern(r.name)
}

// enumRef is an enumeration-string constant resolved to its per-schema
// interned id, guarded by the same pointer compare as slotRef, so equality
// against the constant is one compare with the id on the value plane.
type enumRef struct {
	s      string
	schema *Schema
	id     int32
}

// idIn returns the constant's interned id in sc, re-resolving on a schema
// change.
func (e *enumRef) idIn(sc *Schema) int32 {
	if sc != e.schema {
		e.schema = sc
		e.id = sc.InternString(e.s)
	}
	return e.id
}
