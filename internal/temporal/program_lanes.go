package temporal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// Lane-batched program evaluation.
//
// This is the Program's only evaluator.  In lane mode the node array
// evaluates N independent traces in lockstep against one lane-widened State
// (NewStateWithLanes): each node produces a uint64 output mask whose bit l is
// the node's verdict for lane l, so the boolean connectives collapse to
// single word operations.  Temporal operators keep per-lane state — a mask
// register for the single-bit operators (prev/once/historically/became/
// initially) and a small per-lane counter array for the bounded-past
// operators — and advance all lanes exactly once per StepLanes, so lane l's
// mask bit sequence is identical to feeding lane l's trace through the
// formula's reference Stepper.  Width 1 over a scalar State is Program.Step.
//
// SetLanes lowers the node array into two parts:
//
//   - Typed atom kernels.  Every atom becomes a laneAtom, sorted by kind and
//     comparison operator.  Each typed kernel is one branch-free compare per
//     lane over the slot's contiguous value-plane lane vector when every lane
//     holds the expected kind: a boolean variable is != 0, a numeric
//     comparison is its CompareOp against the constant, and enumeration
//     ==/!= compares the stored ids.  Lanes of mixed kinds fall back to the
//     per-lane SlotBool/SlotNumberOK semantics, and a slot beyond the state's
//     width (a name interned after the state was sized) reads as absent on
//     every lane, exactly as the string-keyed reference treats it.  Constants,
//     variable-to-variable comparisons and (at width 1 only) predicates
//     evaluate lane by lane through the per-slot accessors.
//   - Change propagation.  A CSR parent adjacency and an "always" bitset of
//     the stateful temporal nodes.  Each StepLanes runs every atom kernel and
//     marks the parents of every atom whose mask changed in a dirty bitset;
//     it then walks the dirty and always bits in ascending node index (which
//     is topological order), re-evaluates only those nodes, and marks the
//     parents of every node whose mask changed.  A connective is a pure
//     function of its children's masks, so an unmarked connective's stored
//     mask is already what a full pass would compute: OutputMask is
//     bit-identical to evaluating every node, at the cost of what changed.
//     The first StepLanes after SetLanes or Reset, and after the observed
//     state's schema changes, evaluates every node.
//
// SetLanes allocates everything lane mode needs; StepLanes allocates
// nothing.  A program in lane mode is still not safe for concurrent use.

// MaxLanes is the widest supported lane batch: one bit per lane in the
// uint64 node masks.
const MaxLanes = 64

// atomKind selects the lane kernel an atom node is lowered to.
type atomKind uint8

const (
	atomBool  atomKind = iota // opVar: value plane != 0
	atomNum                   // opCompareNum: value plane CompareOp constant
	atomEnum                  // opCompareStrEq: value plane ==/!= interned id
	atomOther                 // opConst, opCompareVarsNum, opCompareVars, opPred: per-lane Value semantics
)

// laneAtom is one atom node lowered to a lane kernel.  base is the physical
// register index of lane 0 of the operand slot in the schema the kernels are
// bound to (-1 for the nil State); c is the constant operand, for atomEnum
// the enumeration constant's interned id in that schema.
type laneAtom struct {
	node int
	kind atomKind
	cmp  CompareOp
	c    float64
	base int
}

// SetLanes switches the program into lane mode at the given width,
// allocating per-node lane registers, the atom kernels and the change
// propagation tables.  It fails for widths outside [1, MaxLanes] and, above
// width 1, for programs containing predicate atoms (an opaque
// func(State) bool closure reads a scalar State, not one lane of a widened
// one).  All formulas must be registered before SetLanes; Add after SetLanes
// is rejected by StepLanes.
func (p *Program) SetLanes(lanes int) error {
	if lanes < 1 || lanes > MaxLanes {
		return fmt.Errorf("temporal: lane width %d outside [1, %d]", lanes, MaxLanes)
	}
	for i := range p.nodes {
		if lanes > 1 && p.nodes[i].op == opPred {
			return fmt.Errorf("temporal: program contains a predicate atom; predicates cannot be lane-stepped above width 1")
		}
	}
	n := len(p.nodes)
	words := (n + 63) / 64
	p.lanes = lanes
	p.lmask = make([]uint64, n)
	p.lbool = make([]uint64, n)
	p.lcnt = make([][]int32, n)
	p.latoms = p.latoms[:0]
	p.lops = make([]uint64, words)
	p.lalways = make([]uint64, words)
	p.ldirty = make([]uint64, words)
	p.lparAt = make([]int32, n+1)
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.op.isAtom() {
			a := laneAtom{node: i, kind: atomOther, cmp: nd.cmp, c: nd.cval}
			switch nd.op {
			case opVar:
				a.kind = atomBool
			case opCompareNum:
				a.kind = atomNum
			case opCompareStrEq:
				a.kind = atomEnum
			}
			p.latoms = append(p.latoms, a)
			continue
		}
		p.lops[i>>6] |= 1 << (uint(i) & 63)
		if nd.op.isTemporal() {
			p.lalways[i>>6] |= 1 << (uint(i) & 63)
		}
		switch nd.op {
		case opPrevFor, opPrevWithin:
			p.lcnt[i] = make([]int32, lanes)
		}
		p.forKids(i, func(k int) { p.lparAt[k+1]++ })
	}
	sort.SliceStable(p.latoms, func(i, j int) bool {
		a, b := &p.latoms[i], &p.latoms[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.cmp < b.cmp
	})
	for k := range p.latomAt {
		p.latomAt[k] = sort.Search(len(p.latoms), func(i int) bool { return p.latoms[i].kind >= atomKind(k) })
	}
	for i := 0; i < n; i++ {
		p.lparAt[i+1] += p.lparAt[i]
	}
	p.lpar = make([]int32, p.lparAt[n])
	fill := append([]int32(nil), p.lparAt[:n]...)
	for i := range p.nodes {
		p.forKids(i, func(k int) {
			p.lpar[fill[k]] = int32(i)
			fill[k]++
		})
	}
	p.resetLanes()
	return nil
}

// forKids calls fn with each child node index of node i (a child shared
// twice, as in And(a, a), is visited twice).
func (p *Program) forKids(i int, fn func(k int)) {
	n := &p.nodes[i]
	switch {
	case n.op.isAtom():
	case n.op == opAnd || n.op == opOr:
		for _, k := range n.kids {
			fn(k)
		}
	case n.op == opImplies || n.op == opIff:
		fn(n.a)
		fn(n.b)
	default:
		fn(n.a)
	}
}

// Lanes returns the lane width set by SetLanes or by the first Step (0
// before either).
func (p *Program) Lanes() int { return p.lanes }

// laneFull returns the mask with one bit set per configured lane.
func (p *Program) laneFull() uint64 {
	// lanes == 64 relies on Go's shift semantics: 1<<64 is 0, so 0-1 wraps
	// to the all-ones mask.
	return uint64(1)<<uint(p.lanes) - 1
}

// resetLanes rewinds all per-lane operator state, mirroring Reset's per-op
// clearing with masks and counters, and schedules a full pass for the next
// StepLanes (the cleared masks are no longer a function of their children).
func (p *Program) resetLanes() {
	if p.lanes == 0 {
		return
	}
	p.lfull = true
	for w := range p.ldirty {
		p.ldirty[w] = 0
	}
	full := p.laneFull()
	for i := range p.nodes {
		p.lmask[i] = 0
		switch p.nodes[i].op {
		case opHist:
			p.lbool[i] = full
		default:
			p.lbool[i] = 0
		}
		switch p.nodes[i].op {
		case opPrevFor:
			for l := range p.lcnt[i] {
				p.lcnt[i][l] = 0
			}
		case opPrevWithin:
			for l := range p.lcnt[i] {
				p.lcnt[i][l] = -1
			}
		}
	}
}

// bindAtoms resolves every atom kernel's operand slot and enumeration id
// against st's schema.
//
//lint:allocok schema rebind through Schema.Intern and InternString; runs on the first step after SetLanes or Reset and on a schema change, never in steady state
func (p *Program) bindAtoms(st State) {
	sc := st.Schema()
	p.lschema = sc
	for i := range p.latoms {
		a := &p.latoms[i]
		n := &p.nodes[a.node]
		a.base = -1
		if a.kind == atomOther {
			continue // evaluated through the node's own slot references
		}
		if slot, ok := n.ref.resolve(st); ok {
			a.base = slot * p.lanes
		}
		if a.kind == atomEnum && sc != nil {
			a.c = float64(n.eref.idIn(sc))
		}
	}
}

// StepLanes evaluates the program against the next lane-widened state and
// advances all per-lane temporal operator state by one step: every atom
// kernel runs, then every node whose inputs changed and every stateful
// temporal node is re-evaluated in topological order.  The state must carry
// at least Lanes() lanes.
func (p *Program) StepLanes(st State) {
	lanes := p.lanes
	if lanes == 0 || len(p.lmask) != len(p.nodes) {
		panic("temporal: StepLanes before SetLanes (or formulas added after SetLanes)")
	}
	full := p.lfull
	if full || st.Schema() != p.lschema {
		p.bindAtoms(st)
		full = true
	}
	p.lfull = false
	masks := p.lmask
	dirty := p.ldirty
	if full {
		copy(dirty, p.lops)
	}

	var kinds []uint8
	var vals []float64
	if st != nil {
		kinds, vals = st.kinds, st.vals
	}
	fullMask := p.laneFull()
	at := &p.latomAt

	bools := p.latoms[at[atomBool]:at[atomBool+1]]
	for i := range bools {
		a := &bools[i]
		var out uint64
		if base, end := a.base, a.base+lanes; base >= 0 && end <= len(kinds) {
			if uniform(kinds[base:end], KindBool) {
				out = ^eqLanes(vals[base:end], 0) & fullMask
			} else {
				for l := 0; l < lanes; l++ {
					out |= b2u(st.SlotBool(base+l)) << (uint(l) & 63)
				}
			}
		}
		p.setAtomMask(a.node, out)
	}

	numbers := p.latoms[at[atomNum]:at[atomNum+1]]
	for i := range numbers {
		a := &numbers[i]
		var out uint64
		if base, end := a.base, a.base+lanes; base >= 0 && end <= len(kinds) {
			if uniform(kinds[base:end], KindNumber) {
				out = compareLanes(vals[base:end], a.c, a.cmp)
			} else {
				// Bools compare as 0/1, strings as NaN (still a valid
				// operand, so != holds) and absent values as false.
				for l := 0; l < lanes; l++ {
					if f, ok := st.SlotNumberOK(base + l); ok {
						out |= b2u(compareNumbers(f, a.c, a.cmp)) << (uint(l) & 63)
					}
				}
			}
		}
		p.setAtomMask(a.node, out)
	}

	enums := p.latoms[at[atomEnum]:at[atomEnum+1]]
	for i := range enums {
		a := &enums[i]
		var out uint64
		if base, end := a.base, a.base+lanes; base >= 0 && end <= len(kinds) {
			eq := a.cmp == OpEq
			if uniform(kinds[base:end], KindString) {
				out = eqLanes(vals[base:end], a.c)
				if !eq {
					out = ^out & fullMask
				}
			} else {
				for l, k := range kinds[base:end] {
					if Kind(k) != KindInvalid {
						match := Kind(k) == KindString && vals[base+l] == a.c
						out |= b2u(match == eq) << (uint(l) & 63)
					}
				}
			}
		}
		p.setAtomMask(a.node, out)
	}

	for _, a := range p.latoms[at[atomOther]:at[atomOther+1]] {
		p.setAtomMask(a.node, p.otherAtomLanes(a.node, st))
	}

	always := p.lalways
	for w := range dirty {
		pending := dirty[w] | always[w]
		dirty[w] = 0
		for pending != 0 {
			i := w<<6 | bits.TrailingZeros64(pending)
			pending &= pending - 1
			out := p.nodeLanes(i, fullMask)
			if out == masks[i] {
				continue
			}
			masks[i] = out
			// Parents have larger indices: those in this word join the
			// pending set, later words are picked up by the outer loop.
			for _, j := range p.lpar[p.lparAt[i]:p.lparAt[i+1]] {
				if int(j)>>6 == w {
					pending |= 1 << (uint(j) & 63)
				} else {
					dirty[j>>6] |= 1 << (uint(j) & 63)
				}
			}
		}
	}
	p.steps++
}

// setAtomMask stores atom node i's mask for this step and, when it changed,
// schedules every parent of the atom for re-evaluation.
func (p *Program) setAtomMask(i int, out uint64) {
	if out == p.lmask[i] {
		return
	}
	p.lmask[i] = out
	for _, j := range p.lpar[p.lparAt[i]:p.lparAt[i+1]] {
		p.ldirty[j>>6] |= 1 << (uint(j) & 63)
	}
}

// otherAtomLanes evaluates the atoms without a typed kernel (constants,
// variable-to-variable comparisons and predicates) lane by lane through the
// range-checked per-slot accessors.  A predicate reads the whole State, which
// SetLanes allows only at width 1.
func (p *Program) otherAtomLanes(i int, st State) uint64 {
	n := &p.nodes[i]
	lanes := p.lanes
	var out uint64
	switch n.op {
	case opConst:
		if n.konst {
			out = p.laneFull()
		}
	case opPred:
		out = b2u(n.fn(st))
	case opCompareVarsNum:
		lslot, lok := n.ref.resolve(st)
		rslot, rok := n.ref2.resolve(st)
		if lok && rok {
			lbase, rbase := lslot*lanes, rslot*lanes
			for l := 0; l < lanes; l++ {
				lf, lv := st.SlotNumberOK(lbase + l)
				rf, rv := st.SlotNumberOK(rbase + l)
				out |= b2u(lv && rv && compareNumbers(lf, rf, n.cmp)) << (uint(l) & 63)
			}
		}
	case opCompareVars:
		lslot, lok := n.ref.resolve(st)
		rslot, rok := n.ref2.resolve(st)
		if lok && rok {
			lbase, rbase := lslot*lanes, rslot*lanes
			for l := 0; l < lanes; l++ {
				lv, rv := st.Slot(lbase+l), st.Slot(rbase+l)
				out |= b2u(lv.IsValid() && rv.IsValid() && compareValues(lv, rv, n.cmp)) << (uint(l) & 63)
			}
		}
	}
	return out
}

// nodeLanes evaluates connective or temporal node i from its children's
// current masks, advancing the node's per-lane temporal state.
func (p *Program) nodeLanes(i int, full uint64) uint64 {
	n := &p.nodes[i]
	masks := p.lmask
	steps := p.steps
	var out uint64
	switch n.op {
	case opNot:
		out = ^masks[n.a] & full
	case opAnd:
		out = full
		for _, k := range n.kids {
			out &= masks[k]
		}
	case opOr:
		for _, k := range n.kids {
			out |= masks[k]
		}
	case opImplies:
		out = (^masks[n.a] | masks[n.b]) & full
	case opIff:
		out = ^(masks[n.a] ^ masks[n.b]) & full
	case opPrev:
		if steps > 0 {
			out = p.lbool[i]
		}
		p.lbool[i] = masks[n.a]
	case opOnce:
		out = p.lbool[i]
		p.lbool[i] |= masks[n.a]
	case opHist:
		out = p.lbool[i]
		p.lbool[i] &= masks[n.a]
	case opBecame:
		cur := masks[n.a]
		out = cur &^ p.lbool[i]
		p.lbool[i] = cur
	case opPrevFor:
		cur := masks[n.a]
		cnt := p.lcnt[i]
		win := int32(n.n)
		for l := range cnt {
			out |= b2u(n.n == 0 || (steps >= n.n && cnt[l] >= win)) << (uint(l) & 63)
			if cur&(1<<uint(l)) != 0 {
				cnt[l]++
			} else {
				cnt[l] = 0
			}
		}
	case opPrevWithin:
		cur := masks[n.a]
		cnt := p.lcnt[i]
		for l := range cnt {
			out |= b2u(cnt[l] >= 0 && steps-int(cnt[l]) <= n.n) << (uint(l) & 63)
			if cur&(1<<uint(l)) != 0 {
				cnt[l] = int32(steps)
			}
		}
	case opInitially:
		if steps == 0 {
			p.lbool[i] = masks[n.a]
		}
		out = p.lbool[i]
	}
	return out
}

// uniform reports whether every register kind in ks is k; the scalar width
// and the production lane width (4) check the lane group with one load.
func uniform(ks []uint8, k Kind) bool {
	switch len(ks) {
	case 1:
		return Kind(ks[0]) == k
	case 4:
		return binary.LittleEndian.Uint32(ks) == uint32(k)*0x01010101
	}
	for _, x := range ks {
		if Kind(x) != k {
			return false
		}
	}
	return true
}

// b2u converts a bool to 0/1 without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// eqLanes is compareLanes(vec, c, OpEq) for the bool and enumeration
// kernels.  It inlines, so at the scalar width, where Program.Step runs those
// kernels, an atom costs one compare and no call.
func eqLanes(vec []float64, c float64) uint64 {
	if len(vec) != 1 {
		return compareLanes(vec, c, OpEq)
	}
	if vec[0] == c {
		return 1
	}
	return 0
}

// compareLanes compares every lane of a float lane vector with the constant
// c: bit l of the result is vec[l] op c.  The scalar width (Program.Step) and
// the production lane width 4 are branch-free straight-line code; other
// widths loop over the lanes.
func compareLanes(vec []float64, c float64, op CompareOp) uint64 {
	switch len(vec) {
	case 1:
		return b2u(compareNumbers(vec[0], c, op))
	case 4:
		v := (*[4]float64)(vec)
		switch op {
		case OpEq:
			return b2u(v[0] == c) | b2u(v[1] == c)<<1 | b2u(v[2] == c)<<2 | b2u(v[3] == c)<<3
		case OpNe:
			return b2u(v[0] != c) | b2u(v[1] != c)<<1 | b2u(v[2] != c)<<2 | b2u(v[3] != c)<<3
		case OpLt:
			return b2u(v[0] < c) | b2u(v[1] < c)<<1 | b2u(v[2] < c)<<2 | b2u(v[3] < c)<<3
		case OpLe:
			return b2u(v[0] <= c) | b2u(v[1] <= c)<<1 | b2u(v[2] <= c)<<2 | b2u(v[3] <= c)<<3
		case OpGt:
			return b2u(v[0] > c) | b2u(v[1] > c)<<1 | b2u(v[2] > c)<<2 | b2u(v[3] > c)<<3
		case OpGe:
			return b2u(v[0] >= c) | b2u(v[1] >= c)<<1 | b2u(v[2] >= c)<<2 | b2u(v[3] >= c)<<3
		}
	}
	var out uint64
	for l, f := range vec {
		out |= b2u(compareNumbers(f, c, op)) << (uint(l) & 63)
	}
	return out
}

// OutputMask reads the per-lane verdict mask a tap's formula produced for the
// last StepLanes: bit l is lane l's verdict.
func (p *Program) OutputMask(t Tap) uint64 { return p.lmask[t] }
