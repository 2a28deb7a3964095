package temporal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// SetLanes lowers the node array into three parts:
//
//   - Atom kernels.  Every atom becomes a laneAtom evaluated by atomLanes.
//     A typed atom (a boolean variable, a numeric comparison against a
//     constant, enumeration ==/!=) is one branch-free compare per lane over
//     its operand slot's contiguous lane group when every lane holds the
//     expected kind: != 0, its CompareOp against the constant, or the stored
//     id against the constant's interned id.  Lanes of mixed kinds fall back
//     to the per-lane SlotBool/SlotNumberOK semantics, and a slot beyond the
//     state's width (a name interned after the state was sized) reads as
//     absent on every lane, exactly as the string-keyed reference treats it.
//     Constants and variable-to-variable comparisons evaluate lane by lane
//     through the per-slot accessors.
//   - A watch table.  A typed atom's mask is a function of its operand lane
//     group alone — the group's kind and value lanes — and of constants that
//     change only with the schema.  bindAtoms groups the typed atoms by
//     operand slot (CSR) and the program keeps a shadow of each watched
//     group as it last evaluated it.  StepLanes compares every watched group
//     with its shadow (a kind byte or the bits of a value differ) and re-runs
//     only the atoms of the groups that changed, refreshing their shadows;
//     the atoms of an unchanged group keep last step's mask, which is what
//     re-running them would compute.  Constants and variable-to-variable
//     comparisons run every step.  The comparison is against
//     what the program last saw, not against the bus' writes, so it holds for
//     any State sequence: the live bus, a fresh trace snapshot per step, a
//     state mutated by hand.  A same-value write is not a change.
//   - Change propagation.  A CSR parent adjacency and an "always" bitset of
//     the stateful temporal nodes.  Every atom whose mask changed marks its
//     parents in a dirty bitset; StepLanes then walks the dirty and always
//     bits in ascending node index (which is topological order),
//     re-evaluates only those nodes, and marks the parents of every node
//     whose mask changed.  A connective is a pure function of its children's
//     masks, so an unmarked connective's stored mask is already what a full
//     pass would compute: OutputMask is bit-identical to evaluating every
//     node, at the cost of what changed.
//
// The first StepLanes after SetLanes or Reset, and after the observed state's
// schema changes, is a full pass: every atom and every node is evaluated and
// every shadow refreshed.  A schema change moves the operand slots, so the
// watch table is rebuilt first; after Reset it is kept when the state brings
// the schema it was bound to, at the same length, in a register file of the
// same width (a reused arena's next batch).
//
// StepLanes also records which taps' masks changed (ChangedTaps; every tap
// after a full pass), so an observer folds only the verdicts that moved.
//
// SetLanes allocates everything lane mode needs; StepLanes allocates nothing,
// and neither does its watch-table rebuild once the new schema has interned
// every name the program reads.  A program in lane mode is still not safe for
// concurrent use.

// MaxLanes is the widest supported lane batch: one bit per lane in the
// uint64 node masks.
const MaxLanes = 64

// atomKind selects the lane kernel an atom node is lowered to.
type atomKind uint8

const (
	atomBool  atomKind = iota // opVar: value plane != 0
	atomNum                   // opCompare against a non-string or ordered: value plane CompareOp constant
	atomEnum                  // opCompare ==/!= a string: value plane ==/!= interned id
	atomOther                 // opConst, opCompareVars: per-lane Value semantics
)

// laneAtom is one atom node lowered to a lane kernel.  base is the physical
// register index of lane 0 of the operand slot in the schema the kernels are
// bound to (-1 for the nil State and for untyped atoms); c is the constant
// operand, for atomEnum the enumeration constant's interned id in that
// schema.
type laneAtom struct {
	node int
	kind atomKind
	cmp  CompareOp
	c    float64
	base int
}

// watched reports whether atom a re-runs only when its operand lane group
// changes: a typed atom bound to a slot.  Every other atom (constants,
// variable-to-variable comparisons and the typed atoms of the nil State)
// runs every step.
func (a *laneAtom) watched() bool { return a.kind < atomOther && a.base >= 0 }

// compareAtomOrder orders the watched atoms first, by operand slot so each
// watched group is one contiguous run, then the every-step atoms, and by
// node for a total order.
func compareAtomOrder(a, b laneAtom) int {
	if wa, wb := a.watched(), b.watched(); wa != wb {
		if wa {
			return -1
		}
		return 1
	}
	if a.base != b.base {
		return a.base - b.base
	}
	return a.node - b.node
}

// SetLanes switches the program into lane mode at the given width,
// allocating per-node lane registers, the atom kernels and the change
// propagation tables.  It fails for widths outside [1, MaxLanes].  All
// formulas must be registered before SetLanes; Add after SetLanes is
// rejected by StepLanes.
func (p *Program) SetLanes(lanes int) error {
	if lanes < 1 || lanes > MaxLanes {
		return fmt.Errorf("temporal: lane width %d outside [1, %d]", lanes, MaxLanes)
	}
	n := len(p.nodes)
	words := (n + 63) / 64
	p.lanes = lanes
	p.lmask = make([]uint64, n)
	p.lbool = make([]uint64, n)
	p.lcnt = make([][]int32, n)
	p.latoms = p.latoms[:0]
	sets := make([]uint64, 4*words)
	p.lops, p.lalways, p.ldirty, p.ltap = sets[:words], sets[words:2*words], sets[2*words:3*words], sets[3*words:]
	p.lparAt = make([]int32, n+1)
	for i := range p.nodes {
		nd := &p.nodes[i]
		if nd.op.isAtom() {
			p.latoms = append(p.latoms, lowerAtom(i, nd))
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
		for _, k := range nd.kids {
			p.lparAt[k+1]++
		}
	}
	// At most one watched group per atom: the watch table and the shadows
	// (plus one all-absent group behind them) are sized here, so a rebind
	// to a new schema only reslices them.
	na := len(p.latoms)
	p.lwBase = make([]int, 0, na)
	groups := make([]int32, 2*na+1)
	p.lwAt, p.lchanged = groups[:0:na+1], groups[na+1:]
	kinds := make([]uint8, (na+1)*lanes)
	p.lshKind, p.lnoKind = kinds[:na*lanes], kinds[na*lanes:]
	vals := make([]float64, (na+1)*lanes)
	p.lshVal, p.lnoVal = vals[:na*lanes], vals[na*lanes:]
	// A node two formulas share is one tap.
	taps := 0
	for _, r := range p.roots {
		if p.ltap[r>>6]&(1<<(uint(r)&63)) == 0 {
			p.ltap[r>>6] |= 1 << (uint(r) & 63)
			taps++
		}
	}
	tapLists := make([]Tap, 2*taps)
	p.ltapAll, p.ltapChg = tapLists[:0:taps], tapLists[taps:taps]
	for i := 0; i < n; i++ {
		if p.ltap[i>>6]&(1<<(uint(i)&63)) != 0 {
			p.ltapAll = append(p.ltapAll, Tap(i))
		}
	}
	for i := 0; i < n; i++ {
		p.lparAt[i+1] += p.lparAt[i]
	}
	p.lpar = make([]int32, p.lparAt[n])
	fill := append([]int32(nil), p.lparAt[:n]...)
	for i := range p.nodes {
		// A child shared twice, as in And(a, a), lists its parent twice.
		for _, k := range p.nodes[i].kids {
			p.lpar[fill[k]] = int32(i)
			fill[k]++
		}
	}
	p.lbindWidth = -1 // no state is bound yet
	p.resetLanes()
	return nil
}

// lowerAtom picks the lane kernel of atom node i; this is the one place the
// choice is made.  A variable is the bool kernel, ==/!= against a string
// constant compares the constant's interned id, and every other comparison
// with a constant is one float compare on the value plane against the
// constant's AsNumber, which maps bools to 0/1 and strings to NaN (no
// comparison or inequality misclassifies them).  Constants and
// variable-to-variable comparisons keep per-lane Value semantics.
func lowerAtom(i int, nd *pnode) laneAtom {
	a := laneAtom{node: i, kind: atomOther}
	switch f := nd.f; {
	case f.op == opVar:
		a.kind = atomBool
	case f.op == opCompare && f.val.kind == KindString && (f.cmp == OpEq || f.cmp == OpNe):
		a.kind, a.cmp = atomEnum, f.cmp
	case f.op == opCompare:
		a.kind, a.cmp, a.c = atomNum, f.cmp, f.val.AsNumber()
	}
	return a
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

// bindAtoms resolves every typed atom's operand slot and enumeration id
// against st's schema and rebuilds the watch table: the watched atoms are
// sorted by operand slot ahead of the every-step atoms, and each distinct
// watched slot becomes one group.  The tables were sized by SetLanes, so
// with every name already interned the rebuild allocates nothing.
//
//lint:allocok schema rebind through Schema.Intern and InternString; runs on the first step after SetLanes, on a schema change, and after a Reset once the schema grew or the state's width changed, never in steady state
func (p *Program) bindAtoms(st State) {
	sc := st.Schema()
	p.lschema, p.lbindLen, p.lbindWidth = sc, 0, 0
	if st != nil {
		p.lbindLen, p.lbindWidth = sc.Len(), len(st.kinds)
	}
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
	slices.SortFunc(p.latoms, compareAtomOrder)
	p.lwBase = p.lwBase[:0]
	p.lwAt = p.lwAt[:0]
	i := 0
	for ; i < len(p.latoms) && p.latoms[i].watched(); i++ {
		if base := p.latoms[i].base; len(p.lwBase) == 0 || p.lwBase[len(p.lwBase)-1] != base {
			p.lwBase = append(p.lwBase, base)
			p.lwAt = append(p.lwAt, int32(i))
		}
	}
	p.lwAt = append(p.lwAt, int32(i))
}

// StepLanes evaluates the program against the next lane-widened state and
// advances all per-lane temporal operator state by one step: the atoms whose
// operand lane group changed since they last ran and the atoms that run
// every step are evaluated, then every node whose inputs changed and every
// stateful temporal node is re-evaluated in topological order.  The state
// must carry at least Lanes() lanes.
func (p *Program) StepLanes(st State) {
	lanes := p.lanes
	if lanes == 0 || len(p.lmask) != len(p.nodes) {
		panic("temporal: StepLanes before SetLanes (or formulas added after SetLanes)")
	}
	full := p.lfull
	if st.Schema() != p.lschema || full && !p.watchCurrent(st) {
		p.bindAtoms(st)
		full = true
	}
	p.lfull, p.lfullStep = false, full
	p.ltapChg = p.ltapChg[:0]
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
	atoms := p.latoms

	// A changed watch group refreshes its shadow and re-runs its atoms; a
	// full pass treats every group as changed.
	var groups []int32
	if full {
		groups = p.lchanged[:len(p.lwBase)]
		for g := range groups {
			groups[g] = int32(g)
		}
	} else {
		groups = p.changedGroups(kinds, vals)
	}
	for _, g := range groups {
		ks, vs := p.operandGroup(p.lwBase[g], kinds, vals)
		copy(p.lshKind[int(g)*lanes:], ks)
		copy(p.lshVal[int(g)*lanes:], vs)
		for i := p.lwAt[g]; i < p.lwAt[g+1]; i++ {
			a := &atoms[i]
			p.setAtomMask(a.node, p.atomLanes(a, st, ks, vs, fullMask))
		}
	}
	rest := atoms[p.lwAt[len(p.lwBase)]:]
	for i := range rest {
		// Untyped atoms read the state through their own slot references;
		// a typed atom here is one of the nil State, absent on every lane.
		a := &rest[i]
		p.setAtomMask(a.node, p.atomLanes(a, st, p.lnoKind, p.lnoVal, fullMask))
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
			p.noteTap(i)
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

// atomLanes evaluates atom a for every lane.  ks and vs are a typed atom's
// operand lane group (all-absent kinds for a slot beyond the state's width);
// the other atoms read st through otherAtomLanes.
func (p *Program) atomLanes(a *laneAtom, st State, ks []uint8, vs []float64, full uint64) uint64 {
	var out uint64
	switch a.kind {
	case atomBool:
		if uniform(ks, KindBool) {
			return ^eqLanes(vs, 0) & full
		}
		for l, k := range ks {
			out |= b2u(Kind(k) != KindInvalid && vs[l] != 0) << (uint(l) & 63)
		}
	case atomNum:
		if uniform(ks, KindNumber) {
			return compareLanes(vs, a.c, a.cmp)
		}
		// Bools compare as 0/1, strings as NaN (still a valid operand, so
		// != holds) and absent values as false.
		for l, k := range ks {
			switch Kind(k) {
			case KindNumber, KindBool:
				out |= b2u(compareNumbers(vs[l], a.c, a.cmp)) << (uint(l) & 63)
			case KindString:
				out |= b2u(compareNumbers(math.NaN(), a.c, a.cmp)) << (uint(l) & 63)
			}
		}
	case atomEnum:
		eq := a.cmp == OpEq
		if uniform(ks, KindString) {
			out = eqLanes(vs, a.c)
			if !eq {
				out = ^out & full
			}
			return out
		}
		for l, k := range ks {
			if Kind(k) != KindInvalid {
				match := Kind(k) == KindString && vs[l] == a.c
				out |= b2u(match == eq) << (uint(l) & 63)
			}
		}
	default:
		out = p.otherAtomLanes(a.node, st)
	}
	return out
}

// watchCurrent reports whether the watch table is still bound to what st
// presents: the same schema at the same length, and a state of the same
// width.  A full pass after Reset then keeps the table instead of rebinding
// and re-sorting the atoms.
func (p *Program) watchCurrent(st State) bool {
	if st == nil {
		return p.lbindWidth == 0
	}
	return len(st.kinds) == p.lbindWidth && st.schema.Len() == p.lbindLen
}

// noteTap records that node i's mask changed this step when i is a tap.
// Every node's mask is stored at most once per step, so ltapChg (sized to
// the taps) never grows.
func (p *Program) noteTap(i int) {
	if p.ltap[i>>6]&(1<<(uint(i)&63)) != 0 {
		p.ltapChg = append(p.ltapChg, Tap(i))
	}
}

// setAtomMask stores atom node i's mask for this step and, when it changed,
// schedules every parent of the atom for re-evaluation.
func (p *Program) setAtomMask(i int, out uint64) {
	if out == p.lmask[i] {
		return
	}
	p.lmask[i] = out
	p.noteTap(i)
	for _, j := range p.lpar[p.lparAt[i]:p.lparAt[i+1]] {
		p.ldirty[j>>6] |= 1 << (uint(j) & 63)
	}
}

// otherAtomLanes evaluates the atoms without a typed kernel (constants and
// variable-to-variable comparisons) lane by lane through the range-checked
// per-slot accessors.
func (p *Program) otherAtomLanes(i int, st State) uint64 {
	n := &p.nodes[i]
	lanes := p.lanes
	var out uint64
	switch f := n.f; f.op {
	case opConst:
		if f.val.b {
			out = p.laneFull()
		}
	case opCompareVars:
		lslot, lok := n.ref.resolve(st)
		rslot, rok := n.ref2.resolve(st)
		if lok && rok {
			lbase, rbase := lslot*lanes, rslot*lanes
			for l := 0; l < lanes; l++ {
				lv, rv := st.Slot(lbase+l), st.Slot(rbase+l)
				out |= b2u(lv.IsValid() && rv.IsValid() && compareValues(lv, rv, f.cmp)) << (uint(l) & 63)
			}
		}
	}
	return out
}

// nodeLanes evaluates connective or temporal node i from its children's
// current masks, advancing the node's per-lane temporal state.
func (p *Program) nodeLanes(i int, full uint64) uint64 {
	n := &p.nodes[i]
	k := n.kids
	masks := p.lmask
	steps := p.steps
	var out uint64
	switch n.op {
	case opNot:
		out = ^masks[k[0]] & full
	case opAnd:
		out = full
		for _, c := range k {
			out &= masks[c]
		}
	case opOr:
		for _, c := range k {
			out |= masks[c]
		}
	case opImplies:
		out = (^masks[k[0]] | masks[k[1]]) & full
	case opIff:
		out = ^(masks[k[0]] ^ masks[k[1]]) & full
	case opPrev:
		if steps > 0 {
			out = p.lbool[i]
		}
		p.lbool[i] = masks[k[0]]
	case opOnce:
		out = p.lbool[i]
		p.lbool[i] |= masks[k[0]]
	case opHist:
		out = p.lbool[i]
		p.lbool[i] &= masks[k[0]]
	case opBecame:
		cur := masks[k[0]]
		out = cur &^ p.lbool[i]
		p.lbool[i] = cur
	case opPrevFor:
		cur := masks[k[0]]
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
		cur := masks[k[0]]
		cnt := p.lcnt[i]
		for l := range cnt {
			out |= b2u(cnt[l] >= 0 && steps-int(cnt[l]) <= n.n) << (uint(l) & 63)
			if cur&(1<<uint(l)) != 0 {
				cnt[l] = int32(steps)
			}
		}
	case opInitially:
		if steps == 0 {
			p.lbool[i] = masks[k[0]]
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

// operandGroup returns the kind and value lanes of the operand lane group
// at physical index base; a slot beyond the state's width is absent on every
// lane.
func (p *Program) operandGroup(base int, kinds []uint8, vals []float64) ([]uint8, []float64) {
	if end := base + p.lanes; end <= len(kinds) {
		return kinds[base:end], vals[base:end]
	}
	return p.lnoKind, p.lnoVal
}

// changedGroups lists the watch groups whose operand lane group differs from
// its shadow on any lane: a different kind byte or different value bits, so
// a NaN equals itself and -0 is a change from 0.  When every watched slot is
// inside the state (the groups are sorted by slot, so the last one decides),
// the scalar width and the production lane width (4) compare straight-line;
// otherwise, and at other widths, a loop compares each lane, and a slot
// beyond the state's width compares as absent (kind and value 0, what
// operandGroup stores in its shadow).  The loop alone would be correct at
// every width, but it doubles BenchmarkStepLanes' ns/tick at widths 1 and 4
// (the compare runs for every watched group on every tick).
func (p *Program) changedGroups(kinds []uint8, vals []float64) []int32 {
	changed := p.lchanged[:0]
	watched := p.lwBase
	lanes := p.lanes
	inside := len(watched) == 0 || watched[len(watched)-1]+lanes <= len(kinds)
	shk, shv := p.lshKind[:len(watched)*lanes], p.lshVal[:len(watched)*lanes]
	switch {
	case inside && lanes == 1:
		for g, base := range watched {
			if kinds[base] != shk[g] || math.Float64bits(vals[base]) != math.Float64bits(shv[g]) {
				changed = append(changed, int32(g))
			}
		}
	case inside && lanes == 4:
		for g, base := range watched {
			k, v := kinds[base:base+4], (*[4]float64)(vals[base:base+4])
			sk, sv := shk[4*g:4*g+4], (*[4]float64)(shv[4*g:4*g+4])
			if binary.LittleEndian.Uint32(k) != binary.LittleEndian.Uint32(sk) ||
				(math.Float64bits(v[0])^math.Float64bits(sv[0]))|
					(math.Float64bits(v[1])^math.Float64bits(sv[1]))|
					(math.Float64bits(v[2])^math.Float64bits(sv[2]))|
					(math.Float64bits(v[3])^math.Float64bits(sv[3])) != 0 {
				changed = append(changed, int32(g))
			}
		}
	default:
		for g, base := range watched {
			ks, vs := p.operandGroup(base, kinds, vals)
			sk, sv := shk[g*lanes:(g+1)*lanes], shv[g*lanes:(g+1)*lanes]
			for l, k := range ks {
				if k != sk[l] || math.Float64bits(vs[l]) != math.Float64bits(sv[l]) {
					changed = append(changed, int32(g))
					break
				}
			}
		}
	}
	return changed
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

// ChangedTaps lists, once each and in no particular order, the taps whose
// OutputMask changed in the last StepLanes; after a full pass (the first
// step after SetLanes or Reset, and a step that rebound the atoms to a new
// schema) it lists every tap, since the masks before it are not a previous
// step of the same run.  Two formulas compiled to one node are one tap.  The
// slice is valid until the next StepLanes.
func (p *Program) ChangedTaps() []Tap {
	if p.lfullStep {
		return p.ltapAll
	}
	return p.ltapChg
}

// OutputMask reads the per-lane verdict mask a tap's formula produced for the
// last StepLanes: bit l is lane l's verdict.
func (p *Program) OutputMask(t Tap) uint64 { return p.lmask[t] }
