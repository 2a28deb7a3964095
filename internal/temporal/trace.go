package temporal

import (
	"math"
	"sort"
	"time"
)

// Trace is a finite, fixed-period sequence of states.  Index 0 is the
// initial state S0 referenced by the Initially operator.
//
// A trace records its states as deltas.  It stores a keyframe (every slot's
// kind and value) at the first tick, every traceKeyframe ticks after it, and
// whenever the recorded state's schema, plane width or lane width changes (a
// name interned mid-run, another system's state, the nil State).  Every
// other tick stores only the slots whose kind byte or value bits differ from
// the tick before.  A NaN payload, -0 against +0 and a stale value behind
// KindInvalid all count as changes, so every plane comes back bit for bit.
// The entries live in pointer-free slabs, each allocated once at its final
// size and never regrown.  A 20 s thesis run at 1 ms changes ~6 of its 78
// slots per tick; at 12 bytes per changed slot that is under a sixth of the
// 702-byte register file a full snapshot per tick would copy.
//
// Reading follows from that layout.  At materialises one tick as an
// independent copy, built from the nearest keyframe plus the deltas after
// it.  Walk replays the whole trace forward through one scratch state; scans
// (Series, BoolSeries, monitor replays, the thesis figures) use it.  Neither
// mutates the trace, so a recorded trace may be read from any number of
// goroutines at once.
type Trace struct {
	// Period is the sampling period between consecutive states.  The
	// thesis' vehicle evaluation uses a 1 ms state period.
	Period time.Duration

	ends  []uint32    // ends[i]: entries recorded through tick i
	keys  []traceKey  // keyframes in tick order; keys[0].tick == 0
	slabs []traceSlab // entry slabs in entry order
	fill  int         // entries recorded so far
	hint  int         // expected number of ticks; sizes the first slab

	// The last recorded state, which the next tick is compared with.
	shKinds []uint8
	shVals  []float64
}

// traceKeyframe is the most ticks between two keyframes.  At replays at most
// this many ticks of deltas onto a keyframe, and each keyframe costs one
// register file of entries.  Over the ten thesis scenarios, intervals of 32,
// 64, 128 and 256 record 34%, 17%, 8.5% and 4% more bytes per tick than no
// keyframes at all, while At (BenchmarkTraceAt) costs ~1, ~1.4, ~2 and ~3 µs
// on the busiest scenario (README, "KeepTrace memory"); 128 keeps both small.
const traceKeyframe = 128

// traceSlabMax caps the entries of one slab (12 bytes each), so a long run
// wastes at most one partly filled slab of 192 KiB.
const traceSlabMax = 1 << 14

// traceKey is one keyframe: the tick it starts at, where its entries start
// and the register file they rebuild.  A nil schema is the nil State; its
// ticks record no entries.
type traceKey struct {
	tick   int
	entry  int
	schema *Schema
	width  int // slots, every one of which the keyframe records
	lanes  int // Registers.lanes as recorded
}

// traceSlab holds the entries [start, start+len(tags)).  An entry is one
// slot's kind and value: tags packs slot<<8 | kind.  The last slab is the
// one being filled; a sealed slab is cut to the entries it holds.
type traceSlab struct {
	start int
	tags  []uint32
	vals  []float64
}

// NewTrace returns an empty trace with the given sampling period.  A zero
// period defaults to one millisecond, the state period used in the thesis.
func NewTrace(period time.Duration) *Trace {
	return NewTraceWithCapacity(period, 0)
}

// NewTraceWithCapacity returns an empty trace preallocated for n states, for
// recorders that know the run length up front (a 20 s run at the thesis' 1 ms
// period appends 20 000 states).  The tick index and the keyframe table are
// sized for n, and n sizes the first entry slab.
func NewTraceWithCapacity(period time.Duration, n int) *Trace {
	if period <= 0 {
		period = time.Millisecond
	}
	t := &Trace{Period: period, hint: max(n, 0)}
	if n > 0 {
		t.ends = make([]uint32, 0, n)
		t.keys = make([]traceKey, 0, n/traceKeyframe+1)
	}
	return t
}

// Append records the state as the trace's next tick.  The trace keeps its
// own copy of the values, so the caller may go on mutating s; the nil State
// is recorded as itself.
func (t *Trace) Append(s State) {
	tick := len(t.ends)
	if s == nil {
		if n := len(t.keys); n == 0 || t.keys[n-1].schema != nil {
			t.keys = append(t.keys, traceKey{tick: tick, entry: t.fill})
		}
		t.ends = append(t.ends, uint32(t.fill))
		return
	}
	w := len(s.kinds)
	tags, vals := t.room(w)
	if n := len(t.keys); n == 0 || tick-t.keys[n-1].tick >= traceKeyframe ||
		t.keys[n-1].schema != s.schema || t.keys[n-1].width != w || t.keys[n-1].lanes != s.lanes {
		t.keyframe(tick, s, tags, vals)
	} else {
		t.fill += t.delta(s, tags, vals)
	}
	t.ends = append(t.ends, uint32(t.fill))
}

// keyframe records every slot of s and makes s the shadow.
func (t *Trace) keyframe(tick int, s State, tags []uint32, vals []float64) {
	t.keys = append(t.keys, traceKey{tick: tick, entry: t.fill, schema: s.schema, width: len(s.kinds), lanes: s.lanes})
	for j, k := range s.kinds {
		tags[j] = uint32(j)<<8 | uint32(k)
	}
	copy(vals, s.vals)
	t.fill += len(s.kinds)
	t.shKinds = append(t.shKinds[:0], s.kinds...)
	t.shVals = append(t.shVals[:0], s.vals...)
}

// delta records the slots of s whose kind or value bits differ from the
// shadow, updates the shadow, and returns how many it recorded.  s has the
// shadow's width, and tags and vals have room for every slot.
func (t *Trace) delta(s State, tags []uint32, vals []float64) int {
	w := len(s.kinds)
	kinds, vs := s.kinds[:w], s.vals[:w]
	shk, shv := t.shKinds[:w], t.shVals[:w]
	tags, vals = tags[:w], vals[:w]
	m := 0
	for j, v := range vs {
		if k := kinds[j]; math.Float64bits(v) != math.Float64bits(shv[j]) || k != shk[j] {
			shk[j], shv[j] = k, v
			tags[m] = uint32(j)<<8 | uint32(k)
			vals[m] = v
			m++
		}
	}
	return m
}

// room returns the free tail of the current slab, starting a new slab when
// fewer than w entries are left, so a tick's entries never straddle two
// slabs.  Slabs double from the expected tick count up to traceSlabMax.
func (t *Trace) room(w int) ([]uint32, []float64) {
	if w == 0 {
		return nil, nil
	}
	size := max(t.hint, w)
	if n := len(t.slabs); n > 0 {
		sl := &t.slabs[n-1]
		off := t.fill - sl.start
		if len(sl.tags)-off >= w {
			return sl.tags[off:], sl.vals[off:]
		}
		size = max(2*len(sl.tags), w)
		sl.tags, sl.vals = sl.tags[:off], sl.vals[:off]
	}
	size = min(size, max(traceSlabMax, w))
	t.slabs = append(t.slabs, traceSlab{start: t.fill, tags: make([]uint32, size), vals: make([]float64, size)})
	sl := &t.slabs[len(t.slabs)-1]
	return sl.tags, sl.vals
}

// replay writes the entries [from, to) into r, starting the slab search at
// slab j, and returns the slab holding entry to (or the last one searched).
func (t *Trace) replay(r *Registers, from, to, j int) int {
	for from < to {
		for from >= t.slabs[j].start+len(t.slabs[j].tags) {
			j++
		}
		sl := &t.slabs[j]
		hi := min(to, sl.start+len(sl.tags))
		tags, vals := sl.tags[from-sl.start:hi-sl.start], sl.vals[from-sl.start:hi-sl.start]
		kinds, rv := r.kinds, r.vals
		for x, tag := range tags {
			slot := tag >> 8
			kinds[slot] = uint8(tag)
			rv[slot] = vals[x]
		}
		from = hi
	}
	return j
}

// Len returns the number of states in the trace.
func (t *Trace) Len() int { return len(t.ends) }

// At returns an independent copy of the state at index i: the nearest
// keyframe at or before i plus the deltas up to i, so it costs O(width +
// traceKeyframe·changes per tick) and three allocations.  Mutating the copy
// leaves the trace unchanged.  A tick that recorded the nil State returns
// nil.  At panics when i is out of range, as an out-of-range access indicates
// a programming error in an evaluator.  Scans over many ticks use Walk.
func (t *Trace) At(i int) State {
	end := int(t.ends[i])
	k := &t.keys[sort.Search(len(t.keys), func(j int) bool { return t.keys[j].tick > i })-1]
	if k.schema == nil {
		return nil
	}
	r := &Registers{schema: k.schema, kinds: make([]uint8, k.width), vals: make([]float64, k.width), lanes: k.lanes}
	if k.entry < end {
		t.replay(r, k.entry, end, sort.Search(len(t.slabs), func(j int) bool { return t.slabs[j].start > k.entry })-1)
	}
	return r
}

// Last returns an independent copy of the most recent state, or nil for an
// empty trace.
func (t *Trace) Last() State {
	if len(t.ends) == 0 {
		return nil
	}
	return t.At(len(t.ends) - 1)
}

// Walk calls fn with every tick of the trace in order.  The state passed to
// fn is one scratch register file that Walk rewrites between calls: it is
// valid only during the call, and fn must neither keep it nor mutate it
// (Clone it to keep it).  A tick that recorded the nil State passes nil.
// Walk allocates the scratch state once and nothing per tick.
func (t *Trace) Walk(fn func(i int, s State)) {
	width := 0
	for _, k := range t.keys {
		width = max(width, k.width)
	}
	kinds, vals := make([]uint8, width), make([]float64, width)
	r := new(Registers)
	var st State
	next, from, j := 0, 0, 0
	for i, end := range t.ends {
		if next < len(t.keys) && t.keys[next].tick == i {
			k := &t.keys[next]
			next++
			st = nil
			if k.schema != nil {
				*r = Registers{schema: k.schema, kinds: kinds[:k.width:k.width], vals: vals[:k.width:k.width], lanes: k.lanes}
				st = r
			}
		}
		if to := int(end); from < to {
			j = t.replay(r, from, to, j)
			from = to
		}
		fn(i, st)
	}
}

// Series extracts the numeric time series of one variable, useful for
// regenerating the thesis' scenario figures.  The name is resolved to a slot
// once per schema, so extraction over a single-run trace never re-hashes it.
func (t *Trace) Series(name string) []float64 {
	out := make([]float64, t.Len())
	r := slotResolver{name: name, slot: -1}
	t.Walk(func(i int, s State) { out[i] = s.SlotNumber(r.of(s)) })
	return out
}

// BoolSeries extracts the boolean time series of one variable.
func (t *Trace) BoolSeries(name string) []bool {
	out := make([]bool, t.Len())
	r := slotResolver{name: name, slot: -1}
	t.Walk(func(i int, s State) { out[i] = s.SlotBool(r.of(s)) })
	return out
}

// slotResolver caches one name's slot per schema; -1 is absent (the name is
// not interned, or the state is nil), which every checked read treats as
// the absent value.
type slotResolver struct {
	name   string
	schema *Schema
	slot   int
}

func (r *slotResolver) of(s State) int {
	if sc := s.Schema(); sc != r.schema {
		r.schema, r.slot = sc, -1
		if sc != nil {
			if i, ok := sc.Lookup(r.name); ok {
				r.slot = i
			}
		}
	}
	return r.slot
}
