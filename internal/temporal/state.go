package temporal

import (
	"math"
	"strings"
)

// Registers is the slot-indexed register file backing a State, stored as two
// struct-of-arrays planes indexed by the slots of a Schema: a kind plane
// tagging each slot's dynamic type and one []float64 value plane.  A number
// is stored as itself, a boolean as exactly 0 or 1 and an enumeration string
// as float64 of its per-schema interned id (exact for every int32), so every
// kind's truthiness is value != 0.  The thesis models the composite system as
// a set of named state variables whose values change from state to state;
// the two planes make copying a state two pointer-free memmoves (9 bytes per
// slot instead of a 40-byte Value struct, and no GC write barriers, since no
// plane holds a pointer) and reading a resolved variable a typed array load,
// which removes both string hashing and Value construction from the
// simulation and monitoring hot path entirely.
//
// The name-keyed Value API (Get/Set/Slot/SetSlot) is preserved on top of the
// planes; hot paths use the typed plane accessors (SlotNumber/SlotBool/
// SlotStringID and the SetSlot* family) directly.  Those check their slot:
// reads resolve the nil State and out-of-range slots to the absent value,
// writes grow the planes to the schema width first.
//
// Planes never shrink: Cover appends, Reset clears only the kind plane and
// CopyFrom grows its destination.  So a caller that resolves a slot once and
// calls Cover has covered that slot for the register file's whole life, and
// may use the unchecked Load*/Store* forms from then on: the same semantics
// as the checked accessors, one plane load or store each, small enough to
// inline at every call site.  A slot that was never covered panics on Go's
// own bounds check; nothing is dropped silently.  The bus' typed handles
// (sim.NumVar/BoolVar/StringVar) are built this way.
type Registers struct {
	schema *Schema
	kinds  []uint8   // Kind per slot (KindInvalid = no value)
	vals   []float64 // value plane: numbers, bools as 0/1, enumeration ids
	lanes  int       // lane width; 0 and 1 both mean scalar layout
}

// State is a snapshot of all system state variables at one instant.  Each
// simulation step produces one State.  State is a reference type (a pointer
// to a slot-indexed register file): copies share the same registers, Set
// mutates in place, and the nil State is the absent snapshot (e.g. the last
// state of an empty trace).
//
// The name-keyed API (Get/Set/Bool/Number/...) resolves names through the
// state's Schema and remains the compatibility path; hot paths resolve a
// name to a slot once and use Slot/SetSlot.
type State = *Registers

// NewState returns an empty state snapshot with its own private Schema.
// States that participate in one scenario should share the scenario's schema
// via NewStateWith so that compiled monitors resolve their atoms once.
func NewState() State { return NewStateWith(nil) }

// NewStateWith returns an empty state backed by the given Schema (a fresh
// one when nil).  The state's register file is sized to the schema and grows
// as the schema interns further names.
func NewStateWith(schema *Schema) State {
	return NewStateWithLanes(schema, 1)
}

// NewStateWithLanes returns an empty state whose register file is lanes wide:
// each schema slot owns a contiguous group of lanes values per plane, stored
// slot-major (physical index = slot*lanes + lane).  With lanes == 1 the layout
// and every accessor are identical to the scalar state.  Lane-batched
// execution steps N dynamics variants in lockstep over one such state; each
// variant reads and writes its own lane of every slot's group.
func NewStateWithLanes(schema *Schema, lanes int) State {
	if schema == nil {
		schema = NewSchema()
	}
	if lanes < 1 {
		lanes = 1
	}
	n := schema.Len() * lanes
	return &Registers{
		schema: schema,
		kinds:  make([]uint8, n),
		vals:   make([]float64, n),
		lanes:  lanes,
	}
}

// Lanes returns the lane width of the register file (1 for scalar states and
// the nil State).
func (s *Registers) Lanes() int {
	if s == nil || s.lanes < 1 {
		return 1
	}
	return s.lanes
}

// Schema returns the symbol table this state resolves names against (nil
// for the nil State).
func (s *Registers) Schema() *Schema {
	if s == nil {
		return nil
	}
	return s.schema
}

// Clone returns an independent copy of the state sharing the same Schema.
// Cloning the nil State yields a fresh empty state, as cloning the nil
// map-backed state did.
func (s *Registers) Clone() State {
	if s == nil {
		return NewState()
	}
	return &Registers{
		schema: s.schema,
		kinds:  append([]uint8(nil), s.kinds...),
		vals:   append([]float64(nil), s.vals...),
		lanes:  s.lanes,
	}
}

// Cover grows the register file to at least the current schema width, for
// states sized before the schema interned further names; every slot the
// schema has interned so far is then in range for the unchecked Load*/Store*
// accessors for the rest of the register file's life (planes never shrink).
// The checked SetSlot* forms call it on an out-of-range write; a handle that
// resolves its slot calls it once, at bind time.  Appending past a plane's
// capacity reallocates it, which a handle never notices (it holds the
// register file, not the planes).
//
//lint:allocok schema-growth slow path; runs only when a name was interned after the state was sized, never in steady state
func (s *Registers) Cover() {
	n := s.schema.Len() * s.Lanes()
	if n <= len(s.kinds) {
		return
	}
	s.kinds = append(s.kinds, make([]uint8, n-len(s.kinds))...)
	s.vals = append(s.vals, make([]float64, n-len(s.vals))...)
}

// CopyFrom overwrites this state's registers with src's: two plane memmoves,
// every slot of src included.  Both states must share the same Schema.  It is
// what makes a bus commit two pointer-free slice copies instead of a map
// merge; slots beyond src's width keep their previous value.
func (s *Registers) CopyFrom(src State) {
	if src == nil {
		return
	}
	n := len(src.kinds)
	if len(s.kinds) < n {
		s.Cover()
	}
	copy(s.kinds[:n], src.kinds)
	copy(s.vals[:n], src.vals)
}

// Reset clears every slot to the invalid value while keeping the schema and
// the plane capacity, so a bus (and the whole simulation arena built on it)
// can be rewound for the next run without re-interning a name or growing a
// plane.  Only the kind plane is cleared: stale values are unreachable behind
// a KindInvalid tag.
func (s *Registers) Reset() {
	for i := range s.kinds {
		s.kinds[i] = 0
	}
}

// Slot returns the value stored at slot i, resolving out-of-range slots (a
// schema that grew after this state was sized) and the nil State to the
// invalid Value.
func (s *Registers) Slot(i int) Value {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return Value{}
	}
	switch Kind(s.kinds[i]) {
	case KindBool:
		return Value{kind: KindBool, b: s.vals[i] != 0}
	case KindNumber:
		return Value{kind: KindNumber, f: s.vals[i]}
	case KindString:
		return Value{kind: KindString, s: s.schema.EnumString(int32(s.vals[i]))}
	default:
		return Value{}
	}
}

// SlotKind returns the dynamic kind of slot i (KindInvalid for absent
// values, out-of-range slots and the nil State).
func (s *Registers) SlotKind(i int) Kind {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return KindInvalid
	}
	return Kind(s.kinds[i])
}

// SlotNumber reads slot i with Value.AsNumber semantics straight from the
// planes: numbers and booleans (stored as 0/1) load from the value plane, and
// strings, absent values, out-of-range slots and the nil State are NaN.
func (s *Registers) SlotNumber(i int) float64 {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return math.NaN()
	}
	return s.LoadNumber(i)
}

// LoadNumber is SlotNumber without the nil and range checks: slot i must be
// covered (Cover), or the plane index panics.
func (s *Registers) LoadNumber(i int) float64 {
	if k := Kind(s.kinds[i]); k == KindNumber || k == KindBool {
		return s.vals[i]
	}
	return math.NaN()
}

// SlotNumberOK is SlotNumber paired with Value.IsValid: the second result is
// false exactly when the slot holds no value, so evaluators can preserve the
// unknown-state-is-false convention without constructing a Value.
func (s *Registers) SlotNumberOK(i int) (float64, bool) {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return math.NaN(), false
	}
	switch Kind(s.kinds[i]) {
	case KindNumber, KindBool:
		return s.vals[i], true
	case KindString:
		return math.NaN(), true
	default:
		return math.NaN(), false
	}
}

// SlotBool reads slot i with Value.AsBool semantics straight from the
// planes: every present value is truthy when its value-plane entry is
// non-zero (a true bool, a non-zero or NaN number, a string other than ""
// at id 0), and absent values are false.
func (s *Registers) SlotBool(i int) bool {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return false
	}
	return s.LoadBool(i)
}

// LoadBool is SlotBool without the nil and range checks: slot i must be
// covered (Cover), or the plane index panics.
func (s *Registers) LoadBool(i int) bool {
	return Kind(s.kinds[i]) != KindInvalid && s.vals[i] != 0
}

// SlotStringID reads the schema-interned id of slot i's string value, or -1
// when the slot does not hold a string.  Together with Schema.InternString
// it lets equality against an enumeration constant compare two numbers
// instead of two strings.
func (s *Registers) SlotStringID(i int) int32 {
	if s == nil || i < 0 || i >= len(s.kinds) {
		return -1
	}
	return s.LoadStringID(i)
}

// LoadStringID is SlotStringID without the nil and range checks: slot i must
// be covered (Cover), or the plane index panics.
func (s *Registers) LoadStringID(i int) int32 {
	if Kind(s.kinds[i]) != KindString {
		return -1
	}
	return int32(s.vals[i])
}

// SlotString reads slot i with Value.AsString semantics: interned strings
// resolve their id through the schema, other kinds are formatted, and absent
// values are "".
func (s *Registers) SlotString(i int) string {
	if id := s.SlotStringID(i); id >= 0 {
		return s.schema.EnumString(id)
	}
	return s.Slot(i).AsString()
}

// SetSlot stores a value at slot i, growing the register file to the schema
// width when the schema has interned names since the state was sized.
func (s *Registers) SetSlot(i int, v Value) {
	switch v.kind {
	case KindBool:
		s.SetSlotBool(i, v.b)
	case KindNumber:
		s.SetSlotNumber(i, v.f)
	case KindString:
		s.SetSlotString(i, v.s)
	default:
		if i >= len(s.kinds) {
			s.Cover()
		}
		s.kinds[i] = uint8(KindInvalid)
	}
}

// SetSlotNumber stores a number at slot i on the value plane.
func (s *Registers) SetSlotNumber(i int, f float64) {
	if i >= len(s.kinds) {
		s.Cover()
	}
	s.StoreNumber(i, f)
}

// StoreNumber is SetSlotNumber without the Cover check: slot i must be
// covered (Cover), or the plane index panics.
func (s *Registers) StoreNumber(i int, f float64) {
	s.kinds[i] = uint8(KindNumber)
	s.vals[i] = f
}

// SetSlotBool stores a boolean at slot i on the value plane, as 0 or 1.
func (s *Registers) SetSlotBool(i int, b bool) {
	if i >= len(s.kinds) {
		s.Cover()
	}
	s.StoreBool(i, b)
}

// StoreBool is SetSlotBool without the Cover check: slot i must be covered
// (Cover), or the plane index panics.
func (s *Registers) StoreBool(i int, b bool) {
	s.kinds[i] = uint8(KindBool)
	s.vals[i] = float64(b2u(b))
}

// SetSlotString stores an enumeration string at slot i, interning it in the
// schema's string table (a map read for every string already seen).
func (s *Registers) SetSlotString(i int, str string) {
	if i >= len(s.kinds) {
		s.Cover()
	}
	s.kinds[i] = uint8(KindString)
	s.vals[i] = float64(s.schema.InternString(str))
}

// SetSlotStringID stores an already-interned enumeration id at slot i; the
// id must come from this state's Schema.
func (s *Registers) SetSlotStringID(i int, id int32) {
	if i >= len(s.kinds) {
		s.Cover()
	}
	s.StoreStringID(i, id)
}

// StoreStringID is SetSlotStringID without the Cover check: slot i must be
// covered (Cover), or the plane index panics.
func (s *Registers) StoreStringID(i int, id int32) {
	s.kinds[i] = uint8(KindString)
	s.vals[i] = float64(id)
}

// Get returns the value of a variable.  Missing variables — and every
// variable of the nil State — return an invalid Value, which evaluates as
// false / NaN, matching the thesis' convention that unknown state cannot be
// used to demonstrate goal satisfaction.
func (s *Registers) Get(name string) Value {
	if s == nil {
		return Value{}
	}
	if i, ok := s.schema.Lookup(name); ok {
		return s.Slot(i)
	}
	return Value{}
}

// Has reports whether the variable has a value in this state.
func (s *Registers) Has(name string) bool { return s.Get(name).IsValid() }

// Set stores a value for a variable and returns the state for chaining.
func (s *Registers) Set(name string, v Value) State {
	s.SetSlot(s.schema.Intern(name), v)
	return s
}

// SetBool stores a boolean variable.
func (s *Registers) SetBool(name string, b bool) State {
	s.SetSlotBool(s.schema.Intern(name), b)
	return s
}

// SetNumber stores a numeric variable.
func (s *Registers) SetNumber(name string, f float64) State {
	s.SetSlotNumber(s.schema.Intern(name), f)
	return s
}

// SetString stores a string variable.
func (s *Registers) SetString(name string, str string) State {
	s.SetSlotString(s.schema.Intern(name), str)
	return s
}

// Bool reads a boolean variable (false when absent).
func (s *Registers) Bool(name string) bool { return s.Get(name).AsBool() }

// Number reads a numeric variable (NaN when absent).
func (s *Registers) Number(name string) float64 { return s.Get(name).AsNumber() }

// StringVal reads a string variable ("" when absent).
func (s *Registers) StringVal(name string) string { return s.Get(name).AsString() }

// Names returns the sorted variable names present in the state.  The order
// is derived from the schema's cached name ordering, so repeated renders do
// not re-sort.
func (s *Registers) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.kinds))
	for _, i := range s.schema.sortedSlots() {
		if i < len(s.kinds) && Kind(s.kinds[i]) != KindInvalid {
			names = append(names, s.schema.Name(i))
		}
	}
	return names
}

// String renders the state as "var=value" pairs in sorted order.
func (s *Registers) String() string {
	if s == nil {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, i := range s.schema.sortedSlots() {
		if i >= len(s.kinds) || Kind(s.kinds[i]) == KindInvalid {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(s.schema.Name(i))
		b.WriteByte('=')
		b.WriteString(s.Slot(i).String())
	}
	b.WriteByte('}')
	return b.String()
}
