package temporal

import "sort"

// Schema is an interned symbol table mapping state-variable names to dense
// slot indices.  A Schema is created once per scenario (the sim.Bus owns one
// per run) and shared by every State of that run: the bus' double buffers,
// every trace snapshot and every compiled Stepper resolve variable names to
// slots against it, so the per-step hot path never hashes a string.
//
// Kopetz's system-of-systems argument (PAPERS.md) is that constituent systems
// must interact through small, well-specified shared interfaces; the Schema is
// exactly that interface made explicit — the fixed variable vocabulary the
// composite system's components and monitors agree on.
//
// A Schema is not safe for concurrent mutation; scenario runs are isolated
// per goroutine (one schema per run), which is what keeps parameter sweeps
// race-clean.
type Schema struct {
	index map[string]int
	names []string

	// sorted caches the slot indices in name-sorted order for State.Names
	// and State.String; it is invalidated by Intern and rebuilt on demand,
	// so renders never re-sort an unchanged vocabulary.
	sorted []int

	// enums / enumIdx intern the enumeration-string values stored in the
	// register file's value plane (e.g. "ACC", "D", "STOP"): each
	// distinct string is assigned a dense id once, and every State of the
	// run stores the id.  enums[0] is always "", so a string slot's
	// truthiness is id != 0.
	enums   []string
	enumIdx map[string]int32
}

// emptyEnumID is the interned id of the empty string in every Schema.
const emptyEnumID int32 = 0

// NewSchema returns an empty symbol table.
func NewSchema() *Schema {
	return &Schema{
		index:   make(map[string]int),
		enums:   []string{""},
		enumIdx: map[string]int32{"": emptyEnumID},
	}
}

// Intern returns the slot index of name, assigning the next free slot when
// the name has not been seen before.
func (sc *Schema) Intern(name string) int {
	if i, ok := sc.index[name]; ok {
		return i
	}
	i := len(sc.names)
	sc.index[name] = i
	sc.names = append(sc.names, name)
	sc.sorted = nil
	return i
}

// Lookup returns the slot index of name, without interning it.
func (sc *Schema) Lookup(name string) (int, bool) {
	i, ok := sc.index[name]
	return i, ok
}

// Len returns the number of interned names (the register-file width).
func (sc *Schema) Len() int { return len(sc.names) }

// Name returns the name interned at slot i.
func (sc *Schema) Name(i int) string { return sc.names[i] }

// Names returns a copy of the interned names in slot order.
func (sc *Schema) Names() []string {
	return append([]string(nil), sc.names...)
}

// InternString returns the dense id of an enumeration-string value,
// assigning the next free id when the string has not been seen before.  Ids
// are stable for the lifetime of the schema, so states of one run compare
// enumeration values by comparing ids.
func (sc *Schema) InternString(s string) int32 {
	if id, ok := sc.enumIdx[s]; ok {
		return id
	}
	id := int32(len(sc.enums))
	sc.enumIdx[s] = id
	sc.enums = append(sc.enums, s)
	return id
}

// LookupString returns the id of an enumeration string without interning it.
func (sc *Schema) LookupString(s string) (int32, bool) {
	id, ok := sc.enumIdx[s]
	return id, ok
}

// EnumString returns the enumeration string interned at id ("" for ids this
// schema never assigned).
func (sc *Schema) EnumString(id int32) string {
	if id < 0 || int(id) >= len(sc.enums) {
		return ""
	}
	return sc.enums[id]
}

// sortedSlots returns the slot indices ordered by variable name.  The order
// is computed once per vocabulary change, not once per call.
func (sc *Schema) sortedSlots() []int {
	if sc.sorted == nil && len(sc.names) > 0 {
		sc.sorted = make([]int, len(sc.names))
		for i := range sc.sorted {
			sc.sorted[i] = i
		}
		sort.Slice(sc.sorted, func(a, b int) bool {
			return sc.names[sc.sorted[a]] < sc.names[sc.sorted[b]]
		})
	}
	return sc.sorted
}
