package temporal

import (
	"math"
	"strconv"
	"testing"
)

// TestRegistersKindChangesOnOneSlot drives one slot through every kind
// transition and checks that the value read back always reflects the latest
// write — stale data on the other planes must be unreachable behind the kind
// tag.
func TestRegistersKindChangesOnOneSlot(t *testing.T) {
	s := NewState()
	s.SetNumber("x", 5)
	if got := s.Get("x"); !got.Equal(Number(5)) {
		t.Fatalf("after number write: got %v", got)
	}

	s.SetString("x", "GO")
	if got := s.Get("x"); !got.Equal(String("GO")) {
		t.Fatalf("after string write: got %v", got)
	}
	if n := s.Number("x"); !math.IsNaN(n) {
		t.Errorf("string slot as number = %v, want NaN (not the stale 5)", n)
	}
	if !s.Bool("x") {
		t.Errorf("non-empty string slot should be truthy")
	}

	s.SetBool("x", false)
	if got := s.Get("x"); !got.Equal(Bool(false)) {
		t.Fatalf("after bool write: got %v", got)
	}
	if s.Bool("x") {
		t.Errorf("bool(false) slot should not inherit the stale string truthiness")
	}
	if n := s.Number("x"); n != 0 {
		t.Errorf("bool(false) slot as number = %v, want 0 (not the stale 5)", n)
	}

	s.SetNumber("x", 0)
	if s.Bool("x") {
		t.Errorf("number(0) slot should be falsy despite an earlier true-ish write")
	}

	// Overwriting with the invalid Value clears the slot.
	s.Set("x", Value{})
	if s.Has("x") {
		t.Errorf("slot should be absent after storing the invalid Value")
	}
}

// TestRegistersInvalidSlotReads checks every typed accessor on out-of-range
// slots and on the nil State.
func TestRegistersInvalidSlotReads(t *testing.T) {
	s := NewState()
	s.SetNumber("a", 1)

	for _, i := range []int{-1, 99, 1 << 20} {
		if v := s.Slot(i); v.IsValid() {
			t.Errorf("Slot(%d) = %v, want invalid", i, v)
		}
		if k := s.SlotKind(i); k != KindInvalid {
			t.Errorf("SlotKind(%d) = %v, want invalid", i, k)
		}
		if n := s.SlotNumber(i); !math.IsNaN(n) {
			t.Errorf("SlotNumber(%d) = %v, want NaN", i, n)
		}
		if _, ok := s.SlotNumberOK(i); ok {
			t.Errorf("SlotNumberOK(%d) reported valid", i)
		}
		if s.SlotBool(i) {
			t.Errorf("SlotBool(%d) = true, want false", i)
		}
		if id := s.SlotStringID(i); id != -1 {
			t.Errorf("SlotStringID(%d) = %d, want -1", i, id)
		}
		if str := s.SlotString(i); str != "" {
			t.Errorf("SlotString(%d) = %q, want empty", i, str)
		}
	}

	var nilState State
	if v := nilState.Slot(0); v.IsValid() {
		t.Errorf("nil state Slot = %v, want invalid", v)
	}
	if !math.IsNaN(nilState.SlotNumber(0)) || nilState.SlotBool(0) {
		t.Errorf("nil state typed reads should be NaN/false")
	}
}

// TestRegistersSchemaGrowthAfterStates interns names after states were sized
// and checks that old states keep working: reads of new slots are absent
// until written, writes grow the planes, and plane copies across different
// widths preserve the wider state's extra slots.
func TestRegistersSchemaGrowthAfterStates(t *testing.T) {
	schema := NewSchema()
	for i := 0; i < 70; i++ {
		schema.Intern("v" + strconv.Itoa(i))
	}
	narrow := NewStateWith(schema)
	for i := 0; i < 70; i++ {
		narrow.SetSlotBool(i, i%2 == 0)
	}

	// The schema grows after narrow exists.
	for i := 70; i < 80; i++ {
		schema.Intern("v" + strconv.Itoa(i))
	}
	wide := NewStateWith(schema)
	wide.CopyFrom(narrow) // narrower source into wider destination
	for i := 70; i < 80; i++ {
		wide.SetSlotBool(i, true)
	}

	// Re-copying the narrow source must not clobber the wide state's extra
	// slots.
	narrow.SetSlotBool(69, true)
	wide.CopyFrom(narrow)
	if !wide.SlotBool(69) {
		t.Errorf("copied slot 69 lost its updated value")
	}
	for i := 70; i < 80; i++ {
		if !wide.SlotBool(i) {
			t.Errorf("slot %d beyond the source width was clobbered by CopyFrom", i)
		}
	}

	// The old, narrow state reads new slots as absent and grows on write.
	if narrow.Has("v75") {
		t.Errorf("narrow state should not have v75 yet")
	}
	if v := narrow.Slot(75); v.IsValid() {
		t.Errorf("narrow state Slot(75) = %v, want invalid", v)
	}
	narrow.SetSlot(75, Number(7.5))
	if got := narrow.Number("v75"); got != 7.5 {
		t.Errorf("narrow state after growth: v75 = %v, want 7.5", got)
	}

	// Growth via CopyFrom: a fresh, zero-width-schema clone target.
	dst := NewStateWith(schema)
	dst.CopyFrom(wide)
	for i := 0; i < 80; i++ {
		if dst.SlotBool(i) != wide.SlotBool(i) {
			t.Fatalf("slot %d diverged after CopyFrom", i)
		}
	}
}

// TestRegistersCloneIndependence mutates a clone on every plane and checks
// the original is untouched.
func TestRegistersCloneIndependence(t *testing.T) {
	s := NewState()
	s.SetNumber("n", 1)
	s.SetBool("b", true)
	s.SetString("s", "A")

	c := s.Clone()
	c.SetNumber("n", 2)
	c.SetBool("b", false)
	c.SetString("s", "B")
	c.SetString("extra", "X")

	if got := s.Number("n"); got != 1 {
		t.Errorf("original number mutated: %v", got)
	}
	if !s.Bool("b") {
		t.Errorf("original bool mutated")
	}
	if got := s.StringVal("s"); got != "A" {
		t.Errorf("original string mutated: %q", got)
	}
	if s.Has("extra") {
		t.Errorf("original gained a slot written only on the clone")
	}
}

// TestRegistersResetKeepsVocabulary checks Reset clears values but keeps the
// schema, interned enumeration ids and plane capacity.
func TestRegistersResetKeepsVocabulary(t *testing.T) {
	s := NewState()
	s.SetString("mode", "ACC")
	id, ok := s.Schema().LookupString("ACC")
	if !ok {
		t.Fatal("enum not interned")
	}

	s.Reset()
	if s.Has("mode") {
		t.Errorf("value survived Reset")
	}
	if len(s.Names()) != 0 {
		t.Errorf("Names after Reset = %v, want empty", s.Names())
	}
	if _, ok := s.Schema().Lookup("mode"); !ok {
		t.Errorf("schema vocabulary lost on Reset")
	}
	if id2, _ := s.Schema().LookupString("ACC"); id2 != id {
		t.Errorf("enum id changed across Reset: %d != %d", id2, id)
	}

	// Rewriting after Reset reuses the planes and the interned ids.
	s.SetString("mode", "ACC")
	slot, _ := s.Schema().Lookup("mode")
	if got := s.SlotStringID(slot); got != id {
		t.Errorf("rewritten enum id = %d, want %d", got, id)
	}
}

// TestSchemaEnumInterning pins the enumeration table's invariants: "" is
// pre-interned at id 0 (string truthiness is id != 0), ids are dense and
// stable, and EnumString round-trips.
func TestSchemaEnumInterning(t *testing.T) {
	sc := NewSchema()
	if id := sc.InternString(""); id != 0 {
		t.Fatalf("empty string id = %d, want 0", id)
	}
	a := sc.InternString("A")
	b := sc.InternString("B")
	if a != 1 || b != 2 {
		t.Fatalf("dense ids: got %d, %d", a, b)
	}
	if sc.InternString("A") != a {
		t.Errorf("re-interning changed the id")
	}
	if sc.EnumString(a) != "A" || sc.EnumString(-1) != "" || sc.EnumString(99) != "" {
		t.Errorf("EnumString round-trip failed")
	}

	s := NewStateWith(sc)
	s.SetString("x", "")
	if s.Bool("x") {
		t.Errorf("empty-string slot should be falsy")
	}
	if !s.Has("x") {
		t.Errorf("empty-string slot should still be present")
	}
}

// slotReads is what every accessor returns for one physical slot.
type slotReads struct {
	val    Value
	num    float64 // SlotNumber
	okNum  float64 // SlotNumberOK's number
	ok     bool
	truthy bool
	id     int32
	str    string
}

func readSlot(s State, i int) slotReads {
	okNum, ok := s.SlotNumberOK(i)
	return slotReads{s.Slot(i), s.SlotNumber(i), okNum, ok, s.SlotBool(i), s.SlotStringID(i), s.SlotString(i)}
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// equal compares two reads; Value.String renders NaN, which Value.Equal
// never equates.
func (r slotReads) equal(o slotReads) bool {
	return r.val.Kind() == o.val.Kind() && r.val.String() == o.val.String() &&
		sameFloat(r.num, o.num) && sameFloat(r.okNum, o.okNum) && r.ok == o.ok &&
		r.truthy == o.truthy && r.id == o.id && r.str == o.str
}

// TestRegistersKindCycleEveryAccessor drives one slot through
// bool → number(NaN) → string → absent → bool at lane widths 1 and 4 and
// checks every accessor after each write: a bool reads as 0/1, a NaN number
// is truthy, a string reads as NaN, absent reads as NaN/false, and the
// neighbouring lanes of the slot's lane group never change.
func TestRegistersKindCycleEveryAccessor(t *testing.T) {
	nan := math.NaN()
	for _, width := range []int{1, 4} {
		schema := NewSchema()
		schema.Intern("before")
		slot := schema.Intern("x")
		schema.Intern("after")
		goID := schema.InternString("GO")
		s := NewStateWithLanes(schema, width)
		lane := width - 1
		for l := 0; l < width; l++ {
			s.SetSlotNumber(slot*width+l, 7)
		}
		i := slot*width + lane
		steps := []struct {
			name  string
			write func()
			want  slotReads
		}{
			{"bool true", func() { s.SetSlotBool(i, true) },
				slotReads{Bool(true), 1, 1, true, true, -1, "true"}},
			{"number NaN", func() { s.SetSlotNumber(i, nan) },
				slotReads{Number(nan), nan, nan, true, true, -1, "NaN"}},
			{"string", func() { s.SetSlotString(i, "GO") },
				slotReads{String("GO"), nan, nan, true, true, goID, "GO"}},
			{"empty string", func() { s.SetSlotStringID(i, 0) },
				slotReads{String(""), nan, nan, true, false, 0, ""}},
			{"absent", func() { s.SetSlot(i, Value{}) },
				slotReads{Value{}, nan, nan, false, false, -1, ""}},
			{"bool false", func() { s.SetSlotBool(i, false) },
				slotReads{Bool(false), 0, 0, true, false, -1, "false"}},
		}
		seven := slotReads{Number(7), 7, 7, true, true, -1, "7"}
		for _, st := range steps {
			st.write()
			if got := readSlot(s, i); !got.equal(st.want) {
				t.Errorf("width %d, %s: reads %+v, want %+v", width, st.name, got, st.want)
			}
			for l := 0; l < lane; l++ {
				if got := readSlot(s, slot*width+l); !got.equal(seven) {
					t.Errorf("width %d, %s: neighbour lane %d reads %+v, want %+v", width, st.name, l, got, seven)
				}
			}
		}
	}
}

// TestRegistersLargeEnumIDRoundTrips stores ids up to the int32 maximum on
// the float64 value plane and reads them back exactly.
func TestRegistersLargeEnumIDRoundTrips(t *testing.T) {
	s := NewState()
	slot := s.Schema().Intern("mode")
	for _, id := range []int32{1, 1<<24 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		s.SetSlotStringID(slot, id)
		if got := s.SlotStringID(slot); got != id {
			t.Errorf("SlotStringID after storing %d = %d", id, got)
		}
		if got := s.Clone().SlotStringID(slot); got != id {
			t.Errorf("cloned SlotStringID after storing %d = %d", id, got)
		}
	}
}

// TestRegistersCopyFromNarrowerKeepsTail copies a state sized before the
// schema grew into a wider one: the copied slots take the source's values
// and every tail slot beyond the source's width keeps its own, of every kind.
func TestRegistersCopyFromNarrowerKeepsTail(t *testing.T) {
	schema := NewSchema()
	for i := 0; i < 5; i++ {
		schema.Intern("v" + strconv.Itoa(i))
	}
	narrow := NewStateWith(schema)
	for i := 0; i < 5; i++ {
		narrow.SetSlotNumber(i, float64(i))
	}
	schema.Intern("tb")
	schema.Intern("tn")
	schema.Intern("ts")
	wide := NewStateWith(schema).SetBool("tb", true).SetNumber("tn", 2.5).SetString("ts", "ACC")
	for i := 0; i < 5; i++ {
		wide.SetSlotString(i, "stale")
	}
	wide.CopyFrom(narrow)
	for i := 0; i < 5; i++ {
		if got := wide.Slot(i); !got.Equal(Number(float64(i))) {
			t.Errorf("copied slot %d = %v, want %d", i, got, i)
		}
	}
	if !wide.Bool("tb") || wide.Number("tn") != 2.5 || wide.StringVal("ts") != "ACC" {
		t.Errorf("tail slots clobbered by a narrower CopyFrom: %v", wide)
	}
}

// TestRegistersCoverAndUncheckedAccessors checks the bind-time contract of
// the unchecked accessors at widths 1 and 4: Cover brings a name interned
// after the state was sized into range, every Store*/Load* pair reads back
// exactly what the checked Slot* accessors read, Reset makes the loads
// absent again, and an uncovered slot panics instead of being dropped.
func TestRegistersCoverAndUncheckedAccessors(t *testing.T) {
	for _, width := range []int{1, 4} {
		schema := NewSchema()
		schema.Intern("sized")
		s := NewStateWithLanes(schema, width)
		slot := schema.Intern("late")
		goID := schema.InternString("GO")
		s.Cover()
		lane := width - 1
		i := slot*width + lane

		unchecked := func() (float64, bool, int32) { return s.LoadNumber(i), s.LoadBool(i), s.LoadStringID(i) }
		agree := func(step string) {
			t.Helper()
			n, b, id := unchecked()
			if !sameFloat(n, s.SlotNumber(i)) || b != s.SlotBool(i) || id != s.SlotStringID(i) {
				t.Errorf("width %d, %s: unchecked loads %v/%v/%d, checked %v/%v/%d",
					width, step, n, b, id, s.SlotNumber(i), s.SlotBool(i), s.SlotStringID(i))
			}
		}
		if n, b, id := unchecked(); !math.IsNaN(n) || b || id != -1 {
			t.Fatalf("width %d: covered slot before any write loads %v/%v/%d, want NaN/false/-1", width, n, b, id)
		}
		for _, st := range []struct {
			name  string
			store func()
		}{
			{"number", func() { s.StoreNumber(i, 2.5) }},
			{"bool true", func() { s.StoreBool(i, true) }},
			{"enum", func() { s.StoreStringID(i, goID) }},
			{"zero number", func() { s.StoreNumber(i, 0) }},
			{"bool false", func() { s.StoreBool(i, false) }},
			{"NaN number", func() { s.StoreNumber(i, math.NaN()) }},
		} {
			st.store()
			agree(st.name)
		}
		s.StoreStringID(i, goID)
		if got := s.SlotString(i); got != "GO" {
			t.Errorf("width %d: StoreStringID then SlotString = %q, want GO", width, got)
		}
		for l := 0; l < lane; l++ {
			if k := s.SlotKind(slot*width + l); k != KindInvalid {
				t.Errorf("width %d: stores on lane %d touched lane %d (kind %v)", width, lane, l, k)
			}
		}
		s.Reset()
		if n, b, id := unchecked(); !math.IsNaN(n) || b || id != -1 {
			t.Errorf("width %d: after Reset loads %v/%v/%d, want NaN/false/-1", width, n, b, id)
		}

		uncovered := schema.Intern("uncovered") * width
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: StoreNumber on an uncovered slot did not panic", width)
				}
			}()
			s.StoreNumber(uncovered, 1)
		}()
		s.SetSlotNumber(uncovered, 1) // the checked form grows instead
		if got := s.LoadNumber(uncovered); got != 1 {
			t.Errorf("width %d: SetSlotNumber past the planes then LoadNumber = %v, want 1", width, got)
		}
	}
}
