package sim

// Contract tests for the typed bus handles.  NumVar/BoolVar/StringVar cover
// their slot in both register files when they bind and then read and write
// with the unchecked plane accessors, so these tests pin what that relies
// on: a handle survives later interning (which reallocates the planes), a
// reset bus reads absent through every handle until the next committed
// write, and each lane view's handles touch only their own lane.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/temporal"
)

// handleSet is one signal of each kind bound on one bus view.
type handleSet struct {
	n NumVar
	b BoolVar
	s StringVar
}

func bindSet(bus *Bus, prefix string) handleSet {
	return handleSet{n: bus.NumVar(prefix + "n"), b: bus.BoolVar(prefix + "b"), s: bus.StringVar(prefix + "s")}
}

// assertAbsent checks that all six read paths of a handle set see no value.
func (h handleSet) assertAbsent(t *testing.T, what string) {
	t.Helper()
	if got := h.n.Read(); !math.IsNaN(got) {
		t.Errorf("%s: NumVar.Read = %v, want NaN", what, got)
	}
	if h.b.Read() {
		t.Errorf("%s: BoolVar.Read = true, want false", what)
	}
	if got := h.s.ReadID(); got != -1 {
		t.Errorf("%s: StringVar.ReadID = %d, want -1", what, got)
	}
	if got := h.s.Read(); got != "" {
		t.Errorf("%s: StringVar.Read = %q, want empty", what, got)
	}
}

// TestHandleSurvivesLaterInterning binds handles on an empty width-2 bus,
// then interns hundreds of further names through Init and fresh binds (each
// growing, and repeatedly reallocating, both register files' planes).  The
// early handles must keep reading and writing exactly their own slot, and
// the late names must keep their own values.
func TestHandleSurvivesLaterInterning(t *testing.T) {
	lb := NewLaneBus(2)
	bus := lb.Lane(1)
	early := bindSet(bus, "early.")
	goID := bus.EnumID("GO")
	early.n.Write(1.5)
	early.b.Write(true)
	early.s.WriteID(goID)
	lb.Commit()

	const more = 300
	late := make([]NumVar, more)
	for i := range late {
		name := fmt.Sprintf("late%03d", i)
		if i%2 == 0 {
			bus.InitNumber(name, float64(i))
			late[i] = bus.NumVar(name)
		} else {
			late[i] = bus.NumVar(name)
			late[i].Write(float64(i))
		}
	}
	if got := bus.Schema().Len(); got != 3+more {
		t.Fatalf("schema holds %d names, want %d", got, 3+more)
	}
	if early.n.Read() != 1.5 || !early.b.Read() || early.s.ReadID() != goID || early.s.Read() != "GO" {
		t.Fatalf("early handles after interning read %v/%v/%d, want 1.5/true/%d",
			early.n.Read(), early.b.Read(), early.s.ReadID(), goID)
	}

	early.n.Write(-2)
	early.b.Write(false)
	early.s.Write("STOP")
	lb.Commit()
	if early.n.Read() != -2 || early.b.Read() || early.s.Read() != "STOP" {
		t.Fatalf("early handles after rewrite read %v/%v/%q, want -2/false/STOP",
			early.n.Read(), early.b.Read(), early.s.Read())
	}
	for i, v := range late {
		if got := v.Read(); got != float64(i) {
			t.Fatalf("late%03d = %v, want %d", i, got, i)
		}
	}
	// Lane 0 was never written: the early writes went to lane 1 only.
	bindSet(lb.Lane(0), "early.").assertAbsent(t, "lane 0 after lane-1 writes")
}

// TestHandlesReadAbsentAfterReset checks both reset paths: after
// Simulation.Reset and after LaneBus.Reset every handle reads NaN / false /
// "" / -1, a buffered write stays invisible until the commit, and the
// committed write then reads back.
func TestHandlesReadAbsentAfterReset(t *testing.T) {
	write := func(h handleSet, id int32) {
		h.n.Write(4)
		h.b.Write(true)
		h.s.WriteID(id)
	}
	check := func(t *testing.T, h handleSet, id int32, reset func(), commit func()) {
		t.Helper()
		write(h, id)
		commit()
		reset()
		h.assertAbsent(t, "after Reset")
		write(h, id)
		h.assertAbsent(t, "after Reset, before commit")
		commit()
		if h.n.Read() != 4 || !h.b.Read() || h.s.ReadID() != id {
			t.Errorf("after Reset and commit: %v/%v/%d, want 4/true/%d", h.n.Read(), h.b.Read(), h.s.ReadID(), id)
		}
	}

	t.Run("Simulation", func(t *testing.T) {
		s := New(time.Millisecond)
		h := bindSet(s.Bus, "")
		check(t, h, s.Bus.EnumID("ON"), s.Reset, s.Bus.Commit)
	})
	t.Run("LaneBus", func(t *testing.T) {
		lb := NewLaneBus(3)
		for l := 0; l < lb.Lanes(); l++ {
			check(t, bindSet(lb.Lane(l), ""), lb.Lane(l).EnumID("ON"), lb.Reset, lb.Commit)
		}
	})
}

// TestHandlesTouchOnlyTheirLane writes and reads through all six hot handle
// methods at width 4 and checks each lane view touches exactly its own
// lane: a write lands in physical register slot*4+lane of the widened state
// and nowhere else, and a read returns its own lane's value while the
// sibling lanes hold different ones.
func TestHandlesTouchOnlyTheirLane(t *testing.T) {
	const lanes = 4
	lb := NewLaneBus(lanes)
	sets := make([]handleSet, lanes)
	for l := range sets {
		sets[l] = bindSet(lb.Lane(l), "")
	}
	ids := make([]int32, lanes)
	for l := range ids {
		ids[l] = lb.Lane(0).EnumID(fmt.Sprintf("E%d", l))
	}
	schema := lb.Schema()
	slotN, _ := schema.Lookup("n")
	slotB, _ := schema.Lookup("b")
	slotS, _ := schema.Lookup("s")

	for w := 0; w < lanes; w++ {
		lb.Reset()
		sets[w].n.Write(float64(10 + w))
		sets[w].b.Write(true)
		sets[w].s.WriteID(ids[w])
		lb.Commit()
		st := lb.State()
		for l := 0; l < lanes; l++ {
			wantKind := func(k temporal.Kind) temporal.Kind {
				if l == w {
					return k
				}
				return temporal.KindInvalid
			}
			if got := st.SlotKind(slotN*lanes + l); got != wantKind(temporal.KindNumber) {
				t.Errorf("write on lane %d: n lane %d kind %v", w, l, got)
			}
			if got := st.SlotKind(slotB*lanes + l); got != wantKind(temporal.KindBool) {
				t.Errorf("write on lane %d: b lane %d kind %v", w, l, got)
			}
			if got := st.SlotKind(slotS*lanes + l); got != wantKind(temporal.KindString) {
				t.Errorf("write on lane %d: s lane %d kind %v", w, l, got)
			}
			if l != w {
				sets[l].assertAbsent(t, fmt.Sprintf("lane %d after a lane-%d write", l, w))
			}
		}
	}

	// Every lane holds a distinct value; each view reads back its own.
	for l, h := range sets {
		h.n.Write(float64(100 + l))
		h.b.Write(l%2 == 1)
		h.s.WriteID(ids[l])
	}
	lb.Commit()
	for l, h := range sets {
		if got := h.n.Read(); got != float64(100+l) {
			t.Errorf("lane %d: NumVar.Read = %v, want %d", l, got, 100+l)
		}
		if got := h.b.Read(); got != (l%2 == 1) {
			t.Errorf("lane %d: BoolVar.Read = %v, want %v", l, got, l%2 == 1)
		}
		if got := h.s.ReadID(); got != ids[l] {
			t.Errorf("lane %d: StringVar.ReadID = %d, want %d", l, got, ids[l])
		}
	}
}
