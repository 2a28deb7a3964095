package sim

// Edge-case tests for the lane-widened bus and the lockstep lane kernel:
// bool lane addressing at an odd width, enumeration interning shared across
// lanes, per-lane hold semantics and per-lane early stop.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/temporal"
)

// TestLaneBusBoolWordSeams writes a checkerboard of booleans across 30 slots
// at the odd width 5 (150 physical indices slot*lanes+lane, lane groups
// straddling multiples of 64) and checks every lane view reads back exactly
// its own value.
func TestLaneBusBoolWordSeams(t *testing.T) {
	const lanes, slots = 5, 30 // 150 bits: word seams at 64 and 128
	lb := NewLaneBus(lanes)
	names := make([]string, slots)
	for s := range names {
		names[s] = fmt.Sprintf("b%02d", s)
	}
	want := func(s, l int) bool { return (s*7+l*3)%2 == 0 }
	vars := make([][]BoolVar, slots)
	for s, name := range names {
		vars[s] = make([]BoolVar, lanes)
		for l := 0; l < lanes; l++ {
			vars[s][l] = lb.Lane(l).BoolVar(name)
			vars[s][l].Write(want(s, l))
		}
	}
	lb.Commit()
	for s := range names {
		for l := 0; l < lanes; l++ {
			if got := vars[s][l].Read(); got != want(s, l) {
				t.Fatalf("slot %d lane %d (bit %d): got %v, want %v",
					s, l, s*lanes+l, got, want(s, l))
			}
		}
	}

	// Flip a single bit on a seam-straddling slot; its plane neighbors (same
	// slot, adjacent lanes — adjacent physical bits across the word seam)
	// must be untouched.
	seam := 12 // lane group spans bits 60..64
	vars[seam][2].Write(!want(seam, 2))
	lb.Commit()
	for l := 0; l < lanes; l++ {
		got := vars[seam][l].Read()
		exp := want(seam, l)
		if l == 2 {
			exp = !exp
		}
		if got != exp {
			t.Fatalf("after flipping lane 2: slot %d lane %d = %v, want %v", seam, l, got, exp)
		}
	}
}

// TestLaneBusEnumInterningShared checks that all lanes intern enumeration
// strings into one shared table: equal strings written on different lanes
// resolve to the same id in the widened state, distinct strings to distinct
// ids, and every lane view reads back its own value.
func TestLaneBusEnumInterningShared(t *testing.T) {
	lb := NewLaneBus(3)
	src := []StringVar{lb.Lane(0).StringVar("src"), lb.Lane(1).StringVar("src"), lb.Lane(2).StringVar("src")}
	src[0].Write("ACC")
	src[1].Write("Driver")
	src[2].Write("ACC")
	lb.Commit()

	for l, want := range []string{"ACC", "Driver", "ACC"} {
		if got := src[l].Read(); got != want {
			t.Errorf("lane %d: ReadString = %q, want %q", l, got, want)
		}
	}
	slot := lb.Schema().Intern("src")
	st := lb.State()
	id0 := st.SlotStringID(slot*3 + 0)
	id1 := st.SlotStringID(slot*3 + 1)
	id2 := st.SlotStringID(slot*3 + 2)
	if id0 < 0 || id1 < 0 || id2 < 0 {
		t.Fatalf("string ids not set: %d,%d,%d", id0, id1, id2)
	}
	if id0 != id2 {
		t.Errorf("equal strings on lanes 0 and 2 interned to different ids (%d vs %d)", id0, id2)
	}
	if id0 == id1 {
		t.Errorf("distinct strings on lanes 0 and 1 interned to the same id %d", id0)
	}
}

// TestStringVarIDs checks the bind-time interning path: an id from EnumID
// on one lane view is valid on every view, WriteID publishes exactly what
// Write of the same string does, and ReadID compares equal to the bound id
// (-1 before the signal holds a string).
func TestStringVarIDs(t *testing.T) {
	lb := NewLaneBus(2)
	acc := lb.Lane(0).EnumID("ACC")
	if got := lb.Lane(1).EnumID("ACC"); got != acc {
		t.Fatalf("lane views interned ACC to different ids %d and %d", acc, got)
	}
	v0, v1 := lb.Lane(0).StringVar("src"), lb.Lane(1).StringVar("src")
	if id := v0.ReadID(); id != -1 {
		t.Fatalf("ReadID before any write = %d, want -1", id)
	}
	v0.WriteID(acc)
	v1.Write("ACC")
	lb.Commit()
	for l, v := range []StringVar{v0, v1} {
		if got := v.Read(); got != "ACC" {
			t.Errorf("lane %d: Read = %q, want ACC", l, got)
		}
		if got := v.ReadID(); got != acc {
			t.Errorf("lane %d: ReadID = %d, want %d", l, got, acc)
		}
	}
	lb.Reset()
	if got := lb.Lane(0).EnumID("ACC"); got != acc {
		t.Errorf("EnumID after Reset = %d, want the bound id %d", got, acc)
	}
}

// TestLaneBusHoldSemantics checks per-lane hold-on-commit: a lane that writes
// nothing this tick keeps its previous committed value while its siblings
// move — the property that lets a retired lane's signals freeze without any
// special casing in the commit.
func TestLaneBusHoldSemantics(t *testing.T) {
	lb := NewLaneBus(2)
	v0, v1 := lb.Lane(0).NumVar("v"), lb.Lane(1).NumVar("v")
	v0.Write(1)
	v1.Write(2)
	lb.Commit()
	v1.Write(3)
	lb.Commit()
	if got := v0.Read(); got != 1 {
		t.Errorf("unwritten lane 0 moved: got %v, want held 1", got)
	}
	if got := v1.Read(); got != 3 {
		t.Errorf("lane 1 = %v, want 3", got)
	}
}

// laneCounter increments a per-lane signal each tick; its Step writes
// through the plain Component interface, proving unmodified components run
// on lane views.
type laneCounter struct {
	n int
	v NumVar
}

func (c *laneCounter) Name() string { return "laneCounter" }

func (c *laneCounter) Step(now time.Duration, bus *Bus) {
	c.n++
	c.v.Write(float64(c.n))
}
func (c *laneCounter) Reset() { c.n = 0 }

// TestLaneSimEarlyStopSteps runs three counter lanes with staggered stop
// thresholds: each stopping lane must retire at its own tick (Steps includes
// the stopping tick), later ticks must not step
// it, and a lane whose predicate never fires runs the full schedule.
func TestLaneSimEarlyStopSteps(t *testing.T) {
	const lanes = 3
	s := NewLaneSim(time.Millisecond, lanes)
	counters := make([]*laneCounter, lanes)
	slot := s.Bus.Schema().Intern("n")
	for l := 0; l < lanes; l++ {
		counters[l] = &laneCounter{v: s.Bus.Lane(l).NumVar("n")}
		s.AddLane(l, counters[l])
	}
	thresholds := []float64{5, 12, 1 << 30} // lane 2 never stops
	s.StopLaneWhen(func(lane int, _ time.Duration, st temporal.State) bool {
		return st.SlotNumber(slot*lanes+lane) >= thresholds[lane]
	})

	var stops []int
	s.Observe(observerFunc{
		observe: func(temporal.State) {},
		stopped: func(l int) { stops = append(stops, l) },
	})

	stopped := s.Run(20*time.Millisecond, 1<<lanes-1)
	if stopped != 0b011 {
		t.Fatalf("stopped mask = %b, want 011", stopped)
	}
	if s.Steps(0) != 5 || s.Steps(1) != 12 || s.Steps(2) != 20 {
		t.Fatalf("Steps = %d,%d,%d, want 5,12,20", s.Steps(0), s.Steps(1), s.Steps(2))
	}
	if counters[0].n != 5 || counters[1].n != 12 || counters[2].n != 20 {
		t.Fatalf("component steps = %d,%d,%d, want 5,12,20", counters[0].n, counters[1].n, counters[2].n)
	}
	if len(stops) != 2 || stops[0] != 0 || stops[1] != 1 {
		t.Fatalf("LaneStopped order = %v, want [0 1]", stops)
	}

	// A retired lane's committed signals freeze at their stopping value.
	if got := counters[0].v.Read(); got != 5 {
		t.Errorf("retired lane 0 signal = %v, want frozen 5", got)
	}

	// Reset rewinds components and steps for the next batch.
	s.Reset()
	if counters[0].n != 0 || s.Steps(0) != 0 {
		t.Fatalf("Reset left counter=%d steps=%d", counters[0].n, s.Steps(0))
	}
}

// observerFunc adapts two closures to LaneObserver.
type observerFunc struct {
	observe func(temporal.State)
	stopped func(int)
}

func (o observerFunc) ObserveLanes(st temporal.State) { o.observe(st) }
func (o observerFunc) LaneStopped(l int)              { o.stopped(l) }
