package temporal

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// gateFormulas covers every atom kind the watch table treats differently:
// boolean variables, numeric and enumeration comparisons against constants
// (watched), variable-to-variable comparisons (run every step), a constant
// (full passes only), and temporal operators above them, including the
// bounded-past windows that slide while their inputs hold.
var gateFormulas = []string{
	"A",
	"!B & N < 3",
	"S == 'red'",
	"S != 'blue' | M >= 2",
	"N == M",
	"N <= M",
	"N != 0 & M > -1",
	"once(A) & hist(N < 4)",
	"prevfor[5ms](A)",
	"prevwithin[3ms](N > 1)",
	"true",
	"became(C)",
	"prev(S == 'green') => initially(!C)",
}

// gateColors are the enumeration values of the S slot.
var gateColors = []string{"red", "green", "blue"}

// gateRig is a lane-stepped program over gateFormulas plus one reference
// Stepper per formula per lane.
type gateRig struct {
	t        *testing.T
	lanes    int
	prog     *Program
	formulas []Formula
	taps     []Tap
	refs     [][]*Stepper // refs[l][i]: formula i on lane l
	step     int
}

// newGateRig compiles gateFormulas against schema (interning their names)
// and sets the program to the given lane width.
func newGateRig(t *testing.T, schema *Schema, lanes int) *gateRig {
	t.Helper()
	g := &gateRig{t: t, lanes: lanes, prog: NewProgram(time.Millisecond, schema)}
	for _, src := range gateFormulas {
		f := MustParse(src)
		g.formulas = append(g.formulas, f)
		g.taps = append(g.taps, g.prog.MustAdd(f))
	}
	if err := g.prog.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	g.refs = make([][]*Stepper, lanes)
	for l := range g.refs {
		for _, f := range g.formulas {
			g.refs[l] = append(g.refs[l], mustReference(t, f))
		}
	}
	return g
}

// check steps the lane program over st.wide and each lane's references over
// that lane's scalar state, and fails on the first differing verdict.
func (g *gateRig) check(st *gateStates) {
	g.t.Helper()
	g.prog.StepLanes(st.wide)
	for l := 0; l < g.lanes; l++ {
		for i, s := range g.refs[l] {
			want := s.Step(st.scalars[l])
			got := g.prog.OutputMask(g.taps[i])&(1<<uint(l)) != 0
			if got != want {
				g.t.Fatalf("step %d lane %d/%d: lane output %v != reference %v for %s",
					g.step, l, g.lanes, got, want, g.formulas[i])
			}
		}
	}
	g.step++
}

// hold checks n steps over states the caller does not change.
func (g *gateRig) hold(st *gateStates, n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		g.check(st)
	}
}

// reset rewinds the program and every reference stepper.
func (g *gateRig) reset() {
	g.prog.Reset()
	for _, lane := range g.refs {
		for _, s := range lane {
			s.Reset()
		}
	}
}

// gateStates is one lane-widened state plus each lane's scalar copy.
type gateStates struct {
	wide    State
	scalars []State
}

func newGateStates(schema *Schema, lanes int) *gateStates {
	st := &gateStates{wide: NewStateWithLanes(schema, lanes)}
	for l := 0; l < lanes; l++ {
		st.scalars = append(st.scalars, NewStateWith(schema))
	}
	return st
}

// set writes v into lane l of the widened state and into lane l's scalar
// state.
func (st *gateStates) set(l int, name string, v Value) {
	slot := st.wide.Schema().Intern(name)
	st.wide.SetSlot(slot*st.wide.Lanes()+l, v)
	st.scalars[l].SetSlot(slot, v)
}

// fill gives every lane a different value of every variable.
func (st *gateStates) fill() {
	for l := range st.scalars {
		st.set(l, "A", Bool(l%2 == 0))
		st.set(l, "B", Bool(l == 1))
		st.set(l, "C", Bool(false))
		st.set(l, "N", Number(float64(l)))
		st.set(l, "M", Number(2))
		st.set(l, "S", String(gateColors[l%len(gateColors)]))
	}
}

// clone returns fresh states with equal contents, as a recorded trace hands
// a monitor a new snapshot every step.
func (st *gateStates) clone() *gateStates {
	c := &gateStates{wide: st.wide.Clone()}
	for _, s := range st.scalars {
		c.scalars = append(c.scalars, s.Clone())
	}
	return c
}

// TestStepLanesChangeGating pins the watch table's correctness cases at
// widths 1 and 4 against the reference Stepper on every lane and step: long
// holds broken by single-lane changes (including changes of kind alone,
// with the value bits kept), a fresh State with equal contents every step, a
// state narrower than the schema that later widens, and a Reset mid-run with
// unchanged inputs.
func TestStepLanesChangeGating(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		last := lanes - 1
		t.Run(fmt.Sprintf("l%d/held-then-one-change", lanes), func(t *testing.T) {
			schema := NewSchema()
			g := newGateRig(t, schema, lanes)
			st := newGateStates(schema, lanes)
			st.fill()
			g.hold(st, 100)
			st.set(last, "N", Number(7))
			g.hold(st, 30)
			// Kind-only changes: the enumeration id of "red" as a number,
			// then an absent A whose stale value bits are still those of
			// its last value.
			st.set(0, "S", Number(float64(schema.InternString("red"))))
			g.hold(st, 30)
			st.set(0, "A", Value{})
			g.hold(st, 30)
			// -0 after 0 and NaN after NaN.
			st.set(0, "N", Number(0))
			g.hold(st, 5)
			st.set(0, "N", Number(math.Copysign(0, -1)))
			g.hold(st, 5)
			st.set(last, "M", Number(math.NaN()))
			g.hold(st, 5)
			st.set(last, "M", Number(math.NaN()))
			g.hold(st, 5)
		})
		t.Run(fmt.Sprintf("l%d/fresh-state-each-step", lanes), func(t *testing.T) {
			schema := NewSchema()
			g := newGateRig(t, schema, lanes)
			master := newGateStates(schema, lanes)
			master.fill()
			for step := 0; step < 200; step++ {
				switch step {
				case 100:
					master.set(last, "S", String("blue"))
				case 150:
					master.set(0, "B", Number(1))
				}
				g.check(master.clone())
			}
		})
		t.Run(fmt.Sprintf("l%d/narrow-state-widens", lanes), func(t *testing.T) {
			schema := NewSchema()
			schema.Intern("A")
			schema.Intern("N")
			st := newGateStates(schema, lanes) // sized before the program interns B, C, M, S
			g := newGateRig(t, schema, lanes)
			for l := 0; l < lanes; l++ {
				st.set(l, "A", Bool(true))
				st.set(l, "N", Number(1))
			}
			g.hold(st, 30)
			st.set(last, "S", String("red")) // grows the planes
			g.hold(st, 30)
			st.set(0, "M", Number(0))
			g.hold(st, 30)
		})
		t.Run(fmt.Sprintf("l%d/reset-mid-run", lanes), func(t *testing.T) {
			schema := NewSchema()
			g := newGateRig(t, schema, lanes)
			st := newGateStates(schema, lanes)
			st.fill()
			g.hold(st, 50)
			g.reset()
			g.hold(st, 50)
		})
	}
}

// TestZeroAllocStepLanesGated is the allocation gate of gated StepLanes:
// the steady state allocates nothing at widths 1 and 4, and neither does the
// watch-table rebuild on the first step after a swap to a schema that
// already interns every name and enumeration string the program reads.
func TestZeroAllocStepLanesGated(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	// Both schemas intern the whole vocabulary, in opposite orders, so the
	// swap moves every operand slot.
	vocabulary := func(reverse bool) *Schema {
		names := []string{"A", "B", "C", "N", "M", "S"}
		sc := NewSchema()
		for i := range names {
			if reverse {
				i = len(names) - 1 - i
			}
			sc.Intern(names[i])
		}
		for _, c := range gateColors {
			sc.InternString(c)
		}
		return sc
	}
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("l%d", lanes), func(t *testing.T) {
			a, b := vocabulary(false), vocabulary(true)
			g := newGateRig(t, a, lanes)
			sa, sb := newGateStates(a, lanes), newGateStates(b, lanes)
			sa.fill()
			sb.fill()
			g.prog.StepLanes(sa.wide)
			g.prog.StepLanes(sb.wide)
			g.prog.StepLanes(sa.wide)

			n := a.Intern("N") * lanes
			i := 0
			if allocs := testing.AllocsPerRun(500, func() {
				i++
				sa.wide.SetSlotNumber(n, float64(i%5))
				g.prog.StepLanes(sa.wide)
			}); allocs != 0 {
				t.Errorf("steady-state StepLanes at width %d: %v allocs/step, want 0", lanes, allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				g.prog.StepLanes(sb.wide)
				g.prog.StepLanes(sa.wide)
			}); allocs != 0 {
				t.Errorf("StepLanes across a schema swap at width %d: %v allocs per two steps, want 0", lanes, allocs)
			}
		})
	}
}
