package monitor

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// laneRandState writes one random compiledRandState-style observation into
// every lane of the widened state.
func laneRandState(r *rand.Rand, st temporal.State) {
	sc, lanes := st.Schema(), st.Lanes()
	for l := 0; l < lanes; l++ {
		st.SetSlotBool(sc.Intern("auto")*lanes+l, r.Intn(4) > 0)
		st.SetSlotBool(sc.Intern("stopped")*lanes+l, r.Intn(2) == 0)
		st.SetSlotNumber(sc.Intern("accel")*lanes+l, r.Float64()*4)
		st.SetSlotNumber(sc.Intern("cmd")*lanes+l, r.Float64()*4)
		st.SetSlotNumber(sc.Intern("req")*lanes+l, r.Float64()*4)
	}
}

// TestZeroAllocFastSummaryAt is the allocation gate of summary-only
// classification: once a width-4 lane suite has classified one batch, every
// lane's FastSummaryAt at any tolerance reuses the suite's scratch buffers
// and allocates nothing.
func TestZeroAllocFastSummaryAt(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const width = 4
	st := temporal.NewStateWithLanes(temporal.NewSchema(), width)
	r := rand.New(rand.NewSource(1))
	laneRandState(r, st) // intern the vocabulary before compiling
	ls := NewLaneSuite(time.Millisecond, st.Schema(), width)
	for _, h := range compiledPlan() {
		ls.MustAddHierarchy(h.parent, 4, h.children...)
	}
	if err := ls.Seal(); err != nil {
		t.Fatal(err)
	}

	// One warm batch grows the recorders and the classification scratch.
	ls.Reset(width)
	for i := 0; i < 400; i++ {
		laneRandState(r, st)
		ls.ObserveLanes(st)
	}
	ls.Finish()
	for l := 0; l < width; l++ {
		if ls.FastSummaryAt(l, 1).Total() == 0 {
			t.Fatalf("lane %d classified no violations; the gate would measure an empty suite", l)
		}
		ls.FastSummaryAt(l, 16)
	}

	allocs := testing.AllocsPerRun(20, func() {
		for l := 0; l < width; l++ {
			ls.FastSummaryAt(l, 1)
			ls.FastSummaryAt(l, 16)
		}
	})
	if allocs != 0 {
		t.Errorf("FastSummaryAt allocated %.1f times per batch, want 0", allocs)
	}
}

// TestZeroAllocObserveLanes is the allocation gate of the change-driven
// fold: once a suite has observed a batch, re-observing the same states
// after Reset (the recorders keep their capacity) allocates nothing at
// widths 1 and 4, intervals opened and closed included.
func TestZeroAllocObserveLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, width := range []int{1, 4} {
		schema := temporal.NewSchema()
		r := rand.New(rand.NewSource(2))
		states := make([]temporal.State, 300)
		for i := range states {
			states[i] = temporal.NewStateWithLanes(schema, width)
			// Hold each random draw for a few ticks, so most ticks
			// change some verdicts and leave the rest.
			if i%5 == 0 {
				laneRandState(r, states[i])
			} else {
				states[i].CopyFrom(states[i-1])
			}
		}
		ls := NewLaneSuite(time.Millisecond, schema, width)
		for _, h := range compiledPlan() {
			ls.MustAddHierarchy(h.parent, 4, h.children...)
		}
		if err := ls.Seal(); err != nil {
			t.Fatal(err)
		}
		batch := func() {
			ls.Reset(width)
			for _, st := range states {
				ls.ObserveLanes(st)
			}
			ls.Finish()
		}
		batch()
		if ls.FastSummaryAt(0, 1).Total() == 0 {
			t.Fatalf("width %d: no violations recorded; the gate would measure an idle fold", width)
		}
		if allocs := testing.AllocsPerRun(5, batch); allocs != 0 {
			t.Errorf("width %d: a reused batch of %d ObserveLanes allocates %v objects, want 0", width, len(states), allocs)
		}
	}
}

// TestSuiteCloneOwnsItsState pins Suite.Clone, which a KeepTrace Result
// keeps while its arena's suite runs the next job: the clone reports and
// classifies what the suite recorded, at the clone's tolerance, and neither
// a Reset nor a further batch of the source suite changes it.
func TestSuiteCloneOwnsItsState(t *testing.T) {
	schema := temporal.NewSchema()
	st := temporal.NewStateWithLanes(schema, 1)
	r := rand.New(rand.NewSource(3))
	ls := NewLaneSuite(time.Millisecond, schema, 1)
	for _, h := range compiledPlan() {
		ls.MustAddHierarchy(h.parent, 4, h.children...)
	}
	if err := ls.Seal(); err != nil {
		t.Fatal(err)
	}
	batch := func() {
		ls.Reset(1)
		for i := 0; i < 300; i++ {
			laneRandState(r, st)
			ls.ObserveLanes(st)
		}
		ls.Finish()
	}
	batch()
	src := ls.LaneSuiteOf(0)
	const tol = 9
	clone := src.Clone(tol)
	report := src.Report()
	if len(report) == 0 {
		t.Fatal("the suite recorded no violations; the clone would copy nothing")
	}
	// The source reclassified at tol, the way the tests' classifyAt does.
	at := NewSuite()
	for _, h := range src.Hierarchies() {
		at.Add(NewHierarchy(h.Parent, tol, h.Children...))
	}
	wantDet, wantSum := at.ClassifyAll()
	check := func(when string) {
		t.Helper()
		if got := clone.Report(); !reflect.DeepEqual(got, report) {
			t.Errorf("%s: clone report differs from the recorded one", when)
		}
		gotDet, gotSum := clone.ClassifyAll()
		if !reflect.DeepEqual(gotDet, wantDet) || gotSum != wantSum {
			t.Errorf("%s: clone classifies to %v, want %v at tolerance %d", when, gotSum, wantSum, tol)
		}
		for _, h := range clone.Hierarchies() {
			if h.Tolerance != tol {
				t.Errorf("%s: clone hierarchy %s at tolerance %d, want %d", when, h.Parent.Goal.Name, h.Tolerance, tol)
			}
		}
	}
	check("after cloning")
	batch()
	check("after the source ran another batch")
}

// TestLaneSuiteAddAfterSeal pins the lane arena's sealing path: a LaneSuite
// sealed by Seal rejects AddHierarchy with a sealed-suite error and
// registers nothing on any lane.  TestCompiledSuiteAddAfterLowering covers
// the CompiledSuite path.
func TestLaneSuiteAddAfterSeal(t *testing.T) {
	g := GoalAt{Goal: goals.MustParse("G", "", "A"), Location: "Vehicle"}

	ls := NewLaneSuite(time.Millisecond, temporal.NewSchema(), 2)
	ls.MustAddHierarchy(g, 1)
	if err := ls.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := ls.AddHierarchy(g, 1); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Errorf("LaneSuite AddHierarchy after Seal: err = %v, want a sealed-suite error", err)
	}
	for l := 0; l < 2; l++ {
		if n := len(ls.LaneSuiteOf(l).Monitors()); n != 1 {
			t.Errorf("LaneSuite lane %d: %d monitors registered after a rejected AddHierarchy, want 1", l, n)
		}
	}
}
