package monitor

import (
	"math/rand"
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
