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

// compiledPlan is a small monitoring plan with heavy atom overlap across
// hierarchies, mirroring the structure of the vehicle plan.
func compiledPlan() []struct {
	parent   GoalAt
	children []GoalAt
} {
	g := func(name, formal string) goals.Goal { return goals.MustParse(name, "", formal) }
	return []struct {
		parent   GoalAt
		children []GoalAt
	}{
		{
			parent: GoalAt{Goal: g("G1", "auto => accel <= 2"), Location: "Vehicle"},
			children: []GoalAt{
				{Goal: g("G1a", "auto => cmd <= 2"), Location: "Arbiter"},
				{Goal: g("G1b", "req <= 2"), Location: "CA"},
			},
		},
		{
			parent: GoalAt{Goal: g("G2", "(prevfor[3ms](stopped) & auto) => accel <= 0.05"), Location: "Vehicle"},
			children: []GoalAt{
				{Goal: g("G2a", "(prevfor[3ms](stopped) & auto) => cmd <= 0.05"), Location: "Arbiter"},
				{Goal: g("G2b", "prev(stopped) => req <= 0.05"), Location: "CA"},
			},
		},
	}
}

func compiledRandState(r *rand.Rand) temporal.State {
	return temporal.NewState().
		SetBool("auto", r.Intn(4) > 0).
		SetBool("stopped", r.Intn(2) == 0).
		SetNumber("accel", r.Float64()*4).
		SetNumber("cmd", r.Float64()*4).
		SetNumber("req", r.Float64()*4)
}

// TestCompiledSuiteMatchesSuite drives a per-monitor Suite of reference
// monitors and a CompiledSuite over identical random observations and
// requires identical detections, summaries and reports — the package-level
// form of the scenario differential tests.
func TestCompiledSuiteMatchesSuite(t *testing.T) {
	const tolerance = 4
	for seed := int64(0); seed < 10; seed++ {
		plain := NewSuite()
		compiled := NewCompiledSuite(time.Millisecond, nil)
		for _, h := range compiledPlan() {
			parent := referenceMonitor(h.parent.Goal, h.parent.Location, time.Millisecond)
			children := make([]*Monitor, len(h.children))
			for i, c := range h.children {
				children[i] = referenceMonitor(c.Goal, c.Location, time.Millisecond)
			}
			plain.Add(NewHierarchy(parent, tolerance, children...))
			if err := compiled.AddHierarchy(h.parent, tolerance, h.children...); err != nil {
				t.Fatalf("AddHierarchy(%s): %v", h.parent.Goal.Name, err)
			}
		}

		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			st := compiledRandState(r)
			plain.Observe(st)
			compiled.Observe(st)
		}
		plain.Finish()
		compiled.Finish()

		wantD, wantS := plain.ClassifyAll()
		gotD, gotS := compiled.ClassifyAll()
		if gotS != wantS {
			t.Fatalf("seed %d: compiled summary %v != per-monitor %v", seed, gotS, wantS)
		}
		if !reflect.DeepEqual(gotD, wantD) {
			t.Fatalf("seed %d: compiled detections diverge\ncompiled: %#v\nplain:    %#v", seed, gotD, wantD)
		}
		if got, want := compiled.Suite().Report(), plain.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compiled report diverges\ncompiled: %#v\nplain:    %#v", seed, got, want)
		}
	}
}

// TestCompiledSuiteSharesAtoms pins the point of the shared program: the
// plan's overlapping atoms evaluate once, so the program holds strictly fewer
// atom nodes than the formulas reference.
func TestCompiledSuiteSharesAtoms(t *testing.T) {
	cs := NewCompiledSuite(time.Millisecond, nil)
	for _, h := range compiledPlan() {
		if err := cs.AddHierarchy(h.parent, 4, h.children...); err != nil {
			t.Fatal(err)
		}
	}
	s := cs.Program().Stats()
	if s.Formulas != 6 {
		t.Fatalf("Formulas = %d, want 6", s.Formulas)
	}
	if s.Atoms >= s.AtomRefs {
		t.Errorf("no atom sharing across the plan: %d unique atoms for %d references", s.Atoms, s.AtomRefs)
	}
	if s.Nodes >= s.NodeRefs {
		t.Errorf("no node sharing across the plan: %d unique nodes for %d references", s.Nodes, s.NodeRefs)
	}
}

// TestCompiledSuiteReset reuses one compiled suite for two identical runs and
// requires identical classifications — the per-worker reuse contract.
func TestCompiledSuiteReset(t *testing.T) {
	cs := NewCompiledSuite(time.Millisecond, nil)
	for _, h := range compiledPlan() {
		if err := cs.AddHierarchy(h.parent, 4, h.children...); err != nil {
			t.Fatal(err)
		}
	}
	run := func() (map[string][]Detection, Summary) {
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			cs.Observe(compiledRandState(r))
		}
		cs.Finish()
		return cs.ClassifyAll()
	}
	d1, s1 := run()
	cs.Reset()
	d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("summary after Reset %v != first run %v", s2, s1)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("detections after Reset diverge\nfirst:  %#v\nsecond: %#v", d1, d2)
	}
	if s1.Total() == 0 {
		t.Fatal("test run produced no detections; the reuse check is vacuous")
	}
}

// TestCompiledSuiteSharedParentGoalName extends the ClassifyAll coverage to
// the compiled path: two hierarchies monitoring the same parent goal at
// different locations, each with a child, are both counted in the aggregate.
func TestCompiledSuiteSharedParentGoalName(t *testing.T) {
	parent := goals.MustParse("G", "", "auto => accel <= 2")
	child := goals.MustParse("Gsub", "", "auto => cmd <= 2")
	cs := NewCompiledSuite(time.Millisecond, nil)
	for _, loc := range []string{"Vehicle", "Arbiter"} {
		if err := cs.AddHierarchy(GoalAt{Goal: parent, Location: loc}, 2,
			GoalAt{Goal: child, Location: "CA"}); err != nil {
			t.Fatal(err)
		}
	}
	// One violating state for parent and child: each hierarchy records a hit.
	cs.Observe(temporal.NewState().SetBool("auto", true).SetNumber("accel", 3).SetNumber("cmd", 3))
	cs.Finish()

	m, sum := cs.ClassifyAll()
	if len(m) != 1 {
		t.Fatalf("classification map has %d entries, want 1 (shared goal name)", len(m))
	}
	if sum.Hits != 2 {
		t.Errorf("aggregate counted %d hits, want 2 (one per hierarchy)", sum.Hits)
	}
}

// TestCompiledSuiteErrors covers goal and formula rejection.
func TestCompiledSuiteErrors(t *testing.T) {
	cs := NewCompiledSuite(0, nil)
	ok := GoalAt{Goal: goals.MustParse("G", "", "A"), Location: "Vehicle"}
	if err := cs.AddHierarchy(GoalAt{Goal: goals.Goal{Name: "empty"}, Location: "Vehicle"}, 1); err == nil {
		t.Error("goal without formal definition should be rejected")
	}
	future := goals.New("Achieve[X]", "", temporal.Eventually(temporal.Var("B")))
	if err := cs.AddHierarchy(ok, 1, GoalAt{Goal: future, Location: "CA"}); err == nil {
		t.Error("future-time child goal should be rejected")
	}
	if len(cs.Suite().Monitors()) != 0 {
		t.Errorf("failed AddHierarchy registered %d monitors, want 0", len(cs.Suite().Monitors()))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("MustAddHierarchy should panic on an invalid goal")
		}
	}()
	cs.MustAddHierarchy(GoalAt{Goal: goals.Goal{Name: "bad"}, Location: "Vehicle"}, 1)
}

// TestCompiledSuiteAddAfterLowering pins the lowering boundary: the plan is
// lowered (the suite sealed) on the first Observe or Reset, after which
// AddHierarchy fails with a sealed-suite error and registers nothing.
func TestCompiledSuiteAddAfterLowering(t *testing.T) {
	g := GoalAt{Goal: goals.MustParse("G", "", "A"), Location: "Vehicle"}
	for name, lower := range map[string]func(*CompiledSuite){
		"Observe": func(cs *CompiledSuite) { cs.Observe(temporal.NewState()) },
		"Reset":   func(cs *CompiledSuite) { cs.Reset() },
	} {
		cs := NewCompiledSuite(time.Millisecond, nil)
		if err := cs.AddHierarchy(g, 1); err != nil {
			t.Fatalf("%s: AddHierarchy before lowering: %v", name, err)
		}
		lower(cs)
		if err := cs.AddHierarchy(g, 1); err == nil || !strings.Contains(err.Error(), "sealed") {
			t.Errorf("AddHierarchy after %s: err = %v, want a sealed-suite error", name, err)
		}
		if n := len(cs.Suite().Monitors()); n != 1 {
			t.Errorf("after %s: %d monitors registered, want 1", name, n)
		}
	}
}

// TestProgramFedMonitorObservePanics pins the guard: the monitors inside a
// compiled suite receive verdicts from the program, not from their own
// steppers, and say so when misused.
func TestProgramFedMonitorObservePanics(t *testing.T) {
	cs := NewCompiledSuite(time.Millisecond, nil)
	cs.MustAddHierarchy(GoalAt{Goal: goals.MustParse("G", "", "A"), Location: "Vehicle"}, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Observe on a program-fed monitor should panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "program-fed") {
			t.Fatalf("panic = %v, want the program-fed explanation", r)
		}
	}()
	cs.Suite().Monitors()[0].Observe(temporal.NewState())
}
