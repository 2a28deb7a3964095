package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/temporal"
)

func TestBusOneStepDelay(t *testing.T) {
	b := NewBus()
	x := b.NumVar("x")
	x.Write(5)
	if !math.IsNaN(x.Read()) {
		t.Error("written value must not be visible before commit")
	}
	b.Commit()
	if got := x.Read(); got != 5 {
		t.Errorf("after commit, x = %v", got)
	}
}

func TestBusHoldSemantics(t *testing.T) {
	b := NewBus()
	b.InitNumber("x", 1)
	b.Commit()
	// No write this step: the value holds.
	b.Commit()
	if got := b.NumVar("x").Read(); got != 1 {
		t.Errorf("x should hold its value, got %v", got)
	}
}

func TestBusInitVisibleImmediately(t *testing.T) {
	b := NewBus()
	b.InitBool("enabled", true)
	b.InitString("cmd", "STOP")
	b.InitNumber("speed", 2.5)
	b.Init("raw", temporal.Number(7))
	if !b.BoolVar("enabled").Read() || b.StringVar("cmd").Read() != "STOP" ||
		b.NumVar("speed").Read() != 2.5 || b.NumVar("raw").Read() != 7 {
		t.Error("Init values must be visible before the first commit")
	}
}

func TestBusTypedAccessors(t *testing.T) {
	b := NewBus()
	flag, mode, v := b.BoolVar("flag"), b.StringVar("mode"), b.NumVar("v")
	flag.Write(true)
	mode.Write("GO")
	v.Write(3)
	b.Commit()
	if !flag.Read() || mode.Read() != "GO" || v.Read() != 3 {
		t.Error("typed accessors round-trip failed")
	}
	if got := b.NumVar("missing").Read(); !math.IsNaN(got) || b.Snapshot().Has("missing") {
		t.Errorf("absent signal reads %v, want NaN and no value", got)
	}
}

func TestBusSnapshotIsIndependent(t *testing.T) {
	b := NewBus()
	b.InitNumber("x", 1)
	snap := b.Snapshot()
	b.NumVar("x").Write(2)
	b.Commit()
	if snap.Number("x") != 1 {
		t.Error("snapshot must not alias the live bus state")
	}
}

func TestSimulationRunsComponentsInOrder(t *testing.T) {
	s := New(time.Millisecond)
	var order []string
	s.Add(StepFunc{ComponentName: "first", Fn: func(time.Duration, *Bus) { order = append(order, "first") }})
	s.Add(StepFunc{ComponentName: "second", Fn: func(time.Duration, *Bus) { order = append(order, "second") }})
	s.Run(2 * time.Millisecond)
	want := []string{"first", "second", "first", "second"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimulationDefaultPeriod(t *testing.T) {
	s := New(0)
	if s.Period != time.Millisecond {
		t.Errorf("default period = %v", s.Period)
	}
}

// TestBusStepSecondsFollowsPeriod checks that a component sees the period of
// the simulation stepping it: on every lane of a LaneSim, and on a
// Simulation whose Period changes between runs.
func TestBusStepSecondsFollowsPeriod(t *testing.T) {
	var seen []float64
	record := StepFunc{ComponentName: "record", Fn: func(_ time.Duration, b *Bus) {
		seen = append(seen, b.StepSeconds())
	}}

	ls := NewLaneSim(2*time.Millisecond, 2)
	ls.AddLane(0, record)
	ls.AddLane(1, record)
	ls.Run(4*time.Millisecond, 0b11)
	if want := (2 * time.Millisecond).Seconds(); len(seen) != 4 || seen[0] != want || seen[3] != want {
		t.Fatalf("LaneSim lanes saw StepSeconds %v, want 4 × %v", seen, want)
	}

	s := New(10 * time.Millisecond)
	s.Add(record)
	for _, period := range []time.Duration{10 * time.Millisecond, 250 * time.Microsecond} {
		seen = seen[:0]
		s.Period = period
		s.RunDiscard(4 * period)
		if len(seen) != 4 || seen[0] != period.Seconds() || seen[3] != period.Seconds() {
			t.Errorf("Simulation at %v: components saw StepSeconds %v, want 4 × %v", period, seen, period.Seconds())
		}
	}
}

// TestSimulationIntegratorTrace exercises the kernel end to end with a tiny
// closed loop: a controller commands acceleration, the plant integrates it,
// and the trace records both signals with the one-step observation delay.
func TestSimulationIntegratorTrace(t *testing.T) {
	s := New(10 * time.Millisecond)
	s.Bus.InitNumber("speed", 0)
	s.Bus.InitNumber("accelCmd", 0)
	speed, accelCmd := s.Bus.NumVar("speed"), s.Bus.NumVar("accelCmd")

	controller := StepFunc{ComponentName: "controller", Fn: func(time.Duration, *Bus) {
		if speed.Read() < 1.0 {
			accelCmd.Write(10)
		} else {
			accelCmd.Write(0)
		}
	}}
	plant := StepFunc{ComponentName: "plant", Fn: func(time.Duration, *Bus) {
		dt := 0.010
		speed.Write(speed.Read() + accelCmd.Read()*dt)
	}}
	s.Add(controller, plant)

	tr := s.Run(500 * time.Millisecond)
	if tr.Len() != 50 {
		t.Fatalf("trace length = %d, want 50", tr.Len())
	}
	final := tr.Last().Number("speed")
	if final < 0.99 || final > 1.3 {
		t.Errorf("closed loop should settle near 1.0 m/s, got %v", final)
	}
	// The plant reads the command one step late: speed is still 0 at index 0.
	if got := tr.At(0).Number("speed"); got != 0 {
		t.Errorf("speed at step 0 = %v, want 0 (one-step delay)", got)
	}
	if got := tr.At(2).Number("speed"); got <= 0 {
		t.Errorf("speed at step 2 = %v, want > 0", got)
	}
}

// observeFunc adapts a closure to StateObserver.
type observeFunc func(temporal.State)

func (f observeFunc) Observe(st temporal.State) { f(st) }

func TestSimulationObserversAndStop(t *testing.T) {
	s := newCountingSim()
	var observed int
	s.Observe(observeFunc(func(temporal.State) { observed++ }))
	s.StopWhen(func(_ time.Duration, st temporal.State) bool { return st.Number("count") >= 5 })

	tr := s.Run(time.Second)
	if tr.Len() != 5 {
		t.Fatalf("early stop should truncate the trace at 5 steps, got %d", tr.Len())
	}
	if observed != 5 {
		t.Errorf("observers should run once per step, got %d", observed)
	}
}

func TestSimulationZeroDuration(t *testing.T) {
	s := New(time.Millisecond)
	tr := s.Run(0)
	if tr.Len() != 0 {
		t.Errorf("zero-duration run should produce an empty trace, got %d", tr.Len())
	}
}

// newCountingSim builds a simulation with one counter component, mirroring
// TestSimulationObserversAndStop, for the RunDiscard equivalence tests.
func newCountingSim() *Simulation {
	s := New(time.Millisecond)
	s.Bus.InitNumber("count", 0)
	count := s.Bus.NumVar("count")
	s.Add(StepFunc{ComponentName: "counter", Fn: func(time.Duration, *Bus) {
		count.Write(count.Read() + 1)
	}})
	return s
}

// TestRunDiscardMatchesRun checks that a discarding run executes the same
// steps, shows observers the same state sequence and reports the same final
// state as a retaining run — it only skips the per-step snapshots.
func TestRunDiscardMatchesRun(t *testing.T) {
	ref := newCountingSim()
	tr := ref.Run(10 * time.Millisecond)

	s := newCountingSim()
	var observed []float64
	s.Observe(observeFunc(func(st temporal.State) { observed = append(observed, st.Number("count")) }))
	steps, last := s.RunDiscard(10 * time.Millisecond)

	if steps != tr.Len() {
		t.Fatalf("RunDiscard executed %d steps, Run recorded %d", steps, tr.Len())
	}
	if len(observed) != tr.Len() {
		t.Fatalf("observers ran %d times, want %d", len(observed), tr.Len())
	}
	for i, v := range observed {
		if want := tr.At(i).Number("count"); v != want {
			t.Errorf("observed count at step %d = %v, want %v", i, v, want)
		}
	}
	if got, want := last.Number("count"), tr.Last().Number("count"); got != want {
		t.Errorf("final state count = %v, want %v", got, want)
	}
}

// TestRunDiscardStopAndLastIndependence checks early termination and that the
// returned final state does not alias the live bus.
func TestRunDiscardStopAndLastIndependence(t *testing.T) {
	s := newCountingSim()
	s.StopWhen(func(_ time.Duration, st temporal.State) bool { return st.Number("count") >= 5 })
	steps, last := s.RunDiscard(time.Second)
	if steps != 5 {
		t.Fatalf("early stop should halt after 5 steps, got %d", steps)
	}
	s.Bus.NumVar("count").Write(99)
	s.Bus.Commit()
	if last.Number("count") != 5 {
		t.Error("RunDiscard's final state must not alias the live bus state")
	}

	zero := New(time.Millisecond)
	if steps, last := zero.RunDiscard(0); steps != 0 || last != nil {
		t.Errorf("zero-duration discard run = (%d, %v), want (0, nil)", steps, last)
	}
}

// TestRunTraceSnapshotsIndependentOfLiveBus records a run longer than one
// trace chunk, with a signal interned mid-run, then mutates and resets the
// live bus: every recorded snapshot keeps the state it was committed with.
func TestRunTraceSnapshotsIndependentOfLiveBus(t *testing.T) {
	s := newCountingSim()
	s.Add(StepFunc{ComponentName: "late", Fn: func(now time.Duration, b *Bus) {
		b.BoolVar("odd").Write(int(b.NumVar("count").Read())%2 == 1)
		if now >= 700*time.Millisecond {
			b.StringVar("phase").Write("late") // interns "phase" mid-run
		}
	}})
	tr := s.Run(time.Second)
	s.Bus.NumVar("count").Write(-1)
	s.Bus.StringVar("phase").Write("mutated")
	s.Bus.Commit()
	s.Reset()
	if tr.Len() != 1000 {
		t.Fatalf("trace length = %d, want 1000", tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		st := tr.At(i)
		if got := st.Number("count"); got != float64(i+1) {
			t.Fatalf("snapshot %d: count = %v, want %d", i, got, i+1)
		}
		if got := st.Bool("odd"); got != (i%2 == 1) {
			t.Fatalf("snapshot %d: odd = %v", i, got)
		}
		if got, want := st.Has("phase"), i >= 700; got != want || (got && st.StringVal("phase") != "late") {
			t.Fatalf("snapshot %d: phase = %v, want present %v with \"late\"", i, st.Get("phase"), want)
		}
	}
}

// TestBusResetKeepsVocabularyAndHandles checks that Simulation.Reset clears
// every bus signal while keeping the schema and resolved slot handles valid,
// so a reused bus carries the next run without re-interning.
func TestBusResetKeepsVocabularyAndHandles(t *testing.T) {
	s := New(time.Millisecond)
	bus := s.Bus
	speed := bus.NumVar("speed")
	mode := bus.StringVar("mode")
	bus.InitNumber("speed", 7)
	bus.InitString("mode", "GO")

	before := bus.Schema().Len()
	s.Reset()
	if st := bus.Snapshot(); st.Has("speed") || st.Has("mode") {
		t.Fatal("signals survived Simulation.Reset")
	}
	if bus.Schema().Len() != before {
		t.Fatalf("schema width changed across Reset: %d != %d", bus.Schema().Len(), before)
	}

	// The pre-reset handles still address the same slots.
	speed.Write(3)
	mode.Write("STOP")
	bus.Commit()
	if got := speed.Read(); got != 3 {
		t.Errorf("handle read after Reset = %v, want 3", got)
	}
	if got := mode.Read(); got != "STOP" {
		t.Errorf("string handle read after Reset = %q, want STOP", got)
	}
}

// resettableCounter counts steps and implements Resetter.
type resettableCounter struct {
	steps int
}

func (c *resettableCounter) Step(_ time.Duration, bus *Bus) {
	c.steps++
	bus.NumVar("count").Write(float64(c.steps))
}
func (c *resettableCounter) Reset() { c.steps = 0 }

// TestSimulationResetRewindsComponentsAndBus checks that a reset simulation
// reproduces its first run exactly.
func TestSimulationResetRewindsComponentsAndBus(t *testing.T) {
	s := New(time.Millisecond)
	c := &resettableCounter{}
	s.Add(c)
	_, last1 := s.RunDiscard(5 * time.Millisecond)

	s.Reset()
	if s.Bus.Snapshot().Has("count") {
		t.Fatal("bus state survived Simulation.Reset")
	}
	_, last2 := s.RunDiscard(5 * time.Millisecond)
	if got, want := last2.Number("count"), last1.Number("count"); got != want {
		t.Errorf("second run after Reset ended at count %v, first run at %v", got, want)
	}
}

// TestSimulationReplacedBusPanics checks that a run refuses a Bus field that
// no longer is the simulation's own lane view: the kernel would step the
// components against the original bus and silently ignore the replacement.
func TestSimulationReplacedBusPanics(t *testing.T) {
	for name, run := range map[string]func(*Simulation){
		"Run":        func(s *Simulation) { s.Run(time.Millisecond) },
		"RunDiscard": func(s *Simulation) { s.RunDiscard(time.Millisecond) },
	} {
		s := New(time.Millisecond)
		s.Bus = NewBus()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Simulation.Bus was replaced") {
					t.Errorf("%s with a replaced Bus: recovered %q, want the replaced-bus panic", name, msg)
				}
			}()
			run(s)
		}()
	}
}
