// Package sim provides the fixed-step discrete-time simulation kernel used
// to evaluate the thesis' systems: the distributed elevator of Chapter 4 and
// the semi-autonomous vehicle of Chapter 5 (where it stands in for the
// CarSim/Simulink environment).
//
// Components exchange data through a Bus of named signals.  A value written
// during one step becomes visible to readers at the next step, matching the
// KAOS convention — used throughout the thesis — that monitored values are
// observed one state late.  Components resolve each signal once into a typed
// handle (NumVar, BoolVar, StringVar); binding covers the handle's slot in
// both register files, so every later NumVar/BoolVar Read or Write and
// StringVar ReadID or WriteID is one unchecked plane load or store, inlined
// at the call site.
//
// The one per-tick loop is LaneSim.Run, which steps K independent component
// sets in lockstep over one lane-widened LaneBus.  A Simulation is that
// kernel at width 1: its Run records a temporal.Trace of the committed state
// at every step, which the monitor package and the figure extractors
// consume; RunDiscard skips the recording for callers that only need the
// observers' verdicts.
package sim

import (
	"time"

	"repro/internal/temporal"
)

// Component is a simulated subsystem that is stepped once per state period.
type Component interface {
	// Name identifies the component (used for diagnostics).
	Name() string
	// Step advances the component by one state period.  The component
	// reads the bus values committed at the previous step and writes its
	// outputs for the next step.
	Step(now time.Duration, bus *Bus)
}

// Bus is the shared-variable / network abstraction between components.
// Reads observe the values committed at the end of the previous step; writes
// are buffered and become visible after the current step commits.
//
// A Bus is one lane's view of a LaneBus: the double-buffered register files
// and the run's temporal.Schema belong to the LaneBus, and every slot access
// is routed to the view's lane of the slot's contiguous lane group
// (slot*lanes + lane; the identity at width 1).  Components resolve their
// signals to typed handles (NumVar/BoolVar/StringVar) once and read/write by
// slot; they are oblivious to the lane width.
type Bus struct {
	lb   *LaneBus
	lane int
}

// NewBus returns the only lane view of a fresh width-1 LaneBus, for
// components stepped by hand outside a Simulation.
func NewBus() *Bus { return NewLaneBus(1).Lane(0) }

// Schema returns the bus' symbol table, shared by every state snapshot of
// the run.  Monitors compiled against it resolve their atoms at compile
// time (temporal.NewProgram with this schema).
func (b *Bus) Schema() *temporal.Schema { return b.lb.schema }

// physOf maps a schema slot onto the register index this view addresses.
func (b *Bus) physOf(slot int) int { return slot*b.lb.lanes + b.lane }

// Init sets a signal's initial value so that it is visible from the very
// first step.  Call before Simulation.Run.
func (b *Bus) Init(name string, v temporal.Value) {
	i := b.physOf(b.lb.schema.Intern(name))
	b.lb.current.SetSlot(i, v)
	b.lb.pending.SetSlot(i, v)
}

// InitNumber initialises a numeric signal.
func (b *Bus) InitNumber(name string, f float64) { b.Init(name, temporal.Number(f)) }

// InitBool initialises a boolean signal.
func (b *Bus) InitBool(name string, v bool) { b.Init(name, temporal.Bool(v)) }

// InitString initialises a string signal.
func (b *Bus) InitString(name, s string) { b.Init(name, temporal.String(s)) }

// Commit makes the buffered writes of every lane of the backing LaneBus
// visible (LaneBus.Commit).  The simulation kernel commits after each step;
// external drivers stepping components by hand call it directly.
func (b *Bus) Commit() { b.lb.Commit() }

// Snapshot returns an independent copy of the visible state (every lane of
// the backing LaneBus; at width 1, exactly this bus' signals).
func (b *Bus) Snapshot() temporal.State { return b.lb.current.Clone() }

// bind resolves a signal name to this view's register index and covers it in
// both register files (temporal.Registers.Cover).  The LaneBus never
// replaces its register files and their planes never shrink, so the index
// stays in range for the handle's whole life: later interning may reallocate
// the planes, but a handle holds the register files, not the planes.  That
// is what lets the handle methods below use the unchecked plane accessors.
func (b *Bus) bind(name string) (read, write temporal.State, slot int) {
	slot = b.physOf(b.lb.schema.Intern(name))
	b.lb.current.Cover()
	b.lb.pending.Cover()
	return b.lb.current, b.lb.pending, slot
}

// NumVar is a slot-indexed handle to a numeric bus signal: Read observes the
// committed value (NaN when absent) and Write buffers the next value, with
// no per-access name resolution.  Both compile to one plane load or store
// at the call site.
type NumVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// NumVar resolves a numeric signal to a typed handle, interning the name.
func (b *Bus) NumVar(name string) NumVar {
	r, w, slot := b.bind(name)
	return NumVar{read: r, write: w, slot: slot}
}

// Read returns the visible value of the signal (NaN when absent).
func (v NumVar) Read() float64 { return v.read.LoadNumber(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
func (v NumVar) Write(f float64) { v.write.StoreNumber(v.slot, f) }

// BoolVar is a slot-indexed handle to a boolean bus signal.
type BoolVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// BoolVar resolves a boolean signal to a typed handle, interning the name.
func (b *Bus) BoolVar(name string) BoolVar {
	r, w, slot := b.bind(name)
	return BoolVar{read: r, write: w, slot: slot}
}

// Read returns the visible value of the signal (false when absent).
func (v BoolVar) Read() bool { return v.read.LoadBool(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
func (v BoolVar) Write(x bool) { v.write.StoreBool(v.slot, x) }

// StringVar is a slot-indexed handle to a string (enumeration) bus signal.
type StringVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// StringVar resolves a string signal to a typed handle, interning the name.
func (b *Bus) StringVar(name string) StringVar {
	r, w, slot := b.bind(name)
	return StringVar{read: r, write: w, slot: slot}
}

// Read returns the visible value of the signal ("" when absent).
func (v StringVar) Read() string { return v.read.SlotString(v.slot) }

// ReadID returns the interned enumeration id of the visible value (-1 when
// the signal does not hold a string): comparing it with an id from EnumID
// is Read() == s without a string compare.
func (v StringVar) ReadID() int32 { return v.read.LoadStringID(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
// Enumeration strings are interned in the bus schema, so a repeated write is
// a map read plus two plane stores.  Hot components bind their values' ids
// once with EnumID and use WriteID.
func (v StringVar) Write(s string) { v.write.SetSlotString(v.slot, s) }

// WriteID buffers an enumeration value by its interned id, which must come
// from EnumID on this bus (or any lane view sharing its schema): two plane
// stores, no map read.
func (v StringVar) WriteID(id int32) { v.write.StoreStringID(v.slot, id) }

// EnumID interns an enumeration value in the bus schema and returns its id.
// Ids are stable for the schema's lifetime — across Reset and shared by
// every lane view of a LaneBus — so a component interns its values once
// when it binds its handles and writes ids with StringVar.WriteID.
func (b *Bus) EnumID(s string) int32 { return b.lb.schema.InternString(s) }

// Resetter is implemented by components that can rewind themselves to their
// initial conditions, so a fully built simulation — bus, schema, resolved
// handles, component set and observers — can be reused run after run
// (Simulation.Reset) instead of being reconstructed per run.
type Resetter interface {
	// Reset restores the component to its pre-first-Step state.  Scenario
	// configuration (schedules, defect flags, initial speeds) is a field
	// assignment and is not touched; callers reconfigure after Reset.
	Reset()
}

// StepFunc adapts a plain function into a Component.
type StepFunc struct {
	// ComponentName is the reported name.
	ComponentName string
	// Fn is invoked once per step.
	Fn func(now time.Duration, bus *Bus)
}

// Name implements Component.
func (s StepFunc) Name() string { return s.ComponentName }

// Step implements Component.
func (s StepFunc) Step(now time.Duration, bus *Bus) { s.Fn(now, bus) }

// Simulation is a fixed-step simulation of one component set: the lane
// kernel (LaneSim) at width 1, plus what a single run adds on top of it —
// per-step trace recording (Run) and scalar observers and stop predicates.
type Simulation struct {
	// Period is the state period (1 ms by default, as in the thesis).
	Period time.Duration
	// Bus is the shared signal bus: the kernel's only lane view.  Initialise
	// it in place; Run and RunDiscard panic when it has been replaced.
	Bus *Bus

	kernel *LaneSim
	rec    recorder
}

// New returns a simulation with the given state period (defaulting to the
// thesis' 1 ms when non-positive).
func New(period time.Duration) *Simulation {
	k := NewLaneSim(period, 1)
	s := &Simulation{Period: k.Period, Bus: k.Bus.Lane(0), kernel: k}
	k.Observe(&s.rec)
	return s
}

// Add registers components; they are stepped in registration order.
func (s *Simulation) Add(cs ...Component) { s.kernel.AddLane(0, cs...) }

// StateObserver consumes each committed state of a run.  A whole monitor
// suite compiled to a shared evaluation program (monitor.CompiledSuite) is
// one StateObserver: the simulation hands it each state once and the program
// fans the verdicts out to every monitor internally.  Observers must not
// mutate the state, and may read it only during the call: it is the live
// committed state, which the next step overwrites.
type StateObserver interface {
	Observe(state temporal.State)
}

// Observe registers a StateObserver of every committed state.
func (s *Simulation) Observe(obs StateObserver) {
	s.rec.observers = append(s.rec.observers, obs)
}

// StopWhen registers an early-termination predicate evaluated on the
// committed state after every step; the thesis' scenarios terminate early
// when the simulated vehicle model faults.
func (s *Simulation) StopWhen(fn func(now time.Duration, state temporal.State) bool) {
	s.kernel.StopLaneWhen(func(_ int, now time.Duration, st temporal.State) bool {
		return fn(now, st)
	})
}

// Reset rewinds the simulation for another run: the bus register files are
// cleared (keeping the schema, the interned vocabulary and the plane
// capacity) and every component implementing Resetter is restored to its
// initial conditions.  Registered observers and the stop predicate are kept;
// reusable observers (e.g. monitor.CompiledSuite) have their own Reset.
// Together with per-component reconfiguration this makes a whole simulation
// a reusable arena: the steady state of a sweep allocates nothing per step
// and only O(1) bookkeeping per run.
func (s *Simulation) Reset() {
	s.kernel.Reset()
	s.rec.Reset()
}

// Run executes the simulation for the given duration (or until the stop
// predicate fires) and returns the recorded trace of committed states.
// Observers and the stop predicate receive the live committed state, as
// under RunDiscard: it is valid only for the duration of the call, and the
// trace keeps the record (read it back with Trace.At or Trace.Walk).
func (s *Simulation) Run(d time.Duration) *temporal.Trace {
	trace := temporal.NewTraceWithCapacity(s.Period, int(d/s.Period))
	s.rec.trace = trace
	s.drive(d)
	return trace
}

// RunDiscard executes the simulation like Run but records no trace, so a run
// allocates O(1) state instead of O(steps).  It returns the number of
// executed steps and an independent copy of the final committed state (nil
// when no step ran).
//
// Observers of either kind of run must treat the state as valid only for
// the duration of the call: it is mutated in place by the next commit.
// Incremental monitors (temporal.Program, the reference temporal.Stepper and
// everything built on them) already satisfy this — they evaluate atoms
// immediately and retain only operator state — which is what makes
// trace-free sweeps possible.
func (s *Simulation) RunDiscard(d time.Duration) (steps int, last temporal.State) {
	s.drive(d)
	if steps = s.kernel.Steps(0); steps > 0 {
		last = s.Bus.Snapshot()
	}
	return steps, last
}

// drive runs the width-1 kernel for d and then drops the run's recording.
func (s *Simulation) drive(d time.Duration) {
	if s.Bus != s.kernel.Bus.Lane(0) {
		panic("sim: Simulation.Bus was replaced; initialise the bus sim.New built instead")
	}
	s.kernel.Period = s.Period
	s.kernel.Run(d, 1)
	s.rec.Reset()
}

// recorder is a Simulation's width-1 LaneObserver: it records each committed
// state into the running trace, if any, and hands the live state to the
// scalar observers and the stop predicate.
type recorder struct {
	observers []StateObserver
	trace     *temporal.Trace // the trace Run is recording; nil under RunDiscard
}

// ObserveLanes implements LaneObserver.
func (r *recorder) ObserveLanes(st temporal.State) {
	if r.trace != nil {
		r.trace.Append(st)
	}
	for _, obs := range r.observers {
		obs.Observe(st)
	}
}

// LaneStopped implements LaneObserver; the kernel ends a one-lane run when
// its only lane stops.
func (r *recorder) LaneStopped(int) {}

// Reset drops the per-run recording state; the observers stay registered.
func (r *recorder) Reset() { r.trace = nil }
