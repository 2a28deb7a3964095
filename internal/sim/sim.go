// Package sim provides the fixed-step discrete-time simulation kernel used
// to evaluate the thesis' systems: the distributed elevator of Chapter 4 and
// the semi-autonomous vehicle of Chapter 5 (where it stands in for the
// CarSim/Simulink environment).
//
// Components exchange data through a Bus of named signals.  A value written
// during one step becomes visible to readers at the next step, matching the
// KAOS convention — used throughout the thesis — that monitored values are
// observed one state late.  The kernel records a temporal.Trace of the
// committed state at every step, which the monitor package and the figure
// extractors consume; RunDiscard skips the recording for callers that only
// need the observers' verdicts (e.g. summary-only scenario sweeps).
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
// The bus owns the run's temporal.Schema: every signal name is interned to a
// dense slot index once, and the double-buffered current/pending states are
// register files over that schema.  Hot components resolve their signals to
// typed handles (NumVar/BoolVar/StringVar) up front and read/write by slot;
// the name-keyed Read*/Write* methods remain as the schema-resolving
// compatibility path.
// A Bus may also be one lane's view of a lane-widened register file
// (LaneBus): the double-buffered states are then shared by all lanes and
// every slot access is routed to the view's lane of the slot's contiguous
// lane group.  Components are oblivious — a lane view is just a *Bus whose
// handles resolve to lane-strided physical indices.
type Bus struct {
	schema  *temporal.Schema
	current temporal.State
	pending temporal.State
	lanes   int // lane width of the backing states (0/1 = scalar bus)
	lane    int // which lane this view addresses
}

// NewBus returns an empty bus with a fresh schema.
func NewBus() *Bus {
	schema := temporal.NewSchema()
	return &Bus{
		schema:  schema,
		current: temporal.NewStateWith(schema),
		pending: temporal.NewStateWith(schema),
	}
}

// Schema returns the bus' symbol table, shared by every state snapshot of
// the run.  Monitors compiled against it resolve their atoms at compile
// time (temporal.NewProgram with this schema).
func (b *Bus) Schema() *temporal.Schema { return b.schema }

// physOf maps a schema slot onto the physical register index this bus view
// addresses: the identity for a scalar bus, the view's lane of the slot's
// lane group for a lane view.
func (b *Bus) physOf(slot int) int {
	if b.lanes > 1 {
		return slot*b.lanes + b.lane
	}
	return slot
}

// Read returns the visible value of a signal (invalid Value when absent).
func (b *Bus) Read(name string) temporal.Value {
	if i, ok := b.schema.Lookup(name); ok {
		return b.current.Slot(b.physOf(i))
	}
	return temporal.Value{}
}

// ReadNumber returns the visible numeric value of a signal (NaN if absent).
func (b *Bus) ReadNumber(name string) float64 { return b.Read(name).AsNumber() }

// ReadBool returns the visible boolean value of a signal.
func (b *Bus) ReadBool(name string) bool { return b.Read(name).AsBool() }

// ReadString returns the visible string value of a signal.
func (b *Bus) ReadString(name string) string { return b.Read(name).AsString() }

// Has reports whether the signal has a visible value.
func (b *Bus) Has(name string) bool { return b.Read(name).IsValid() }

// Write buffers a new value for a signal; it becomes visible next step.
func (b *Bus) Write(name string, v temporal.Value) {
	b.pending.SetSlot(b.physOf(b.schema.Intern(name)), v)
}

// WriteNumber buffers a numeric signal value.
func (b *Bus) WriteNumber(name string, f float64) {
	b.pending.SetSlotNumber(b.physOf(b.schema.Intern(name)), f)
}

// WriteBool buffers a boolean signal value.
func (b *Bus) WriteBool(name string, v bool) {
	b.pending.SetSlotBool(b.physOf(b.schema.Intern(name)), v)
}

// WriteString buffers a string signal value.
func (b *Bus) WriteString(name, s string) {
	b.pending.SetSlotString(b.physOf(b.schema.Intern(name)), s)
}

// Init sets a signal's initial value so that it is visible from the very
// first step.  Call before Simulation.Run.
func (b *Bus) Init(name string, v temporal.Value) {
	i := b.physOf(b.schema.Intern(name))
	b.current.SetSlot(i, v)
	b.pending.SetSlot(i, v)
}

// InitNumber initialises a numeric signal.
func (b *Bus) InitNumber(name string, f float64) { b.Init(name, temporal.Number(f)) }

// InitBool initialises a boolean signal.
func (b *Bus) InitBool(name string, v bool) { b.Init(name, temporal.Bool(v)) }

// InitString initialises a string signal.
func (b *Bus) InitString(name, s string) { b.Init(name, temporal.String(s)) }

// Commit makes all buffered writes visible: a plane-by-plane memmove of the
// pending register file over the current one.  Signals that were not written
// this step keep their previous value (hold semantics: once initialised or
// written, a signal's last value persists in the pending buffer).  The
// simulation kernel commits after each step; external drivers stepping
// components by hand call it directly.
func (b *Bus) Commit() { b.current.CopyFrom(b.pending) }

// Snapshot returns an independent copy of the visible state.
func (b *Bus) Snapshot() temporal.State { return b.current.Clone() }

// Reset clears both register files to the absent value while keeping the
// schema, the interned vocabulary and the plane capacity, so the same bus
// can carry run after run: slot handles, compiled monitors and enumeration
// ids resolved against the schema all stay valid, and the next run's Init
// calls write into already-sized planes.
func (b *Bus) Reset() {
	b.current.Reset()
	b.pending.Reset()
}

// NumVar is a slot-indexed handle to a numeric bus signal: Read observes the
// committed value (NaN when absent) and Write buffers the next value, with
// no per-access name resolution.
type NumVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// NumVar resolves a numeric signal to a typed handle, interning the name.
func (b *Bus) NumVar(name string) NumVar {
	return NumVar{read: b.current, write: b.pending, slot: b.physOf(b.schema.Intern(name))}
}

// Read returns the visible value of the signal (NaN when absent).
func (v NumVar) Read() float64 { return v.read.SlotNumber(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
func (v NumVar) Write(f float64) { v.write.SetSlotNumber(v.slot, f) }

// BoolVar is a slot-indexed handle to a boolean bus signal.
type BoolVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// BoolVar resolves a boolean signal to a typed handle, interning the name.
func (b *Bus) BoolVar(name string) BoolVar {
	return BoolVar{read: b.current, write: b.pending, slot: b.physOf(b.schema.Intern(name))}
}

// Read returns the visible value of the signal (false when absent).
func (v BoolVar) Read() bool { return v.read.SlotBool(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
func (v BoolVar) Write(x bool) { v.write.SetSlotBool(v.slot, x) }

// StringVar is a slot-indexed handle to a string (enumeration) bus signal.
type StringVar struct {
	read  temporal.State
	write temporal.State
	slot  int
}

// StringVar resolves a string signal to a typed handle, interning the name.
func (b *Bus) StringVar(name string) StringVar {
	return StringVar{read: b.current, write: b.pending, slot: b.physOf(b.schema.Intern(name))}
}

// Read returns the visible value of the signal ("" when absent).
func (v StringVar) Read() string { return v.read.SlotString(v.slot) }

// ReadID returns the interned enumeration id of the visible value (-1 when
// the signal does not hold a string): comparing it with an id from EnumID
// is Read() == s without a string compare.
func (v StringVar) ReadID() int32 { return v.read.SlotStringID(v.slot) }

// Write buffers a new value; it becomes visible after the next commit.
// Enumeration strings are interned in the bus schema, so a repeated write is
// a map read plus two plane stores.  Hot components bind their values' ids
// once with EnumID and use WriteID.
func (v StringVar) Write(s string) { v.write.SetSlotString(v.slot, s) }

// WriteID buffers an enumeration value by its interned id, which must come
// from EnumID on this bus (or any lane view sharing its schema): two plane
// stores, no map read.
func (v StringVar) WriteID(id int32) { v.write.SetSlotStringID(v.slot, id) }

// EnumID interns an enumeration value in the bus schema and returns its id.
// Ids are stable for the schema's lifetime — across Reset and shared by
// every lane view of a LaneBus — so a component interns its values once
// when it binds its handles and writes ids with StringVar.WriteID.
func (b *Bus) EnumID(s string) int32 { return b.schema.InternString(s) }

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

// Simulation is a fixed-step simulation of a set of components.
type Simulation struct {
	// Period is the state period (1 ms by default, as in the thesis).
	Period time.Duration
	// Bus is the shared signal bus.
	Bus *Bus

	components []Component
	observers  []func(now time.Duration, state temporal.State)
	stop       func(now time.Duration, state temporal.State) bool
}

// New returns a simulation with the given state period (defaulting to the
// thesis' 1 ms when non-positive).
func New(period time.Duration) *Simulation {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Simulation{Period: period, Bus: NewBus()}
}

// Add registers components; they are stepped in registration order.
func (s *Simulation) Add(cs ...Component) {
	s.components = append(s.components, cs...)
}

// OnStep registers an observer invoked with the committed state after every
// step (e.g. run-time goal monitors).  Observers must not mutate the state.
func (s *Simulation) OnStep(fn func(now time.Duration, state temporal.State)) {
	s.observers = append(s.observers, fn)
}

// StateObserver consumes each committed state of a run.  A whole monitor
// suite compiled to a shared evaluation program (monitor.CompiledSuite) is
// one StateObserver: the simulation hands it each state once and the program
// fans the verdicts out to every monitor internally.
type StateObserver interface {
	Observe(state temporal.State)
}

// Observe registers a StateObserver as a single observer of every committed
// state.
func (s *Simulation) Observe(obs StateObserver) {
	s.OnStep(func(_ time.Duration, st temporal.State) { obs.Observe(st) })
}

// StopWhen registers an early-termination predicate evaluated on the
// committed state after every step; the thesis' scenarios terminate early
// when the simulated vehicle model faults.
func (s *Simulation) StopWhen(fn func(now time.Duration, state temporal.State) bool) {
	s.stop = fn
}

// Reset rewinds the simulation for another run: both bus register files are
// cleared (keeping the schema, the interned vocabulary and the plane
// capacity) and every component implementing Resetter is restored to its
// initial conditions.  Registered observers and the stop predicate are kept;
// reusable observers (e.g. monitor.CompiledSuite) have their own Reset.
// Together with per-component reconfiguration this makes a whole simulation
// a reusable arena: the steady state of a sweep allocates nothing per step
// and only O(1) bookkeeping per run.
func (s *Simulation) Reset() {
	s.Bus.Reset()
	for _, c := range s.components {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
}

// Run executes the simulation for the given duration (or until the stop
// predicate fires) and returns the recorded trace of committed states.
func (s *Simulation) Run(d time.Duration) *temporal.Trace {
	trace, _, _ := s.run(d, true)
	return trace
}

// RunDiscard executes the simulation like Run but records no trace: observers
// and the stop predicate receive the live bus state instead of a per-step
// snapshot, so a run allocates O(1) state instead of O(steps).  It returns
// the number of executed steps and an independent copy of the final committed
// state.
//
// Observers registered on a discarding run must treat the state as valid only
// for the duration of the call: it is mutated in place by the next commit.
// Incremental monitors (temporal.Program, the reference temporal.Stepper and
// everything built on them) already satisfy this — they evaluate atoms
// immediately and retain only operator state — which is what makes
// trace-free sweeps possible.
func (s *Simulation) RunDiscard(d time.Duration) (steps int, last temporal.State) {
	_, steps, last = s.run(d, false)
	return steps, last
}

func (s *Simulation) run(d time.Duration, retain bool) (*temporal.Trace, int, temporal.State) {
	steps := int(d / s.Period)
	var trace *temporal.Trace
	if retain {
		trace = temporal.NewTraceWithCapacity(s.Period, steps)
	}
	executed := 0
	for i := 0; i < steps; i++ {
		now := time.Duration(i) * s.Period
		for _, c := range s.components {
			c.Step(now, s.Bus)
		}
		s.Bus.Commit()
		snapshot := s.Bus.current
		if retain {
			trace.AppendClone(snapshot)
			snapshot = trace.Last()
		}
		executed++
		for _, obs := range s.observers {
			obs(now, snapshot)
		}
		if s.stop != nil && s.stop(now, snapshot) {
			break
		}
	}
	var last temporal.State
	if retain {
		last = trace.Last()
	} else if executed > 0 {
		last = s.Bus.Snapshot()
	}
	return trace, executed, last
}
