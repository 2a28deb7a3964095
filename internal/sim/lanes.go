package sim

import (
	"time"

	"repro/internal/temporal"
)

// LaneBus is a lane-widened signal bus: one pair of double-buffered register
// files carrying N independent simulations' signals side by side, with a
// *Bus view per lane.  Components bound to lane l's view read and
// write only lane l of every slot's contiguous lane group, so K component
// sets drive K trajectories through one shared state — and one Commit, still
// a single pointer-free plane memmove, publishes all lanes at once.  The
// register files are never replaced, which is what keeps a bound handle's
// slot covered for the handle's life (see Bus.bind).
type LaneBus struct {
	schema      *temporal.Schema
	lanes       int
	current     temporal.State
	pending     temporal.State
	views       []*Bus
	stepSeconds float64 // the running LaneSim's period (Bus.StepSeconds)
}

// NewLaneBus returns a lane bus of the given width (clamped up to 1) with a
// fresh shared schema.
func NewLaneBus(lanes int) *LaneBus {
	if lanes < 1 {
		lanes = 1
	}
	schema := temporal.NewSchema()
	lb := &LaneBus{
		schema:  schema,
		lanes:   lanes,
		current: temporal.NewStateWithLanes(schema, lanes),
		pending: temporal.NewStateWithLanes(schema, lanes),
	}
	lb.views = make([]*Bus, lanes)
	for l := range lb.views {
		lb.views[l] = &Bus{lb: lb, lane: l}
	}
	return lb
}

// Lanes returns the lane width.
func (lb *LaneBus) Lanes() int { return lb.lanes }

// Schema returns the shared symbol table: all lanes intern the same signal
// vocabulary (and the same enumeration strings) once.
func (lb *LaneBus) Schema() *temporal.Schema { return lb.schema }

// Lane returns lane l's bus view.  The view is stable across runs;
// components bind their handles against it once.
func (lb *LaneBus) Lane(l int) *Bus { return lb.views[l] }

// State returns the committed lane-widened state, for lane-stepped observers
// (temporal.Program.StepLanes).  It is mutated in place by the next Commit.
func (lb *LaneBus) State() temporal.State { return lb.current }

// Commit publishes all lanes' buffered writes at once: a plane-by-plane
// memmove of the pending register file over the current one.  Unwritten
// lanes keep their previous value (hold semantics per lane).
func (lb *LaneBus) Commit() { lb.current.CopyFrom(lb.pending) }

// Reset clears both register files while keeping the schema, the interned
// vocabulary, the lane views and the plane capacity.
func (lb *LaneBus) Reset() {
	lb.current.Reset()
	lb.pending.Reset()
}

// LaneObserver consumes each committed lane-widened state of a lane-batched
// run, and is told when a lane stops early so it can close that lane's
// bookkeeping without desynchronizing the batch.  monitor.LaneSuite is the
// canonical implementation.
type LaneObserver interface {
	// ObserveLanes is invoked once per tick with the committed widened state.
	ObserveLanes(state temporal.State)
	// LaneStopped is invoked when a lane's stop predicate fires, after that
	// tick's ObserveLanes (the stopping step's state is still observed).
	LaneStopped(lane int)
}

// LaneSim steps K independent component sets in lockstep over one LaneBus:
// per tick, every active lane's components step against their own lane view,
// one Commit publishes all lanes, observers see the widened state once, and
// per-lane stop predicates retire lanes from the active mask individually.
// The per-step cost of commit, program step and observer dispatch is paid
// once per batch, not once per variant.  Its Run is the package's only
// per-tick loop; a Simulation is a LaneSim of width 1.
type LaneSim struct {
	// Period is the state period (1 ms by default, as in the thesis).
	Period time.Duration
	// Bus is the shared lane-widened signal bus.
	Bus *LaneBus

	components [][]Component
	observers  []LaneObserver
	stop       func(lane int, now time.Duration, state temporal.State) bool
	steps      []int
}

// NewLaneSim returns a lane simulation of the given width with the given
// state period (defaulting to the thesis' 1 ms when non-positive).
func NewLaneSim(period time.Duration, lanes int) *LaneSim {
	if period <= 0 {
		period = time.Millisecond
	}
	bus := NewLaneBus(lanes)
	return &LaneSim{
		Period:     period,
		Bus:        bus,
		components: make([][]Component, bus.Lanes()),
		steps:      make([]int, bus.Lanes()),
	}
}

// Lanes returns the lane width.
func (s *LaneSim) Lanes() int { return s.Bus.Lanes() }

// AddLane registers components on lane l; they are stepped in registration
// order against lane l's bus view.
func (s *LaneSim) AddLane(l int, cs ...Component) {
	s.components[l] = append(s.components[l], cs...)
}

// Observe registers a LaneObserver of every committed widened state.
func (s *LaneSim) Observe(obs LaneObserver) {
	s.observers = append(s.observers, obs)
}

// StopLaneWhen registers the per-lane early-termination predicate, evaluated
// on the committed widened state after every tick for each active lane.
func (s *LaneSim) StopLaneWhen(fn func(lane int, now time.Duration, state temporal.State) bool) {
	s.stop = fn
}

// Reset rewinds the lane simulation for another batch: the bus register
// files are cleared, every component implementing Resetter is restored, and
// the per-lane step counts are zeroed.  Observers and the stop predicate are
// kept.
func (s *LaneSim) Reset() {
	s.Bus.Reset()
	for _, lane := range s.components {
		for _, c := range lane {
			if r, ok := c.(Resetter); ok {
				r.Reset()
			}
		}
	}
	clear(s.steps)
}

// Steps returns the number of ticks lane l executed in the last Run (each
// Run counts from zero), including the tick its stop predicate fired on.
func (s *LaneSim) Steps(l int) int { return s.steps[l] }

// Run executes the batch for the given duration over the lanes of the active
// mask, recording nothing (observers receive the live widened state).  A lane whose stop predicate fires is retired from
// the mask — its components stop stepping and its signals freeze — without
// desynchronizing the remaining lanes.  Run returns the mask of lanes whose
// stop predicate fired.
func (s *LaneSim) Run(d time.Duration, active uint64) (stopped uint64) {
	lanes := s.Lanes()
	active &= uint64(1)<<uint(lanes) - 1
	total := int(d / s.Period)
	s.Bus.stepSeconds = s.Period.Seconds()
	clear(s.steps)
	for i := 0; i < total && active != 0; i++ {
		now := time.Duration(i) * s.Period
		for l := 0; l < lanes; l++ {
			if active&(1<<uint(l)) == 0 {
				continue
			}
			bus := s.Bus.views[l]
			for _, c := range s.components[l] {
				c.Step(now, bus)
			}
			s.steps[l]++
		}
		s.Bus.Commit()
		st := s.Bus.current
		for _, obs := range s.observers {
			obs.ObserveLanes(st)
		}
		if s.stop == nil {
			continue
		}
		for l := 0; l < lanes; l++ {
			bit := uint64(1) << uint(l)
			if active&bit != 0 && s.stop(l, now, st) {
				stopped |= bit
				active &^= bit
				for _, obs := range s.observers {
					obs.LaneStopped(l)
				}
			}
		}
	}
	return stopped
}
