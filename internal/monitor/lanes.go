package monitor

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/temporal"
)

// LaneSuite is a monitor suite evaluated over N independent runs in lockstep:
// one shared temporal.Program in lane mode (StepLanes) produces a per-lane
// verdict mask per goal formula per tick, and the suite folds those masks
// into per-lane violation intervals feeding N ordinary per-lane Suites for
// classification.  Observing a widened state costs one program pass plus a
// handful of word operations per goal — interval bookkeeping runs only on
// ticks where some lane's verdict actually changed, which for the thesis'
// goals is a few dozen transitions over a 20 000-step run.
//
// The fold is change-driven: the program reports which taps' masks changed
// this step (every tap after a full pass), and a node-to-tap table built at
// Seal leads from each of those to the monitors reading it, so a tick whose
// verdicts all held touches no per-tap state at all.
//
// Lanes correspond to scenario variants with different trajectories; each
// lane's recorded intervals (and its FastSummaryAt classification) are
// step-for-step identical to observing that lane's run with a per-monitor
// reference suite.  Width 1 over scalar states is CompiledSuite.  A
// LaneSuite is reusable across batches via Reset and is not safe for
// concurrent use.
type LaneSuite struct {
	period  time.Duration
	lanes   int
	program *temporal.Program
	//lint:resetok Seal latches the suite into lane mode once; batches reuse the sealed program rather than recompiling
	sealed bool

	//lint:resetok per-lane classification suites are construction state; Reset rewinds their monitors' recorders through the monitors slice
	suites []*Suite
	// monitors[i][l] records tap i's violations on lane l.
	monitors [][]*Monitor
	//lint:resetok program output taps are assigned at compile time and never move
	taps []temporal.Tap

	// Seal sizes these: viol is the per-tap mask of lanes currently inside
	// a violation, starts[i*lanes+l] tap i's open-interval start step on
	// lane l, and tapOf[tapAt[n]:tapAt[n+1]] the taps (indices into taps)
	// that read program node n.
	viol   []uint64
	starts []int32
	//lint:resetok the node-to-tap table is built once at Seal from the taps, which never move
	tapAt []int32
	//lint:resetok the node-to-tap table is built once at Seal from the taps, which never move
	tapOf     []int32
	laneSteps []int  // per-lane observed step count
	active    uint64 // lanes still contributing
}

// NewLaneSuite returns an empty lane suite of the given width.  The period
// converts bounded-past operator durations (non-positive defaults to 1 ms);
// the schema resolves every goal atom to its register slot at compile time.
// Register hierarchies with AddHierarchy, then Seal before observing.
func NewLaneSuite(period time.Duration, schema *temporal.Schema, lanes int) *LaneSuite {
	if period <= 0 {
		period = time.Millisecond
	}
	ls := &LaneSuite{
		period:    period,
		lanes:     lanes,
		program:   temporal.NewProgram(period, schema),
		laneSteps: make([]int, lanes),
	}
	ls.suites = make([]*Suite, lanes)
	for l := range ls.suites {
		ls.suites[l] = NewSuite()
	}
	return ls
}

// AddHierarchy compiles a parent goal and its subgoals into the shared lane
// program and registers the hierarchy — with per-lane interval recorders —
// at the given matching tolerance.  On error nothing is registered: every
// goal is validated before any of them is compiled into the shared program.
func (ls *LaneSuite) AddHierarchy(parent GoalAt, tolerance int, children ...GoalAt) error {
	if ls.sealed {
		return fmt.Errorf("monitor: AddHierarchy on a sealed suite (a LaneSuite seals in Seal, a CompiledSuite on its first Observe or Reset)")
	}
	all := make([]GoalAt, 0, 1+len(children))
	all = append(all, parent)
	all = append(all, children...)

	for _, g := range all {
		if g.Goal.Formal == nil {
			return fmt.Errorf("monitor: goal %q has no formal definition", g.Goal.Name)
		}
		if !temporal.IsPastTime(g.Goal.Formal) {
			return fmt.Errorf("monitor: goal %q: formula %q contains future-time operators and cannot be compiled to a run-time monitor",
				g.Goal.Name, g.Goal.Formal)
		}
	}

	perLane := make([][]*Monitor, ls.lanes) // [lane][goal]
	for l := range perLane {
		perLane[l] = make([]*Monitor, len(all))
	}
	for i, g := range all {
		tap, err := ls.program.Add(g.Goal.Formal)
		if err != nil {
			return fmt.Errorf("monitor: goal %q: %w", g.Goal.Name, err)
		}
		row := make([]*Monitor, ls.lanes)
		for l := 0; l < ls.lanes; l++ {
			row[l] = &Monitor{Goal: g.Goal, Location: g.Location, period: ls.period}
			perLane[l][i] = row[l]
		}
		ls.monitors = append(ls.monitors, row)
		ls.taps = append(ls.taps, tap)
	}
	for l := 0; l < ls.lanes; l++ {
		ls.suites[l].Add(NewHierarchy(perLane[l][0], tolerance, perLane[l][1:]...))
	}
	return nil
}

// MustAddHierarchy is like AddHierarchy but panics on error; for statically
// known monitoring plans.
func (ls *LaneSuite) MustAddHierarchy(parent GoalAt, tolerance int, children ...GoalAt) {
	if err := ls.AddHierarchy(parent, tolerance, children...); err != nil {
		panic(err)
	}
}

// Seal switches the shared program into lane mode and sizes the interval
// bookkeeping; no further hierarchies can be added.  It fails when the width
// is out of range.
func (ls *LaneSuite) Seal() error {
	if err := ls.program.SetLanes(ls.lanes); err != nil {
		return err
	}
	nt, nodes := len(ls.taps), ls.program.Stats().Nodes
	ls.viol = make([]uint64, nt)
	tables := make([]int32, nt*ls.lanes+nodes+1+nt)
	ls.starts, tables = tables[:nt*ls.lanes], tables[nt*ls.lanes:]
	ls.tapAt, ls.tapOf = tables[:nodes+1], tables[nodes+1:]
	// Counting sort of the taps by node: tapAt[n+1] counts node n's taps,
	// then the prefix sums place them.
	for _, tap := range ls.taps {
		ls.tapAt[tap+1]++
	}
	for n := 0; n < nodes; n++ {
		ls.tapAt[n+1] += ls.tapAt[n]
	}
	for i, tap := range ls.taps {
		ls.tapOf[ls.tapAt[tap]] = int32(i)
		ls.tapAt[tap]++
	}
	copy(ls.tapAt[1:], ls.tapAt[:nodes])
	ls.tapAt[0] = 0
	ls.sealed = true
	ls.active = uint64(1)<<uint(ls.lanes) - 1
	return nil
}

// Reset rewinds the lane suite for the next batch, with the low activeCount
// lanes marked active: program operator state, every lane's recorded
// intervals, the open-interval masks and the per-lane step counts are all
// cleared.  Lanes at or beyond activeCount are inert until the next Reset.
func (ls *LaneSuite) Reset(activeCount int) {
	ls.program.Reset()
	for _, row := range ls.monitors {
		for _, m := range row {
			m.Reset()
		}
	}
	clear(ls.viol)
	clear(ls.starts)
	clear(ls.laneSteps)
	if activeCount < 0 {
		activeCount = 0
	}
	if activeCount > ls.lanes {
		activeCount = ls.lanes
	}
	ls.active = uint64(1)<<uint(activeCount) - 1
}

// ObserveLanes implements sim.LaneObserver: it advances the lane program one
// widened state and folds the per-lane verdict mask of every tap the program
// reports changed into the per-lane violation intervals.  A tap whose mask
// held keeps its violating lanes: the fold of an unchanged mask is a no-op,
// also after a lane stopped (closeLane clears the lane from both masks).
// Only taps whose violating-lane mask changed touch any per-lane state.
func (ls *LaneSuite) ObserveLanes(st temporal.State) {
	ls.program.StepLanes(st)
	active := ls.active
	lanes := ls.lanes
	for _, node := range ls.program.ChangedTaps() {
		// A set verdict bit means the goal holds on that lane; violating
		// lanes are the active lanes whose bit is clear.
		v := ^ls.program.OutputMask(node) & active
		for _, i := range ls.tapOf[ls.tapAt[node]:ls.tapAt[node+1]] {
			diff := (v ^ ls.viol[i]) & active
			if diff == 0 {
				continue
			}
			starts := ls.starts[int(i)*lanes : int(i+1)*lanes]
			row := ls.monitors[i]
			for d := diff; d != 0; d &= d - 1 {
				l := bits.TrailingZeros64(d)
				if v&(1<<uint(l)) != 0 {
					starts[l] = int32(ls.laneSteps[l])
				} else {
					m := row[l]
					m.violations = append(m.violations, Interval{Start: int(starts[l]), End: ls.laneSteps[l]})
				}
			}
			ls.viol[i] = (ls.viol[i] &^ active) | v
		}
	}
	for a := active; a != 0; a &= a - 1 {
		ls.laneSteps[bits.TrailingZeros64(a)]++
	}
}

// LaneStopped implements sim.LaneObserver: the lane's open violation
// intervals are closed at its final step count — exactly what a scalar run's
// Finish does when the simulation stops early — and the lane is retired from
// the active mask.
func (ls *LaneSuite) LaneStopped(lane int) { ls.closeLane(lane) }

func (ls *LaneSuite) closeLane(lane int) {
	bit := uint64(1) << uint(lane)
	if ls.active&bit == 0 {
		return
	}
	end := ls.laneSteps[lane]
	for i := range ls.taps {
		if ls.viol[i]&bit != 0 {
			m := ls.monitors[i][lane]
			m.violations = append(m.violations, Interval{Start: int(ls.starts[i*ls.lanes+lane]), End: end})
			ls.viol[i] &^= bit
		}
	}
	ls.active &^= bit
}

// Finish closes every remaining lane's open violation intervals, mirroring
// Suite.Finish at the end of a batch.
func (ls *LaneSuite) Finish() {
	for a := ls.active; a != 0; a &= a - 1 {
		ls.closeLane(bits.TrailingZeros64(a))
	}
}

// FastSummaryAt computes one lane's classification summary at an explicit
// matching tolerance; see Suite.FastSummaryAt.  Call after Finish (or after
// the lane stopped).
func (ls *LaneSuite) FastSummaryAt(lane, tolerance int) Summary {
	return ls.suites[lane].FastSummaryAt(tolerance)
}

// LaneSuiteOf returns lane l's classification suite, for reporting and
// differential tests.  Its monitors are lane-fed: Observe on them panics.
func (ls *LaneSuite) LaneSuiteOf(l int) *Suite { return ls.suites[l] }

// Program returns the shared lane program, exposing its sharing statistics.
func (ls *LaneSuite) Program() *temporal.Program { return ls.program }
