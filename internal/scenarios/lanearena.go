package scenarios

import (
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// laneArena is the Engine's reusable summary-only simulation: K independent
// vehicle component sets — one per lane, each bound to its own lane view of
// a shared lane-widened bus — stepped in lockstep by one sim.LaneSim and
// observed by one monitor.LaneSuite, whose lane program evaluates every
// goal formula for all lanes per tick.  A batch of up to `lanes` dynamics
// groups with equal scheduled duration runs as ONE widened simulation: one
// commit, one program step and one observer dispatch per tick instead of one
// per variant.  Lanes that collide are retired from the active mask
// individually (their intervals closed at their own step count), so an
// early-stopping variant never desynchronizes the batch.  Every grouped
// summary-only run executes here: at width 1, and for a batch with a single
// group, the batch simply has one active lane.
//
// A laneArena is built once per worker and rewound between batches; it is
// not safe for concurrent use.
type laneArena struct {
	lanes int
	sim   *sim.LaneSim
	//lint:resetok configure reassigns every scenario parameter and defect flag absolutely before each batch; the components themselves are reset through LaneSim.Reset
	sets []*vehicleSet
	//lint:resetok the lane suite survives across batches (compiling the plan is the cost the arena amortizes); run rewinds it via LaneSuite.Reset before each batch
	suite *monitor.LaneSuite
	// collision is the stop-predicate slot (logical; lane l reads physical
	// index collision*lanes+l), resolved once per arena.
	collision int
}

// newLaneArena builds the reusable lane-batched simulation at the given
// width: per-lane components constructed and bound once, the lane suite
// compiled and sealed once, the per-lane stop predicate registered once.
func newLaneArena(lanes int) *laneArena {
	a := &laneArena{lanes: lanes}
	a.sim = sim.NewLaneSim(Period, lanes)
	a.sets = make([]*vehicleSet, lanes)
	for l := range a.sets {
		a.sets[l] = newVehicleSet()
		components := a.sets[l].components()
		vehicle.BindAll(a.sim.Bus.Lane(l), components...)
		a.sim.AddLane(l, components...)
	}
	a.suite = monitor.NewLaneSuite(Period, a.sim.Bus.Schema(), lanes)
	for _, spec := range monitoringPlan() {
		a.suite.MustAddHierarchy(spec.Parent, matchTolerance, spec.Children...)
	}
	if err := a.suite.Seal(); err != nil {
		// The vehicle plan contains no predicate atoms; failing to seal is a
		// programming error, not a data condition.
		panic(err)
	}
	a.sim.Observe(a.suite)
	a.collision = a.sim.Bus.Schema().Intern(vehicle.SigCollision)
	a.sim.StopLaneWhen(func(lane int, _ time.Duration, st temporal.State) bool {
		return st.SlotBool(a.collision*lanes + lane)
	})
	return a
}

// run executes a lane batch: groups[l] is one dynamics group (jobs sharing a
// DynamicsKey) assigned to lane l, every group scheduled for the same
// duration.  The group's trajectory is simulated once and each job's summary
// is classified from the lane's recorded violation intervals at that job's
// own tolerance (FastSummaryAt) — sound because the tolerance parameterizes
// only the final interval matching, never which intervals a run records.
// out receives one Result per job, in group order then job order, exactly
// what runJob would produce for each job on its own.  Groups beyond
// len(groups) lanes are the caller's problem; unused lanes stay inert for
// the batch.
func (a *laneArena) run(groups [][]Job, out []Result) {
	k := len(groups)
	a.sim.Reset()
	a.suite.Reset(k)
	for l := 0; l < k; l++ {
		lead := groups[l][0]
		a.sets[l].configure(lead.Scenario, lead.Options)
		initVehicleBus(a.sim.Bus.Lane(l), lead.Scenario)
	}
	stopped := a.sim.Run(groups[0][0].Scenario.ScheduledDuration(), uint64(1)<<uint(k)-1)
	a.suite.Finish()

	idx := 0
	for l := 0; l < k; l++ {
		steps := a.sim.Steps(l)
		collision := stopped&(uint64(1)<<uint(l)) != 0
		for _, j := range groups[l] {
			jsc := j.Scenario
			jsc.Duration = jsc.ScheduledDuration()
			out[idx] = Result{
				Scenario:  jsc,
				Steps:     steps,
				Summary:   a.suite.FastSummaryAt(l, j.Options.tolerance()),
				Collision: collision,
			}
			idx++
		}
	}
}
