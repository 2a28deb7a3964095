package scenarios

import (
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// laneArena is the one execution path of every scenario run: K independent
// vehicle component sets — one per lane, each bound to its own lane view of
// a shared lane-widened bus — stepped in lockstep by one sim.LaneSim and
// observed by one monitor.LaneSuite, whose lane program evaluates every
// goal formula for all lanes per tick.  A batch of up to `lanes` dynamics
// groups with equal scheduled duration runs as ONE widened simulation: one
// commit, one program step and one observer dispatch per tick instead of one
// per variant.  Lanes that collide are retired from the active mask
// individually (their intervals closed at their own step count), so an
// early-stopping variant never desynchronizes the batch.
//
// Every run uses a pooled arena, rewound between batches: width WithLanes
// for grouped summary-only sweeps, width 1 (one job per batch) otherwise.  A
// KeepTrace job is a one-lane batch that also records its trace (runTraced);
// its Result gets copies of the trace's schema and of the lane suite, so the
// arena goes on to the next job.  The independent check of this path is the
// tests' reference run: a scalar sim.Simulation observed by string-keyed
// reference Stepper monitors.
//
// A laneArena is not safe for concurrent use.
type laneArena struct {
	lanes int
	sim   *sim.LaneSim
	//lint:resetok configure reassigns every scenario parameter and defect flag absolutely before each batch; the components themselves are reset through LaneSim.Reset
	sets []*vehicleSet
	//lint:resetok the lane suite survives across batches (compiling the plan is the cost the arena amortizes); run rewinds it via LaneSuite.Reset before each batch
	suite *monitor.LaneSuite
	// rec records the committed states of a KeepTrace run; it is idle
	// (no trace) during every other batch.
	rec traceRecorder
	// collision is the stop-predicate slot (logical; lane l reads physical
	// index collision*lanes+l), resolved once per arena.
	collision int
}

// newLaneArena builds a lane-batched simulation at the given width whose
// hierarchies classify at the given matching tolerance: per-lane components
// constructed and bound once, the lane suite compiled and sealed once, the
// per-lane stop predicate registered once.
func newLaneArena(lanes, tolerance int) *laneArena {
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
		a.suite.MustAddHierarchy(spec.Parent, tolerance, spec.Children...)
	}
	if err := a.suite.Seal(); err != nil {
		// Every plan lane-steps at widths 1 to temporal.MaxLanes; failing
		// to seal is a programming error, not a data condition.
		panic(err)
	}
	a.sim.Observe(a.suite)
	a.sim.Observe(&a.rec)
	a.collision = a.sim.Bus.Schema().Intern(vehicle.SigCollision)
	for l, vs := range a.sets {
		vs.init.bind(a.sim.Bus.Lane(l))
	}
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
// out receives one Result per job, in group order then job order.  Groups
// beyond len(groups) lanes are the caller's problem; unused lanes stay inert
// for the batch.
func (a *laneArena) run(groups [][]Job, out []Result) {
	k := len(groups)
	a.sim.Reset()
	a.suite.Reset(k)
	for l := 0; l < k; l++ {
		lead := groups[l][0]
		a.sets[l].configure(lead.Scenario, lead.Options)
		a.sets[l].init.set(lead.Scenario)
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

// traceRecorder is every arena's recording observer: while trace is set (a
// KeepTrace run) it appends each committed state to it.
type traceRecorder struct{ trace *temporal.Trace }

// ObserveLanes implements sim.LaneObserver.
func (r *traceRecorder) ObserveLanes(st temporal.State) {
	if r.trace != nil {
		r.trace.Append(st)
	}
}

// LaneStopped implements sim.LaneObserver; the run simply ends.
func (r *traceRecorder) LaneStopped(int) {}

// runTraced executes one KeepTrace job as a one-lane batch on a width-1
// arena, recording every committed state into a fresh trace.  The arena
// runs other jobs afterwards, so the Result gets copies it owns: the trace
// reads against a private clone of the arena's schema, and the suite is a
// clone of the lane's suite at the job's tolerance, whose classification
// supplies the detections.
func (a *laneArena) runTraced(job Job) Result {
	a.rec.trace = temporal.NewTraceWithCapacity(Period, int(job.Scenario.ScheduledDuration()/Period))
	var out [1]Result
	a.run([][]Job{{job}}, out[:])
	res := out[0]
	res.Trace, a.rec.trace = a.rec.trace, nil
	schema := a.sim.Bus.Schema()
	res.Trace.ReplaceSchema(schema, schema.Clone())
	res.Suite = a.suite.LaneSuiteOf(0).Clone(job.Options.tolerance())
	// ClassifyAll materializes the detections; its summary equals the
	// counted one run just computed.
	res.Detections, res.Summary = res.Suite.ClassifyAll()
	return res
}
