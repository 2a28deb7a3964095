package scenarios

import (
	"strconv"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// Period is the simulation state period used by the evaluation (1 ms, as in
// the thesis).
const Period = time.Millisecond

// DefaultDuration is the scheduled simulation time a zero-valued
// Scenario.Duration resolves to (20 s, as in the thesis); see
// Scenario.ScheduledDuration.
const DefaultDuration = 20 * time.Second

// Scenario is one of the ten evaluation scenarios of thesis Section 5.4.
//
// The JSON shape is part of the distributed wire contract (internal/dist):
// field order is declaration order and every value round-trips
// byte-identically through encoding/json, so a coordinator can re-emit a
// scenario it parsed without disturbing a byte-for-byte diff.
type Scenario struct {
	// Number is the thesis scenario number (1–10).
	Number int `json:"number"`
	// Name is a short identifier.
	Name string `json:"name"`
	// Description is the thesis' scenario description.
	Description string `json:"description,omitempty"`
	// Duration is the scheduled simulation time (20 s in the thesis); runs
	// terminate early on a collision, as the thesis' runs terminated early
	// on vehicle-model faults.
	Duration time.Duration `json:"duration"`

	// InitialSpeed is the host vehicle's speed at the start, in m/s
	// (negative for reverse motion).
	InitialSpeed float64 `json:"initial_speed"`
	// Gear is the transmission gear at the start ("D" or "R").
	Gear string `json:"gear"`
	// ObjectDistance and ObjectSpeed place a target vehicle relative to
	// the host (positive distance ahead, negative behind).
	ObjectDistance float64 `json:"object_distance"`
	ObjectSpeed    float64 `json:"object_speed"`

	// Driver is the driver/HMI input schedule.
	Driver []vehicle.DriverAction `json:"driver,omitempty"`

	// ACCDirectionCheck restores the gear check in ACC engagement (the
	// thesis implementation accepted engagement in reverse, so the check
	// is off by default).
	ACCDirectionCheck bool `json:"acc_direction_check,omitempty"`
}

// ScheduledDuration is the simulated time the scenario is scheduled for: its
// Duration, or DefaultDuration when that is not positive.  Every execution
// path, identity key and rebuilt result normalizes the run length through it.
func (sc Scenario) ScheduledDuration() time.Duration {
	if sc.Duration <= 0 {
		return DefaultDuration
	}
	return sc.Duration
}

// Result is the outcome of one monitored scenario run.
//
// A marshalled Result is the summary projection: the trace, suite and
// detections are excluded ("-") whatever the retention policy, so the JSON
// form is exactly the state a SummaryOnly run retains, and it survives
// marshal → unmarshal → marshal byte-identically — the diff-stability the
// distributed coordinator's re-emission and seed files depend on
// (TestResultJSONRoundTrip).
type Result struct {
	// Scenario is the configuration that was run.
	Scenario Scenario `json:"scenario"`
	// Steps is the number of simulation steps executed.  Unlike Trace, it
	// survives every retention policy.
	Steps int `json:"steps"`
	// Trace is the recorded state trace (nil under SummaryOnly retention).
	Trace *temporal.Trace `json:"-"`
	// Suite holds the goal and subgoal monitors after the run (nil under
	// SummaryOnly retention).  Its monitors are program-fed interval
	// recorders: classification and reporting work as always, but they
	// cannot Observe further states themselves.
	Suite *monitor.Suite `json:"-"`
	// Detections are the classified correspondences per system goal (nil
	// under SummaryOnly retention).
	Detections map[string][]monitor.Detection `json:"-"`
	// Summary aggregates the detections.
	Summary monitor.Summary `json:"summary"`
	// Collision reports whether the run terminated early on a collision.
	Collision bool `json:"collision"`
}

// TerminatedEarly reports whether the run stopped before its scheduled
// duration.
func (r Result) TerminatedEarly() bool {
	return r.Steps < int(r.Scenario.Duration/Period)
}

// Scenarios returns the ten evaluation scenarios of Section 5.4.
func Scenarios() []Scenario {
	enable := vehicle.Flag(true)
	return []Scenario{
		{
			Number: 1, Name: "s1-ca-acc-stopped-vehicle",
			Description:  "CA enabled, ACC enabled, stopped vehicle in path.",
			Duration:     20 * time.Second,
			InitialSpeed: 8, Gear: "D", ObjectDistance: 110, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable},
			},
		},
		{
			Number: 2, Name: "s2-pa-engaged-during-braking",
			Description:  "CA engaged, ACC enabled, PA enabled: the driver engages PA just after CA begins a hard braking action.",
			Duration:     20 * time.Second,
			InitialSpeed: 8, Gear: "D", ObjectDistance: 110, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable},
				{At: 12500 * time.Millisecond, EnablePA: enable, EngagePA: enable},
			},
		},
		{
			Number: 3, Name: "s3-throttle-vs-ca",
			Description:  "CA engaged, ACC enabled, throttle pedal applied, stopped vehicle in path: CA's intermittent braking fails to stop the host vehicle.",
			Duration:     20 * time.Second,
			InitialSpeed: 6, Gear: "D", ObjectDistance: 100, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable},
				{At: 500 * time.Millisecond, Throttle: vehicle.Level(0.3)},
			},
		},
		{
			Number: 4, Name: "s4-acc-engaged-with-throttle",
			Description:  "Throttle pedal applied, ACC engaged, CA enabled, slow vehicle in path.",
			Duration:     20 * time.Second,
			InitialSpeed: 10, Gear: "D", ObjectDistance: 60, ObjectSpeed: 6,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable},
				{At: 500 * time.Millisecond, Throttle: vehicle.Level(0.4)},
				{At: 2 * time.Second, EngageACC: enable, SetSpeed: vehicle.Level(20)},
				{At: 9 * time.Second, Throttle: vehicle.Level(0)},
			},
		},
		{
			Number: 5, Name: "s5-acc-throttle-then-brake",
			Description:  "Throttle pedal applied, ACC engaged, CA enabled, brake pedal applied, slow vehicle in path.",
			Duration:     20 * time.Second,
			InitialSpeed: 10, Gear: "D", ObjectDistance: 60, ObjectSpeed: 6,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable},
				{At: 500 * time.Millisecond, Throttle: vehicle.Level(0.4)},
				{At: 2 * time.Second, EngageACC: enable, SetSpeed: vehicle.Level(12)},
				{At: 7 * time.Second, Throttle: vehicle.Level(0)},
				{At: 11 * time.Second, Brake: vehicle.Level(0.3)},
				{At: 13 * time.Second, Brake: vehicle.Level(0)},
			},
		},
		{
			Number: 6, Name: "s6-lca-engaged",
			Description:  "Throttle pedal applied, ACC engaged, CA enabled, LCA engaged, slow vehicle in path: vehicle speed becomes negative while LCA and ACC remain active.",
			Duration:     20 * time.Second,
			InitialSpeed: 10, Gear: "D", ObjectDistance: 60, ObjectSpeed: 6,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable, EnableLCA: enable},
				{At: 500 * time.Millisecond, Throttle: vehicle.Level(0.4)},
				{At: 2 * time.Second, EngageACC: enable, SetSpeed: vehicle.Level(20)},
				{At: 4500 * time.Millisecond, Throttle: vehicle.Level(0)},
				{At: 5 * time.Second, EngageLCA: enable},
			},
		},
		{
			Number: 7, Name: "s7-reverse-rca",
			Description:  "In reverse, RCA enabled, stopped vehicle in path behind the host: RCA never engages.",
			Duration:     20 * time.Second,
			InitialSpeed: 0, Gear: "R", ObjectDistance: -12, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableRCA: enable, Gear: vehicle.GearSel("R")},
				{At: 1 * time.Second, Throttle: vehicle.Level(0.25)},
			},
		},
		{
			Number: 8, Name: "s8-reverse-acc-engaged",
			Description:  "In reverse, ACC engaged, stopped vehicle in path: ACC is selected as the acceleration source while the vehicle moves backward.",
			Duration:     20 * time.Second,
			InitialSpeed: 0, Gear: "R", ObjectDistance: -15, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableACC: enable, EnableRCA: enable, Gear: vehicle.GearSel("R")},
				{At: 500 * time.Millisecond, Throttle: vehicle.Level(0.4)},
				{At: 1800 * time.Millisecond, Throttle: vehicle.Level(0)},
				{At: 2 * time.Second, EngageACC: enable},
			},
		},
		{
			Number: 9, Name: "s9-pa-engaged-at-stop",
			Description:  "Stopped, PA engaged, stopped vehicle in path: PA is selected but the acceleration command does not equal the PA request.",
			Duration:     20 * time.Second,
			InitialSpeed: 0, Gear: "D", ObjectDistance: 12, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, Brake: vehicle.Level(0.3)},
				{At: 2 * time.Second, EnablePA: enable, EngagePA: enable, Brake: vehicle.Level(0)},
			},
		},
		{
			Number: 10, Name: "s10-acc-engage-at-stop",
			Description:  "Stopped, ACC engaged, stopped vehicle in path: ACC does not become active, yet the vehicle begins to accelerate.",
			Duration:     20 * time.Second,
			InitialSpeed: 0, Gear: "D", ObjectDistance: 25, ObjectSpeed: 0,
			Driver: []vehicle.DriverAction{
				{At: 0, EnableCA: enable, EnableACC: enable, Brake: vehicle.Level(0.3)},
				{At: 2 * time.Second, EngageACC: enable, Brake: vehicle.Level(0)},
			},
		},
	}
}

// ScenarioByNumber returns the scenario with the given thesis number.
func ScenarioByNumber(n int) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Number == n {
			return sc, true
		}
	}
	return Scenario{}, false
}

// DefectSet selects which feature subsystems run with their seeded defects
// corrected.  The zero value corrects nothing — every thesis defect stays in
// place — and setting a field removes that subsystem's defects only, so a
// sweep can attribute the observed violation structure to individual
// subsystems instead of the all-or-nothing CorrectDefects ablation.
type DefectSet struct {
	// CorrectCA makes CA brake continuously instead of intermittently.
	CorrectCA bool `json:"correct_ca,omitempty"`
	// CorrectRCA lets RCA engage in reverse.
	CorrectRCA bool `json:"correct_rca,omitempty"`
	// CorrectACC restricts ACC to controlling only while engaged, only in
	// forward gear, and without the LCA-interaction deceleration defect.
	CorrectACC bool `json:"correct_acc,omitempty"`
	// CorrectPA silences Park Assist while it is disabled.
	CorrectPA bool `json:"correct_pa,omitempty"`
	// CorrectArbiter gives the Arbiter a single consistent priority order
	// with an immediate driver-override check and a faithful PA command.
	CorrectArbiter bool `json:"correct_arbiter,omitempty"`
}

// AllDefectsCorrected is the DefectSet equivalent of CorrectDefects.
var AllDefectsCorrected = DefectSet{
	CorrectCA: true, CorrectRCA: true, CorrectACC: true, CorrectPA: true, CorrectArbiter: true,
}

// appendLabel appends the corrected subsystems compactly, for variant names
// and keys: "none", or the corrected subsystems joined by '+'.
func (d DefectSet) appendLabel(b []byte) []byte {
	if d == (DefectSet{}) {
		return append(b, "none"...)
	}
	n := len(b)
	for _, p := range [...]struct {
		on   bool
		name string
	}{
		{d.CorrectCA, "CA"}, {d.CorrectRCA, "RCA"}, {d.CorrectACC, "ACC"},
		{d.CorrectPA, "PA"}, {d.CorrectArbiter, "Arbiter"},
	} {
		if p.on {
			if len(b) > n {
				b = append(b, '+')
			}
			b = append(b, p.name...)
		}
	}
	return b
}

// Options configures a scenario run beyond the scenario definition itself.
type Options struct {
	// CorrectDefects removes every seeded defect from the feature
	// subsystems and the Arbiter: CA brakes continuously, RCA engages,
	// ACC only controls while engaged and only in forward gear, PA is
	// silent while disabled, and the Arbiter uses a single consistent
	// priority order with an immediate driver-override check.  Running the
	// scenarios in this configuration is the ablation that shows how much
	// of the observed goal-violation structure comes from the thesis'
	// documented defects rather than from the monitoring approach.
	CorrectDefects bool `json:"correct_defects,omitempty"`

	// Defects corrects individual subsystems' seeded defects (the zero
	// value corrects none).  CorrectDefects takes precedence: when it is
	// set, every subsystem is corrected regardless of this field.  Sweeps
	// vary it through Family.DefectSets.
	Defects DefectSet `json:"defects,omitempty"`

	// MatchTolerance overrides the hit-matching window, in states, used
	// when deciding whether a subgoal violation corresponds to a system
	// goal violation (0 uses the default of 150).  Sweeping it shows how
	// sensitive the hit / false-negative / false-positive classification is
	// to the assumed observation and actuation delays between hierarchy
	// levels.
	MatchTolerance int `json:"match_tolerance,omitempty"`
}

// defects resolves the effective per-subsystem correction set.
func (o Options) defects() DefectSet {
	if o.CorrectDefects {
		return AllDefectsCorrected
	}
	return o.Defects
}

// tolerance resolves the effective hit-matching window.
func (o Options) tolerance() int {
	if o.MatchTolerance > 0 {
		return o.MatchTolerance
	}
	return matchTolerance
}

// Label returns a short, stable identifier covering every Options field, used
// to build variant names.  Two distinct option values always produce distinct
// labels; TestOptionsLabelCoversAllFields enforces that any field added to
// Options is also added here, so sweep variant names can never collide on an
// unlabelled option.
func (o Options) Label() string {
	var buf [64]byte
	return string(o.appendLabel(buf[:0]))
}

// appendLabel appends the Label to b without allocating when b has room.
func (o Options) appendLabel(b []byte) []byte {
	b = append(b, "corrected="...)
	b = strconv.AppendBool(b, o.CorrectDefects)
	b = append(b, ",tol="...)
	b = strconv.AppendInt(b, int64(o.MatchTolerance), 10)
	b = append(b, ",fixed="...)
	return o.Defects.appendLabel(b)
}

// RunWithOptions executes one scenario with the full Table 5.3 monitoring
// suite under explicit options (the zero Options keep the thesis' seeded
// defects in place), retaining the full trace and monitor suite on the
// Result.  It runs on the caller's goroutine, on a fresh width-1 lane arena —
// exactly what a KeepTrace Engine worker does for each job.
func RunWithOptions(sc Scenario, opts Options) Result {
	return runTraced(Job{Scenario: sc, Options: opts})
}

// vehicleSet is the typed component set of one vehicle simulation, kept so a
// run arena can reconfigure and reset the same components variant after
// variant instead of rebuilding them.
type vehicleSet struct {
	driver   *vehicle.Driver
	object   *vehicle.Object
	ca       *vehicle.CollisionAvoidance
	rca      *vehicle.RearCollisionAvoidance
	acc      *vehicle.AdaptiveCruiseControl
	lca      *vehicle.LaneChangeAssist
	pa       *vehicle.ParkAssist
	arbiter  *vehicle.Arbiter
	dynamics *vehicle.Dynamics
	// init writes the scenario's initial signal values on the set's bus.
	init vehicleInit
}

// newVehicleSet constructs the component set with the constructors' default
// (defect-seeded) configuration; configure applies a scenario on top.
func newVehicleSet() *vehicleSet {
	return &vehicleSet{
		driver:   &vehicle.Driver{},
		object:   &vehicle.Object{},
		ca:       vehicle.NewCollisionAvoidance(),
		rca:      vehicle.NewRearCollisionAvoidance(),
		acc:      vehicle.NewAdaptiveCruiseControl(),
		lca:      vehicle.NewLaneChangeAssist(),
		pa:       vehicle.NewParkAssist(),
		arbiter:  vehicle.NewArbiter(),
		dynamics: &vehicle.Dynamics{},
	}
}

// components returns the component set in the simulation's step order.
func (vs *vehicleSet) components() []sim.Component {
	return []sim.Component{
		vs.driver, vs.object, vs.ca, vs.rca, vs.acc, vs.lca, vs.pa, vs.arbiter, vs.dynamics,
	}
}

// configure applies one scenario's parameters and defect corrections.  Every
// flag is assigned absolutely — enabled or disabled, never left as-is — so
// reconfiguring a reused component set for the next sweep variant re-seeds
// defects a previous variant corrected.
func (vs *vehicleSet) configure(sc Scenario, opts Options) {
	vs.driver.Schedule = sc.Driver
	vs.driver.InitialGear = sc.Gear
	vs.object.InitialDistance = sc.ObjectDistance
	vs.object.Speed = sc.ObjectSpeed
	vs.dynamics.InitialSpeed = sc.InitialSpeed

	correct := opts.defects()
	vs.ca.IntermittentBraking = !correct.CorrectCA
	vs.rca.NeverEngages = !correct.CorrectRCA
	vs.acc.ControlWhenNotEngaged = !correct.CorrectACC
	vs.acc.DecelWhileLCA = !correct.CorrectACC
	vs.acc.EngageWithoutChecks = !sc.ACCDirectionCheck && !correct.CorrectACC
	vs.pa.SpuriousRequests = !correct.CorrectPA
	arbiterDefects := !correct.CorrectArbiter
	vs.arbiter.ReversedSteeringPriority = arbiterDefects
	vs.arbiter.SteeringStageOverridesAccel = arbiterDefects
	vs.arbiter.EnabledFeaturesJoinSteering = arbiterDefects
	vs.arbiter.PACommandMismatch = arbiterDefects
	if arbiterDefects {
		vs.arbiter.OverrideCheckDelay = vehicle.DefaultOverrideCheckDelay
	} else {
		vs.arbiter.OverrideCheckDelay = 0
	}
}

// vehicleInit holds the handles of every signal a run initialises, so that
// the scenario's initial values are written by slot: bind resolves ~50
// names once per bus, and set is then plane stores alone.
type vehicleInit struct {
	gear, accelSource, steerSource sim.StringVar
	speed                          sim.NumVar
	stopped, forward, backward     sim.BoolVar
	agreement                      sim.BoolVar
	far                            [2]sim.NumVar                          // object distances: nothing in range
	zero                           [5 + 3*vehicle.NumFeatures]sim.NumVar  // numbers that start at 0
	off                            [2 + 4*vehicle.NumFeatures]sim.BoolVar // flags that start false
}

// bind resolves the initialised vocabulary on bus; on a fresh bus it interns
// the names into the bus schema in this order.
func (vi *vehicleInit) bind(bus *sim.Bus) {
	vi.gear = bus.StringVar(vehicle.SigGear)
	vi.accelSource = bus.StringVar(vehicle.SigAccelSource)
	vi.steerSource = bus.StringVar(vehicle.SigSteerSource)
	vi.zero[0] = bus.NumVar(vehicle.SigAccelCommand)
	vi.zero[1] = bus.NumVar(vehicle.SigSteerCommand)
	vi.speed = bus.NumVar(vehicle.SigVehicleSpeed)
	vi.zero[2] = bus.NumVar(vehicle.SigVehicleAccel)
	vi.zero[3] = bus.NumVar(vehicle.SigVehicleJerk)
	vi.zero[4] = bus.NumVar(vehicle.SigVehiclePosition)
	vi.stopped = bus.BoolVar(vehicle.SigVehicleStopped)
	vi.forward = bus.BoolVar(vehicle.SigInForwardMotion)
	vi.backward = bus.BoolVar(vehicle.SigInBackwardMotion)
	vi.off[0] = bus.BoolVar(vehicle.SigAccelFromSubsystem)
	vi.off[1] = bus.BoolVar(vehicle.SigSteerFromSubsystem)
	vi.agreement = bus.BoolVar(vehicle.SigAccelSteeringAgreement)
	vi.far[0] = bus.NumVar(vehicle.SigObjectDistance)
	vi.far[1] = bus.NumVar(vehicle.SigRearObjectDistance)
	for i, f := range vehicle.FeatureNames {
		z, o := vi.zero[5+3*i:], vi.off[2+4*i:]
		o[0] = bus.BoolVar(vehicle.SigActive(f))
		z[0] = bus.NumVar(vehicle.SigAccelRequest(f))
		o[1] = bus.BoolVar(vehicle.SigRequestingAccel(f))
		z[1] = bus.NumVar(vehicle.SigSteerRequest(f))
		o[2] = bus.BoolVar(vehicle.SigRequestingSteer(f))
		z[2] = bus.NumVar(vehicle.SigRequestJerk(f))
		o[3] = bus.BoolVar(vehicle.SigSelected(f))
	}
}

// set (re)initialises the scenario's signal vocabulary so every signal is
// visible from the very first step.
func (vi *vehicleInit) set(sc Scenario) {
	vi.gear.Init(sc.Gear)
	vi.accelSource.Init(vehicle.SourceNone)
	vi.steerSource.Init(vehicle.SourceNone)
	vi.speed.Init(sc.InitialSpeed)
	vi.stopped.Init(sc.InitialSpeed == 0)
	vi.forward.Init(sc.InitialSpeed > 0)
	vi.backward.Init(sc.InitialSpeed < 0)
	vi.agreement.Init(true)
	for i := range vi.far {
		vi.far[i].Init(1e9)
	}
	for i := range vi.zero {
		vi.zero[i].Init(0)
	}
	for i := range vi.off {
		vi.off[i].Init(false)
	}
}

// NewSimulation builds a scalar simulation of one scenario: the initialised
// bus (which interns the full signal vocabulary into the run's schema) and
// the component set with the configured defects, sharing one resolved handle
// table.  No scenario run executes through it — the Engine and
// RunWithOptions run every job on a lane arena — so it serves callers that
// attach their own observers: the tests' reference run (string-keyed
// Stepper monitors over this simulation) and the substrate benchmarks.
func NewSimulation(sc Scenario, opts Options) *sim.Simulation {
	s := sim.New(Period)
	vs := newVehicleSet()
	vs.init.bind(s.Bus)
	vs.init.set(sc)
	vs.configure(sc, opts)
	components := vs.components()
	// One shared handle table for the whole run instead of one per component.
	vehicle.BindAll(s.Bus, components...)
	s.Add(components...)
	return s
}
