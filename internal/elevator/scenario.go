package elevator

import (
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/temporal"
)

// DefaultPeriod is the simulation state period for the elevator scenarios.
const DefaultPeriod = 10 * time.Millisecond

// matchTolerance is the number of states within which a subsystem subgoal
// violation is considered to correspond to a system goal violation; it
// covers the observation delay plus the door/drive actuation delays.
const matchTolerance = 250

// Scenario configures one elevator simulation run.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Description explains what the scenario exercises.
	Description string
	// Duration is the simulated time.
	Duration time.Duration
	// Passenger is the passenger schedule.
	Passenger []PassengerAction
	// DoorDefect enables the door controller's open-while-moving defect.
	DoorDefect bool
	// DriveDoorDefect makes the drive controller ignore the door state.
	DriveDoorDefect bool
	// OverweightDefect makes the drive controller ignore the rated load.
	OverweightDefect bool
	// HoistwayDefect makes the drive controller ignore the hoistway limit
	// and drive past the top floor.
	HoistwayDefect bool
	// DisableEmergencyBrake removes the redundant emergency brake (for
	// ablation of redundant goal coverage).
	DisableEmergencyBrake bool
}

// Result is the outcome of one monitored elevator scenario.
type Result struct {
	// Scenario is the configuration that was run.
	Scenario Scenario
	// Trace is the recorded state trace.
	Trace *temporal.Trace
	// Suite holds the goal and subgoal monitors after the run.
	Suite *monitor.Suite
	// Detections are the hit / false-negative / false-positive
	// classifications per system goal.
	Detections map[string][]monitor.Detection
	// Summary aggregates the detections.
	Summary monitor.Summary
}

// NominalScenario is a defect-free ride: the passenger calls the car, rides
// to the fourth floor, and leaves.  No goal violations are expected.
func NominalScenario() Scenario {
	return Scenario{
		Name:        "nominal",
		Description: "Passenger rides from the ground floor to floor 4 with no seeded defects.",
		Duration:    60 * time.Second,
		Passenger: []PassengerAction{
			{At: 1 * time.Second, HallCall: 1},
			{At: 2 * time.Second, AddWeight: 80},
			{At: 8 * time.Second, CarCall: 4},
			{At: 40 * time.Second, AddWeight: -80},
		},
	}
}

// DoorDefectScenario seeds the open-while-moving defect in the door
// controller: the system goal Maintain[DoorClosedOrElevatorStopped] and the
// DoorController subgoal are both violated (a hit at the subsystem level).
func DoorDefectScenario() Scenario {
	s := NominalScenario()
	s.Name = "door-defect"
	s.Description = "Door controller opens the doors while the car is still moving toward the landing."
	s.DoorDefect = true
	return s
}

// OverweightScenario loads the car above the rated load and seeds the
// drive controller defect that ignores the overweight check, violating
// Maintain[DriveStoppedWhenOverweight].
func OverweightScenario() Scenario {
	return Scenario{
		Name:             "overweight",
		Description:      "Car is loaded above the rated load and the drive controller moves it anyway.",
		Duration:         40 * time.Second,
		OverweightDefect: true,
		Passenger: []PassengerAction{
			{At: 1 * time.Second, HallCall: 1},
			{At: 2 * time.Second, AddWeight: 900},
			{At: 4 * time.Second, CarCall: 3},
		},
	}
}

// HoistwayDefectScenario seeds the hoistway-limit defect in the drive
// controller; the redundant emergency-brake subgoal keeps the system goal
// satisfied, producing a false positive at the subsystem level.
func HoistwayDefectScenario() Scenario {
	return Scenario{
		Name:           "hoistway-defect",
		Description:    "Drive controller ignores the hoistway limit; the emergency brake provides redundant coverage.",
		Duration:       45 * time.Second,
		HoistwayDefect: true,
		Passenger: []PassengerAction{
			{At: 1 * time.Second, CarCall: 5},
		},
	}
}

// HoistwayUnprotectedScenario additionally disables the emergency brake, so
// the system-level hoistway goal is violated together with the drive
// controller subgoal (a hit), demonstrating why the redundant assignment is
// used.
func HoistwayUnprotectedScenario() Scenario {
	s := HoistwayDefectScenario()
	s.Name = "hoistway-unprotected"
	s.Description = "Hoistway-limit defect with the emergency brake disabled: the system goal is violated."
	s.DisableEmergencyBrake = true
	return s
}

// Scenarios returns the standard elevator scenario set.
func Scenarios() []Scenario {
	return []Scenario{
		NominalScenario(),
		DoorDefectScenario(),
		OverweightScenario(),
		HoistwayDefectScenario(),
		HoistwayUnprotectedScenario(),
	}
}

// hierarchySpec is one row group of the elevator monitoring plan: a system
// goal with its subgoal monitor placements.
type hierarchySpec struct {
	parent   monitor.GoalAt
	children []monitor.GoalAt
}

// elevatorPlan is the elevator monitoring plan: one hierarchy per system
// goal, with the ICPA-derived subgoals as children, shared by the
// per-monitor and compiled suite builders.
func elevatorPlan() []hierarchySpec {
	registry := Goals()
	at := func(goal, location string) monitor.GoalAt {
		return monitor.GoalAt{Goal: registry.MustGet(goal), Location: location}
	}
	return []hierarchySpec{
		{
			parent: at(GoalDoorClosedOrStopped, "Elevator"),
			children: []monitor.GoalAt{
				at(SubgoalCloseDoorWhenMoving, "DoorController"),
				at(SubgoalStopWhenDoorOpen, "DriveController"),
			},
		},
		{
			parent:   at(GoalDriveStoppedWhenOverweight, "Elevator"),
			children: []monitor.GoalAt{at(SubgoalDriveStopOverweight, "DriveController")},
		},
		{
			parent: at(GoalBelowHoistwayLimit, "Elevator"),
			children: []monitor.GoalAt{
				at(SubgoalStopBeforeLimit, "DriveController"),
				at(SubgoalEmergencyStopBeforeLimit, "EmergencyBrake"),
			},
		},
	}
}

// BuildSuiteWithSchema compiles the elevator monitoring plan into one shared
// evaluation program against a run's symbol table: every goal atom is a
// register-slot load from the first observation and the plan's overlapping
// door/drive/position atoms are each evaluated once per state.
func BuildSuiteWithSchema(period time.Duration, schema *temporal.Schema) *monitor.CompiledSuite {
	cs := monitor.NewCompiledSuite(period, schema)
	for _, h := range elevatorPlan() {
		cs.MustAddHierarchy(h.parent, matchTolerance, h.children...)
	}
	return cs
}

// initElevatorBus (re)initialises the elevator signal vocabulary so every
// signal is visible from the first step.  On a reset, reused bus every name
// is already interned and each Init is two plane stores.
func initElevatorBus(bus *sim.Bus) {
	bus.InitString(SigDriveCommand, "STOP")
	bus.InitString(SigDoorMotorCommand, "OPEN")
	bus.InitString(SigEmergencyBrake, "RELEASED")
	bus.InitBool(SigElevatorStopped, true)
	bus.InitBool(SigDoorClosed, false)
	bus.InitNumber(SigElevatorPosition, 0)
	bus.InitNumber(SigElevatorSpeed, 0)
	bus.InitNumber(SigElevatorWeight, 0)
	bus.InitNumber(SigDispatchTarget, 0)
}

// Run executes a scenario with hierarchical monitoring and returns the
// recorded trace, the monitors and the violation classification.
func Run(sc Scenario) Result {
	s := sim.New(DefaultPeriod)
	initElevatorBus(s.Bus)

	driveController := &DriveController{
		IgnoreHoistwayLimit: sc.HoistwayDefect,
		IgnoreDoorState:     sc.DriveDoorDefect,
		IgnoreOverweight:    sc.OverweightDefect,
	}
	if sc.HoistwayDefect {
		driveController.OverrunTargetTo = HoistwayUpperLimit + 2
	}
	doorController := &DoorController{OpenWhileMoving: sc.DoorDefect}
	brake := &EmergencyBrake{Disabled: sc.DisableEmergencyBrake}

	components := []sim.Component{
		&Passenger{Actions: sc.Passenger},
		&DispatchController{},
		driveController,
		doorController,
		brake,
		&Drive{},
		NewDoorMotor(),
	}
	// One shared handle table for the whole run instead of one per component.
	BindAll(s.Bus, components...)
	s.Add(components...)

	suite := BuildSuiteWithSchema(DefaultPeriod, s.Bus.Schema())
	s.Observe(suite)

	duration := sc.Duration
	if duration <= 0 {
		duration = 30 * time.Second
	}
	trace := s.Run(duration)
	suite.Finish()

	detections, summary := suite.ClassifyAll()
	return Result{
		Scenario:   sc,
		Trace:      trace,
		Suite:      suite.Suite(),
		Detections: detections,
		Summary:    summary,
	}
}

// NewDoorMotor returns a door motor matching the initial bus state (door
// open, as in Table 4.1's initial-state relationship).
func NewDoorMotor() *DoorMotor { return &DoorMotor{} }
