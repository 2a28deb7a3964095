package elevator

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/goals"
	"repro/internal/temporal"
)

// Goal names used by the catalogue, monitors and reports.
const (
	// GoalDoorClosedOrStopped is Maintain[DoorClosedOrElevatorStopped]
	// (thesis Figure 4.8).
	GoalDoorClosedOrStopped = "Maintain[DoorClosedOrElevatorStopped]"
	// GoalDriveStoppedWhenOverweight is Maintain[DriveStoppedWhenOverweight]
	// (Figure 4.6).
	GoalDriveStoppedWhenOverweight = "Maintain[DriveStoppedWhenOverweight]"
	// GoalBelowHoistwayLimit is Maintain[ElevatorBelowHoistwayUpperLimit]
	// (Figure 4.9).
	GoalBelowHoistwayLimit = "Maintain[ElevatorBelowHoistwayUpperLimit]"
	// SubgoalCloseDoorWhenMoving is the DoorController subgoal of Table 4.4.
	SubgoalCloseDoorWhenMoving = "Achieve[CloseDoorWhenElevatorMovingOrMoved]"
	// SubgoalStopWhenDoorOpen is the DriveController subgoal of Table 4.4.
	SubgoalStopWhenDoorOpen = "Achieve[StopElevatorWhenDoorOpenOrOpened]"
	// SubgoalDriveStopOverweight is the DriveController subgoal for the
	// overweight goal.
	SubgoalDriveStopOverweight = "Achieve[StopDriveWhenOverweight]"
	// SubgoalStopBeforeLimit is Achieve[StopBeforeHoistwayUpperLimit]
	// (Figure 4.10, primary responsibility).
	SubgoalStopBeforeLimit = "Achieve[StopBeforeHoistwayUpperLimit]"
	// SubgoalEmergencyStopBeforeLimit is
	// Achieve[EmergencyStopBeforeHoistwayUpperLimit] (Figure 4.11,
	// secondary responsibility).
	SubgoalEmergencyStopBeforeLimit = "Achieve[EmergencyStopBeforeHoistwayUpperLimit]"
)

// Goals returns the elevator safety-goal catalogue: the three system-level
// goals and the subsystem subgoals that ICPA derives for them.
func Goals() *goals.Registry {
	r := goals.NewRegistry()

	r.Add(goals.MustParse(GoalDoorClosedOrStopped,
		"At all times the door shall be closed or the elevator speed shall be STOPPED.",
		fmt.Sprintf("%s | %s", SigDoorClosed, SigElevatorStopped)))

	r.Add(goals.MustParse(GoalDriveStoppedWhenOverweight,
		"If the elevator weight exceeds the weight threshold, then the elevator speed shall be STOPPED.",
		fmt.Sprintf("prev(%s > %g) => %s", SigElevatorWeight, WeightThreshold, SigElevatorStopped)))

	r.Add(goals.MustParse(GoalBelowHoistwayLimit,
		"The top of the elevator shall never exceed the upper limit of the hoistway.",
		fmt.Sprintf("%s <= %g", SigElevatorPosition, HoistwayUpperLimit)))

	r.Add(goals.MustParse(SubgoalCloseDoorWhenMoving,
		"If the door is not blocked and the elevator is moving or has been commanded to move, then the door shall be commanded to CLOSE.",
		fmt.Sprintf("(prev(!%s | %s == 'GO') & prev(!%s)) => %s == 'CLOSE'",
			SigElevatorStopped, SigDriveCommand, SigDoorBlocked, SigDoorMotorCommand)).
		WithVars([]string{SigElevatorStopped, SigDriveCommand, SigDoorBlocked}, []string{SigDoorMotorCommand}).
		WithAssignee("DoorController"))

	r.Add(goals.MustParse(SubgoalStopWhenDoorOpen,
		"If the doors are not closed or have been commanded open, then the drive shall be commanded to STOP.",
		fmt.Sprintf("prev(!%s | %s == 'OPEN') => %s == 'STOP'",
			SigDoorClosed, SigDoorMotorCommand, SigDriveCommand)).
		WithVars([]string{SigDoorClosed, SigDoorMotorCommand}, []string{SigDriveCommand}).
		WithAssignee("DriveController"))

	r.Add(goals.MustParse(SubgoalDriveStopOverweight,
		"If the elevator weight exceeded the threshold, the drive shall be commanded to STOP.",
		fmt.Sprintf("prev(%s > %g) => %s == 'STOP'", SigElevatorWeight, WeightThreshold, SigDriveCommand)).
		WithVars([]string{SigElevatorWeight}, []string{SigDriveCommand}).
		WithAssignee("DriveController"))

	r.Add(goals.MustParse(SubgoalStopBeforeLimit,
		"If the elevator nears the upper hoistway limit, then the drive shall be stopped.",
		fmt.Sprintf("prev(%s >= %g) => %s == 'STOP'",
			SigElevatorPosition, HoistwayUpperLimit-MaxStoppingDistance, SigDriveCommand)).
		WithVars([]string{SigElevatorPosition}, []string{SigDriveCommand}).
		WithAssignee("DriveController"))

	r.Add(goals.MustParse(SubgoalEmergencyStopBeforeLimit,
		"If the elevator nears the upper hoistway limit, then the emergency brake shall be applied.",
		fmt.Sprintf("prev(%s >= %g) => %s == 'APPLIED'",
			SigElevatorPosition, HoistwayUpperLimit-MaxEmergencyBrakingDistance, SigEmergencyBrake)).
		WithVars([]string{SigElevatorPosition}, []string{SigEmergencyBrake}).
		WithAssignee("EmergencyBrake"))

	return r
}

// Model builds the ICPA system model of the distributed elevator control
// system of Figure 4.5: the agents, the state variables they monitor and
// control, and their kinds.
func Model() *core.SystemModel {
	m := core.NewSystemModel("distributed elevator control system")

	m.AddAgent(goals.NewAgent("ElevatorSpeedSensor", goals.KindSensor,
		[]string{"DriveSpeed"}, []string{SigElevatorSpeed, SigElevatorStopped}))
	m.AddAgent(goals.NewAgent("ElevatorPositionSensor", goals.KindSensor,
		[]string{"DriveSpeed"}, []string{SigElevatorPosition}))
	m.AddAgent(goals.NewAgent("DoorClosedSensor", goals.KindSensor,
		[]string{SigDoorPosition}, []string{SigDoorClosed}))
	m.AddAgent(goals.NewAgent("WeightSensor", goals.KindSensor,
		[]string{"CarLoad"}, []string{SigElevatorWeight}))
	m.AddAgent(goals.NewAgent("Drive", goals.KindActuator,
		[]string{SigDriveCommand, SigDriveTarget, SigEmergencyBrake}, []string{"DriveSpeed"}))
	m.AddAgent(goals.NewAgent("DoorMotor", goals.KindActuator,
		[]string{SigDoorMotorCommand, SigDoorBlocked}, []string{SigDoorPosition}))
	m.AddAgent(goals.NewAgent("DriveController", goals.KindSoftware,
		[]string{SigDispatchTarget, SigDoorClosed, SigDoorMotorCommand, SigElevatorPosition, SigElevatorWeight},
		[]string{SigDriveCommand, SigDriveTarget}))
	m.AddAgent(goals.NewAgent("DoorController", goals.KindSoftware,
		[]string{SigDispatchTarget, SigElevatorStopped, SigDriveCommand, SigDoorBlocked, SigAtTargetFloor},
		[]string{SigDoorMotorCommand}))
	m.AddAgent(goals.NewAgent("DispatchController", goals.KindSoftware,
		[]string{SigHallCall, SigCarCall}, []string{SigDispatchTarget}))
	m.AddAgent(goals.NewAgent("CarButtonController", goals.KindSoftware,
		[]string{"CarButtonPress"}, []string{SigCarCall}))
	m.AddAgent(goals.NewAgent("HallButtonController", goals.KindSoftware,
		[]string{"HallButtonPress"}, []string{SigHallCall}))
	m.AddAgent(goals.NewAgent("EmergencyBrake", goals.KindSoftware,
		[]string{SigElevatorPosition}, []string{SigEmergencyBrake}))
	m.AddAgent(goals.NewAgent("Passenger", goals.KindEnvironment,
		nil, []string{SigDoorBlocked, "CarButtonPress", "HallButtonPress", "CarLoad"}))
	return m
}

// DoorDriveICPA builds the full ICPA of Maintain[DoorClosedOrElevatorStopped]
// (thesis Tables 4.1–4.4): the indirect control paths of DoorClosed and
// ElevatorStopped, the numbered indirect-control relationships, the
// shared-responsibility/restrictive coverage strategy, the elaboration and
// the two Table 4.4 subgoals.
func DoorDriveICPA() *core.Analysis {
	registry := Goals()
	model := Model()
	a := core.NewAnalysis(registry.MustGet(GoalDoorClosedOrStopped), model)
	a.TracePaths(0)

	relInitDoor := a.AddRelationship(SigDoorClosed, []string{"DoorController", "DoorMotor"},
		temporal.MustParse("initially(!DoorClosed & DoorMotorCommand == 'OPEN')"),
		"In the initial state, the door is OPEN and commanded OPEN")
	relDoorHoldClosed := a.AddRelationship(SigDoorClosed, []string{"DoorController", "DoorMotor"},
		temporal.MustParse("(prev(DoorClosed) & DoorMotorCommand == 'CLOSE') => DoorClosed"),
		"A closed door that is commanded CLOSE remains closed")
	relDoorClose := a.AddRelationship(SigDoorClosed, []string{"DoorController", "DoorMotor"},
		temporal.MustParse("prevfor[2s](!DoorBlocked & DoorMotorCommand == 'CLOSE') => DoorClosed"),
		"An unblocked door commanded CLOSE for the maximum close delay will be closed")
	relDoorOpen := a.AddRelationship(SigDoorClosed, []string{"DoorController", "DoorMotor"},
		temporal.MustParse("prevfor[2s](DoorMotorCommand == 'OPEN') => !DoorClosed"),
		"A door commanded OPEN for the maximum open delay will be unclosed")
	relDoorMinOpen := a.AddRelationship(SigDoorClosed, []string{"DoorController", "DoorMotor"},
		temporal.MustParse("(prev(DoorClosed) & prevwithin[50ms](became(DoorMotorCommand == 'OPEN'))) => DoorClosed"),
		"A closed door whose command switched to OPEN within the minimum open delay is still closed")
	relBlockedNotClosed := a.AddRelationship(SigDoorClosed, []string{"Passenger"},
		temporal.MustParse("prev(DoorBlocked) => !DoorClosed"),
		"If the door is blocked, the door shall not be closed")
	relDoorReversal := a.AddRelationship(SigDoorClosed, []string{"Passenger", "DoorController"},
		temporal.MustParse("prev(DoorBlocked) => DoorMotorCommand == 'OPEN'"),
		"If the door is blocked, the door shall be commanded OPEN (door-reversal safety goal has priority)")

	relInitDrive := a.AddRelationship(SigElevatorStopped, []string{"DriveController", "Drive"},
		temporal.MustParse("initially(ElevatorStopped & DriveCommand == 'STOP')"),
		"In the initial state, the elevator is stopped and the drive commanded STOP")
	relDriveEq := a.AddRelationship(SigElevatorStopped, []string{"Drive"},
		temporal.MustParse("DriveStopped <=> ElevatorStopped"),
		"If the drive is stopped, the elevator is stopped, and vice versa")
	relDriveHoldStopped := a.AddRelationship(SigElevatorStopped, []string{"DriveController", "Drive"},
		temporal.MustParse("(prev(ElevatorStopped) & DriveCommand == 'STOP') => ElevatorStopped"),
		"A stopped drive commanded STOP remains stopped")
	relDriveStop := a.AddRelationship(SigElevatorStopped, []string{"DriveController", "Drive"},
		temporal.MustParse("prevfor[2s](DriveCommand == 'STOP') => ElevatorStopped"),
		"A drive commanded STOP for the maximum stop delay will be stopped")
	relDriveMinGo := a.AddRelationship(SigElevatorStopped, []string{"DriveController", "Drive"},
		temporal.MustParse("(prev(ElevatorStopped) & prevwithin[50ms](became(DriveCommand == 'GO'))) => ElevatorStopped"),
		"A stopped drive whose command switched to GO within the minimum go delay is still stopped")

	a.SetCoverage(core.CoverageStrategy{
		Assignment:  core.SharedResponsibility,
		Scope:       core.Restrictive,
		Responsible: []string{"DoorController", "DriveController"},
		Note:        "Assumes worst-case actuator response times; real response may be slower.",
	})

	a.AddElaboration(
		"(dc | IsStopped(es))  <=  initial state case  AND  (IsStopped(es) => dc)  AND  (dc => IsStopped(es))",
		core.TacticSplitByCase, []int{relInitDoor, relInitDrive},
		"Goal satisfied in the initial state; split lack of monitorability/control by case")
	a.AddElaboration(
		"IsStopped(es) => dc   covered by: (prev(!IsStopped(es) | drc == 'GO') & prev(!db)) => dmc == 'CLOSE'",
		core.TacticIntroduceAccuracy,
		[]int{relDoorHoldClosed, relDoorClose, relDoorMinOpen, relBlockedNotClosed, relDoorReversal, relDriveMinGo},
		"Minimum delay to open the door exceeds one state; door reversal has priority when blocked")
	a.AddElaboration(
		"dc => IsStopped(es)   covered by: prev(!dc | dmc == 'OPEN') => drc == 'STOP'",
		core.TacticIntroduceActuation,
		[]int{relDriveEq, relDriveHoldStopped, relDriveStop, relDoorOpen, relDoorMinOpen},
		"Minimum delay to move the elevator exceeds one state")

	a.AddSubgoal(core.SubsystemGoal{
		Subsystem:   "DoorController",
		Goal:        registry.MustGet(SubgoalCloseDoorWhenMoving),
		Controls:    []string{SigDoorMotorCommand},
		Observes:    []string{SigElevatorStopped, SigDriveCommand, SigDoorBlocked},
		Restrictive: true,
		MonitorAt:   "DoorController",
	})
	a.AddSubgoal(core.SubsystemGoal{
		Subsystem:   "DriveController",
		Goal:        registry.MustGet(SubgoalStopWhenDoorOpen),
		Controls:    []string{SigDriveCommand},
		Observes:    []string{SigDoorClosed, SigDoorMotorCommand},
		Restrictive: true,
		MonitorAt:   "DriveController",
	})
	return a
}

// HoistwayICPA builds the ICPA of Maintain[ElevatorBelowHoistwayUpperLimit]
// with a redundant-responsibility coverage strategy: the drive controller
// has primary responsibility (Figure 4.10) and the emergency brake secondary
// responsibility (Figure 4.11), both with restrictive safety margins
// (§4.5.1, §4.5.2).
func HoistwayICPA() *core.Analysis {
	registry := Goals()
	model := Model()
	a := core.NewAnalysis(registry.MustGet(GoalBelowHoistwayLimit), model)
	a.TracePaths(0)

	relDriveMoves := a.AddRelationship(SigElevatorPosition, []string{"Drive", "DriveController"},
		temporal.MustParse("!ElevatorStopped => prev(DriveCommand == 'GO')"),
		"The elevator position changes only while the drive has been commanded GO")
	relStopDistance := a.AddRelationship(SigElevatorPosition, []string{"Drive"},
		temporal.MustParse("prevfor[2s](DriveCommand == 'STOP') => ElevatorStopped"),
		"A drive commanded STOP stops within the maximum stopping distance")
	relBrakeDistance := a.AddRelationship(SigElevatorPosition, []string{"EmergencyBrake", "Drive"},
		temporal.MustParse("prevfor[1s](EmergencyBrake == 'APPLIED') => ElevatorStopped"),
		"An applied emergency brake stops the car within the emergency braking distance")

	a.SetCoverage(core.CoverageStrategy{
		Assignment:  core.RedundantResponsibility,
		Scope:       core.Restrictive,
		Responsible: []string{"DriveController"},
		Secondary:   []string{"EmergencyBrake"},
		Note:        "Safety margins: MaxStoppingDistance for the drive, MaxEmergencyBrakingDistance for the brake.",
	})
	a.AddElaboration(
		"etp <= hul   covered by stopping the drive (primary) or applying the emergency brake (secondary) before the limit",
		core.TacticSafetyMargin, []int{relDriveMoves, relStopDistance, relBrakeDistance},
		"Primary margin is larger than the secondary margin so the emergency brake rarely engages")

	a.AddSubgoal(core.SubsystemGoal{
		Subsystem:   "DriveController",
		Goal:        registry.MustGet(SubgoalStopBeforeLimit),
		Controls:    []string{SigDriveCommand},
		Observes:    []string{SigElevatorPosition},
		Restrictive: true,
		MonitorAt:   "DriveController",
	})
	a.AddSubgoal(core.SubsystemGoal{
		Subsystem:   "EmergencyBrake",
		Goal:        registry.MustGet(SubgoalEmergencyStopBeforeLimit),
		Controls:    []string{SigEmergencyBrake},
		Observes:    []string{SigElevatorPosition},
		Restrictive: true,
		Redundant:   true,
		MonitorAt:   "EmergencyBrake",
	})
	return a
}
