// Package elevator implements the distributed elevator control system used
// throughout Chapter 4 of the thesis (Figure 4.5) as the worked example for
// Indirect Control Path Analysis: door and drive controllers, a dispatcher,
// call buttons, a passenger, actuators with realistic actuation delays and
// the sensors that produce the goal state variables.
//
// The package also provides the elevator's safety-goal catalogue
// (Figures 4.6–4.13 and Table 4.4), the ICPA system model behind
// Tables 4.1–4.3, and ready-made simulation scenarios with hierarchical
// run-time monitoring, including variants with seeded design defects that
// the monitors detect.
package elevator

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Bus signal names.  Goal formulas reference these names directly.
const (
	// SigDoorClosed is true when the door-closed sensor detects a fully
	// closed door.
	SigDoorClosed = "DoorClosed"
	// SigDoorBlocked is true while the passenger blocks the doorway.
	SigDoorBlocked = "DoorBlocked"
	// SigDoorPosition is the door position: 0 fully open, 1 fully closed.
	SigDoorPosition = "DoorPosition"
	// SigDoorMotorCommand is the door motor actuation signal: OPEN or CLOSE.
	SigDoorMotorCommand = "DoorMotorCommand"
	// SigElevatorSpeed is the sensed car speed in m/s (positive upward).
	SigElevatorSpeed = "ElevatorSpeed"
	// SigElevatorStopped is the discretised is-stopped predicate published
	// by the speed sensor.
	SigElevatorStopped = "ElevatorStopped"
	// SigElevatorPosition is the sensed car position in metres above the
	// bottom landing.
	SigElevatorPosition = "ElevatorPosition"
	// SigDriveCommand is the drive actuation signal: GO or STOP.
	SigDriveCommand = "DriveCommand"
	// SigDriveTarget is the target car position commanded by the drive
	// controller, in metres.
	SigDriveTarget = "DriveTarget"
	// SigElevatorWeight is the sensed car load in kilograms.
	SigElevatorWeight = "ElevatorWeight"
	// SigDispatchTarget is the dispatcher's requested destination floor
	// (1-based; 0 when no destination is pending).
	SigDispatchTarget = "DispatchTarget"
	// SigCarCall is the floor requested from inside the car (0 when none).
	SigCarCall = "CarCall"
	// SigHallCall is the floor requested from a hallway (0 when none).
	SigHallCall = "HallCall"
	// SigEmergencyBrake is the emergency brake state: APPLIED or RELEASED.
	SigEmergencyBrake = "EmergencyBrake"
	// SigAtTargetFloor is the floor the drive controller considers the car
	// to have arrived at (0 while travelling or idle).  Publishing the
	// floor rather than a boolean avoids the race between a new dispatch
	// target and a stale arrival flag.
	SigAtTargetFloor = "AtTargetFloor"
)

// Physical and policy parameters of the modelled installation.
const (
	// FloorHeight is the distance between landings in metres.
	FloorHeight = 3.0
	// TopFloor is the highest served floor (floors are numbered from 1).
	TopFloor = 5
	// HoistwayUpperLimit is the physical top of the hoistway in metres
	// above the bottom landing.
	HoistwayUpperLimit = FloorHeight*(TopFloor-1) + 0.6
	// MaxStoppingDistance is the worst-case stopping distance of the drive
	// used by the drive controller's hoistway-limit subgoal.
	MaxStoppingDistance = 1.1
	// MaxEmergencyBrakingDistance is the worst-case stopping distance of
	// the emergency brake used by its (secondary) subgoal.
	MaxEmergencyBrakingDistance = 0.5
	// WeightThreshold is the rated load in kilograms.
	WeightThreshold = 680.0
	// MaxSpeed is the rated car speed in m/s.
	MaxSpeed = 1.0
	// MaxAccel is the drive acceleration in m/s².
	MaxAccel = 0.8
	// DoorTravelTime is the time for a full door open or close stroke.
	DoorTravelTime = 2 * time.Second
	// DoorDwellTime is how long doors stay open at a landing.
	DoorDwellTime = 3 * time.Second
	// StoppedSpeedEpsilon is the speed below which the sensor reports the
	// car as stopped.
	StoppedSpeedEpsilon = 0.005
)

// floorPosition converts a 1-based floor number to metres.
func floorPosition(floor float64) float64 { return (floor - 1) * FloorHeight }

// Drive is the hoistway drive actuator: it accelerates the car toward the
// commanded target while DriveCommand is GO and brings it to a halt while
// the command is STOP or the emergency brake is applied.  The response is
// rate-limited, which produces the actuation delays the ICPA relationships
// of Table 4.2 describe.
type Drive struct {
	speed    float64
	position float64

	binding
}

// Reset implements sim.Resetter: the car returns to rest at the bottom
// landing.
func (d *Drive) Reset() {
	d.speed = 0
	d.position = 0
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (d *Drive) Step(_ time.Duration, bus *sim.Bus) {
	v := d.vars
	dt := bus.StepSeconds()
	command := v.driveCommand.ReadID()
	target := v.driveTarget.Read()
	braked := v.emergencyBrake.ReadID() == v.appliedID

	var desired float64
	if command == v.goID && !braked {
		direction := 1.0
		if target < d.position {
			direction = -1
		}
		remaining := math.Abs(target - d.position)
		desired = direction * math.Min(MaxSpeed, math.Sqrt(2*MaxAccel*remaining))
	}
	// Emergency braking decelerates harder than the normal drive.
	accelLimit := MaxAccel
	if braked {
		accelLimit = 3 * MaxAccel
	}
	delta := desired - d.speed
	maxDelta := accelLimit * dt
	if delta > maxDelta {
		delta = maxDelta
	}
	if delta < -maxDelta {
		delta = -maxDelta
	}
	d.speed += delta
	if desired == 0 && math.Abs(d.speed) < 1e-4 {
		d.speed = 0
	}
	d.position += d.speed * dt
	if d.position < 0 {
		d.position = 0
		d.speed = 0
	}

	v.elevatorSpeed.Write(d.speed)
	v.elevatorPosition.Write(d.position)
	v.elevatorStopped.Write(math.Abs(d.speed) < StoppedSpeedEpsilon)
}

// DoorMotor is the door actuator: it drives the door position toward closed
// (1.0) or open (0.0) over DoorTravelTime.  A blocked door cannot close
// (thesis Eq. 4.6) but can always open.
type DoorMotor struct {
	position float64
	// StartClosed starts the simulation with the door closed instead of
	// the open initial state of Table 4.1.
	StartClosed bool
	started     bool

	binding
}

// Reset implements sim.Resetter: the door re-latches its StartClosed initial
// position on the next first step.
func (m *DoorMotor) Reset() {
	m.position = 0
	m.started = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (m *DoorMotor) Step(_ time.Duration, bus *sim.Bus) {
	v := m.vars
	if !m.started {
		if m.StartClosed {
			m.position = 1
		}
		m.started = true
	}
	dt := bus.StepSeconds()
	rate := dt / DoorTravelTime.Seconds()
	command := v.doorMotorCommand.ReadID()
	blocked := v.doorBlocked.Read()

	switch command {
	case v.closeID:
		if !blocked {
			m.position += rate
		}
	case v.openID:
		m.position -= rate
	}
	if m.position > 1 {
		m.position = 1
	}
	if m.position < 0 {
		m.position = 0
	}
	v.doorPosition.Write(m.position)
	v.doorClosed.Write(m.position >= 0.999)
}

// DispatchController latches hall and car calls into a destination floor for
// the door and drive controllers.
type DispatchController struct {
	target float64

	binding
}

// Reset implements sim.Resetter: pending destinations are forgotten.
func (c *DispatchController) Reset() { c.target = 0 }

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *DispatchController) Step(_ time.Duration, _ *sim.Bus) {
	v := c.vars
	if f := v.carCall.Read(); f >= 1 {
		c.target = f
	}
	if f := v.hallCall.Read(); f >= 1 {
		c.target = f
	}
	v.dispatchTarget.Write(c.target)
}

// DriveController commands the drive toward the dispatched floor.  Its
// behaviour realises the ICPA subgoal of Table 4.4 (stop when the doors are
// not closed or have been commanded open), the overweight goal of Figure 4.6
// and the hoistway-limit subgoal of Figure 4.10.
type DriveController struct {
	// IgnoreHoistwayLimit seeds the design defect used by the hoistway
	// scenario: the controller does not stop before the hoistway limit, so
	// only the emergency brake's redundant subgoal protects the system.
	IgnoreHoistwayLimit bool
	// IgnoreDoorState seeds a defect in which the controller moves the car
	// regardless of the door state, violating its Table 4.4 subgoal.
	IgnoreDoorState bool
	// IgnoreOverweight seeds a defect in which the controller ignores the
	// rated-load limit.
	IgnoreOverweight bool
	// OverrunTargetTo, when positive, makes the controller drive toward
	// this absolute position (in metres) regardless of the dispatched
	// floor; used to exercise the hoistway-limit goals.
	OverrunTargetTo float64

	binding
}

// Reset implements sim.Resetter: the controller is stateless beyond its
// seeded-defect configuration, which survives a reset.
func (c *DriveController) Reset() {}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *DriveController) Step(_ time.Duration, _ *sim.Bus) {
	v := c.vars
	target := v.dispatchTarget.Read()
	position := v.elevatorPosition.Read()
	doorClosed := v.doorClosed.Read()
	doorCommand := v.doorMotorCommand.ReadID()
	weight := v.elevatorWeight.Read()

	command := v.stopID
	targetPos := position
	haveTarget := target >= 1
	if haveTarget {
		targetPos = floorPosition(target)
	}
	if c.OverrunTargetTo > 0 {
		targetPos = c.OverrunTargetTo
		haveTarget = true
	}
	if haveTarget {
		arrived := math.Abs(targetPos-position) < 0.01
		doorSafe := (doorClosed && doorCommand != v.openID) || c.IgnoreDoorState
		overweight := weight > WeightThreshold && !c.IgnoreOverweight
		nearLimit := targetPos > position &&
			position >= HoistwayUpperLimit-MaxStoppingDistance &&
			!c.IgnoreHoistwayLimit
		if !arrived && doorSafe && !overweight && !nearLimit {
			command = v.goID
		}
	}
	v.driveCommand.WriteID(command)
	v.driveTarget.Write(targetPos)
	atFloor := 0.0
	if target >= 1 && math.Abs(floorPosition(target)-position) < 0.01 {
		atFloor = target
	}
	v.atTargetFloor.Write(atFloor)
}

// DoorController opens the doors on arrival at the dispatched landing and
// keeps them closed while the car moves, realising its Table 4.4 subgoal.
type DoorController struct {
	// OpenWhileMoving seeds the design defect used by the faulty-door
	// scenario: the controller opens the doors as soon as the car nears
	// the landing, while it is still moving.
	OpenWhileMoving bool

	dwellRemaining time.Duration
	servedTarget   float64

	binding
}

// Reset implements sim.Resetter.
func (c *DoorController) Reset() {
	c.dwellRemaining = 0
	c.servedTarget = 0
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *DoorController) Step(_ time.Duration, bus *sim.Bus) {
	v := c.vars
	dt := time.Duration(bus.StepSeconds() * float64(time.Second))
	stopped := v.elevatorStopped.Read()
	driveCommand := v.driveCommand.ReadID()
	blocked := v.doorBlocked.Read()
	atFloor := v.atTargetFloor.Read()
	position := v.elevatorPosition.Read()
	target := v.dispatchTarget.Read()

	arrivedAt := 0.0
	if atFloor >= 1 && stopped && driveCommand != v.goID {
		arrivedAt = atFloor
	}
	if c.OpenWhileMoving && target >= 1 && math.Abs(floorPosition(target)-position) < 0.6 {
		// Defect: treat "almost there" as arrived even while still moving.
		arrivedAt = target
	}
	if arrivedAt >= 1 && arrivedAt != c.servedTarget {
		c.dwellRemaining = DoorDwellTime
		c.servedTarget = arrivedAt
	}
	if blocked && c.dwellRemaining < DoorDwellTime/2 {
		// A blocked doorway re-opens the doors (door reversal, Eq. 4.7).
		c.dwellRemaining = DoorDwellTime / 2
	}

	command := v.closeID
	if c.dwellRemaining > 0 {
		command = v.openID
		c.dwellRemaining -= dt
	}
	// Subgoal Achieve[CloseDoorWhenElevatorMovingOrMoved]: when the car is
	// moving or commanded to move and the doorway is clear, close the doors
	// (overrides the dwell, except in the defective variant).
	if (!stopped || driveCommand == v.goID) && !blocked && !c.OpenWhileMoving {
		command = v.closeID
		c.dwellRemaining = 0
	}
	v.doorMotorCommand.WriteID(command)
}

// EmergencyBrake is the redundant-responsibility agent of Figure 4.11: it
// latches APPLIED when the car exceeds the emergency-braking envelope below
// the hoistway limit.
type EmergencyBrake struct {
	// Disabled removes the emergency brake's protection, for ablation runs.
	Disabled bool
	applied  bool

	binding
}

// Reset implements sim.Resetter: the latched brake releases.
func (b *EmergencyBrake) Reset() { b.applied = false }

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (b *EmergencyBrake) Step(_ time.Duration, _ *sim.Bus) {
	v := b.vars
	if !b.Disabled && v.elevatorPosition.Read() >= HoistwayUpperLimit-MaxEmergencyBrakingDistance {
		b.applied = true
	}
	state := v.releasedID
	if b.applied {
		state = v.appliedID
	}
	v.emergencyBrake.WriteID(state)
}

// PassengerAction is one scheduled passenger behaviour.
type PassengerAction struct {
	// At is the simulation time of the action.
	At time.Duration
	// CarCall, when >= 1, presses the in-car button for that floor.
	CarCall int
	// HallCall, when >= 1, presses the hall button for that floor.
	HallCall int
	// BlockDoorFor blocks the doorway for the given duration (0 = none).
	BlockDoorFor time.Duration
	// AddWeight adds load to the car in kilograms (negative to unload).
	AddWeight float64
}

// Passenger is the environmental agent of Figure 4.5: it presses buttons,
// blocks the doorway and loads the car according to a schedule.
type Passenger struct {
	// Actions is the schedule, in any order.
	Actions []PassengerAction

	blockUntil time.Duration
	weight     float64

	binding
}

// Reset implements sim.Resetter: the doorway clears and the car unloads.
// The action schedule is configuration and survives.
func (p *Passenger) Reset() {
	p.blockUntil = 0
	p.weight = 0
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (p *Passenger) Step(now time.Duration, bus *sim.Bus) {
	v := p.vars
	step := time.Duration(bus.StepSeconds() * float64(time.Second))
	carCall, hallCall := 0.0, 0.0
	for _, a := range p.Actions {
		if now >= a.At && now < a.At+step {
			if a.CarCall >= 1 {
				carCall = float64(a.CarCall)
			}
			if a.HallCall >= 1 {
				hallCall = float64(a.HallCall)
			}
			if a.BlockDoorFor > 0 {
				p.blockUntil = now + a.BlockDoorFor
			}
			p.weight += a.AddWeight
		}
	}
	if p.weight < 0 {
		p.weight = 0
	}
	v.carCall.Write(carCall)
	v.hallCall.Write(hallCall)
	v.doorBlocked.Write(now < p.blockUntil)
	v.elevatorWeight.Write(p.weight)
}
