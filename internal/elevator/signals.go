package elevator

import "repro/internal/sim"

// busVars is the elevator system's view of the bus, with every signal the
// components touch resolved to a slot-indexed handle exactly once per run.
// Components bind lazily on their first Step (guarded by a pointer compare),
// so they work whether driven by a Simulation or stepped by hand in tests.
type busVars struct {
	bus *sim.Bus

	periodSeconds sim.NumVar

	doorClosed       sim.BoolVar
	doorBlocked      sim.BoolVar
	doorPosition     sim.NumVar
	doorMotorCommand sim.StringVar

	elevatorSpeed    sim.NumVar
	elevatorStopped  sim.BoolVar
	elevatorPosition sim.NumVar
	driveCommand     sim.StringVar
	driveTarget      sim.NumVar
	elevatorWeight   sim.NumVar

	dispatchTarget sim.NumVar
	carCall        sim.NumVar
	hallCall       sim.NumVar
	emergencyBrake sim.StringVar
	atTargetFloor  sim.NumVar

	// Interned enumeration ids of the command and brake values, bound once
	// so the per-step writes and checks compare ids, not strings.
	goID, stopID          int32
	openID, closeID       int32
	appliedID, releasedID int32
}

// bindVars resolves every elevator signal against the bus schema once.
func bindVars(bus *sim.Bus) *busVars {
	return &busVars{
		bus: bus,

		periodSeconds: bus.NumVar(SigPeriodSeconds),

		doorClosed:       bus.BoolVar(SigDoorClosed),
		doorBlocked:      bus.BoolVar(SigDoorBlocked),
		doorPosition:     bus.NumVar(SigDoorPosition),
		doorMotorCommand: bus.StringVar(SigDoorMotorCommand),

		elevatorSpeed:    bus.NumVar(SigElevatorSpeed),
		elevatorStopped:  bus.BoolVar(SigElevatorStopped),
		elevatorPosition: bus.NumVar(SigElevatorPosition),
		driveCommand:     bus.StringVar(SigDriveCommand),
		driveTarget:      bus.NumVar(SigDriveTarget),
		elevatorWeight:   bus.NumVar(SigElevatorWeight),

		dispatchTarget: bus.NumVar(SigDispatchTarget),
		carCall:        bus.NumVar(SigCarCall),
		hallCall:       bus.NumVar(SigHallCall),
		emergencyBrake: bus.StringVar(SigEmergencyBrake),
		atTargetFloor:  bus.NumVar(SigAtTargetFloor),

		goID:       bus.EnumID("GO"),
		stopID:     bus.EnumID("STOP"),
		openID:     bus.EnumID("OPEN"),
		closeID:    bus.EnumID("CLOSE"),
		appliedID:  bus.EnumID("APPLIED"),
		releasedID: bus.EnumID("RELEASED"),
	}
}

// binding caches a component's busVars; components embed it and call on()
// at the top of Step.  The pointer guard re-binds when the component is
// reused against a different bus, so hand-constructed components work
// without BindAll.
type binding struct {
	vars *busVars
}

func (b *binding) on(bus *sim.Bus) *busVars {
	if b.vars == nil || b.vars.bus != bus {
		b.vars = bindVars(bus)
	}
	return b.vars
}

func (b *binding) setVars(v *busVars) { b.vars = v }

// BindAll resolves one shared handle set against the bus and hands it to
// every elevator component in the list, so a run builds the handle table
// once instead of once per component.
func BindAll(bus *sim.Bus, comps ...sim.Component) {
	v := bindVars(bus)
	for _, c := range comps {
		if b, ok := c.(interface{ setVars(*busVars) }); ok {
			b.setVars(v)
		}
	}
}

// stepSeconds returns the simulation period in seconds (10 ms default).
func (v *busVars) stepSeconds() float64 {
	if dt := v.periodSeconds.Read(); dt > 0 {
		return dt
	}
	return 0.01
}
