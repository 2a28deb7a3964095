package elevator

// Differential test for simulation reuse on the elevator substrate: one
// simulation — bus, schema, handle table, component set and compiled monitor
// suite — is rewound with Simulation.Reset and reconfigured for every
// scenario, and its classification must match a fresh elevator.Run of the
// same scenario.  This proves the component Reset paths restore every piece
// of internal state (latched brake, door dwell, dispatched target, car
// position, passenger load).

import (
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
)

func TestElevatorSimulationReuse(t *testing.T) {
	s := sim.New(DefaultPeriod)
	passenger := &Passenger{}
	dispatch := &DispatchController{}
	driveCtl := &DriveController{}
	doorCtl := &DoorController{}
	brake := &EmergencyBrake{}
	drive := &Drive{}
	door := NewDoorMotor()
	components := []sim.Component{passenger, dispatch, driveCtl, doorCtl, brake, drive, door}
	BindAll(s.Bus, components...)
	s.Add(components...)

	var suite *monitor.CompiledSuite

	// The scenario set is run twice through the same simulation, so every
	// run but the first follows a differently configured, fully exercised
	// one — including the defect configurations that latch the brake and
	// drive the car to the hoistway limit.
	scenarios := append(Scenarios(), Scenarios()...)
	for i, sc := range scenarios {
		s.Reset()
		passenger.Actions = sc.Passenger
		driveCtl.IgnoreHoistwayLimit = sc.HoistwayDefect
		driveCtl.IgnoreDoorState = sc.DriveDoorDefect
		driveCtl.IgnoreOverweight = sc.OverweightDefect
		driveCtl.OverrunTargetTo = 0
		if sc.HoistwayDefect {
			driveCtl.OverrunTargetTo = HoistwayUpperLimit + 2
		}
		doorCtl.OpenWhileMoving = sc.DoorDefect
		brake.Disabled = sc.DisableEmergencyBrake
		initElevatorBus(s.Bus)

		if suite == nil {
			suite = BuildSuiteWithSchema(DefaultPeriod, s.Bus.Schema())
			s.Observe(suite)
		} else {
			suite.Reset()
		}

		duration := sc.Duration
		if duration <= 0 {
			duration = 30 * time.Second
		}
		s.RunDiscard(duration)
		suite.Finish()

		got := suite.FastSummaryAt(matchTolerance)
		want := Run(sc).Summary
		if got != want {
			t.Errorf("pass %d, %s: reused-simulation summary %v != fresh-run summary %v",
				i/len(Scenarios()), sc.Name, got, want)
		}
	}
}
