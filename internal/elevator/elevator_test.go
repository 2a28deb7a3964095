package elevator

import (
	"slices"
	"testing"
	"time"

	"repro/internal/goals"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/temporal"
)

func TestFloorPosition(t *testing.T) {
	if got := floorPosition(1); got != 0 {
		t.Errorf("floorPosition(1) = %v, want 0", got)
	}
	if got := floorPosition(4); got != 9 {
		t.Errorf("floorPosition(4) = %v, want 9", got)
	}
}

func TestStepSecondsDefault(t *testing.T) {
	bus := sim.NewBus()
	if got := bindVars(bus).stepSeconds(); got != 0.01 {
		t.Errorf("default step = %v, want 0.01", got)
	}
	bus.InitNumber(SigPeriodSeconds, 0.002)
	if got := bindVars(bus).stepSeconds(); got != 0.002 {
		t.Errorf("step = %v, want 0.002", got)
	}
}

func TestComponentNames(t *testing.T) {
	names := map[string]interface{ Name() string }{
		"Drive":              &Drive{},
		"DoorMotor":          &DoorMotor{},
		"DispatchController": &DispatchController{},
		"DriveController":    &DriveController{},
		"DoorController":     &DoorController{},
		"EmergencyBrake":     &EmergencyBrake{},
		"Passenger":          &Passenger{},
	}
	for want, c := range names {
		if got := c.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestDriveRespondsToCommands(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Bus.InitString(SigDriveCommand, "GO")
	s.Bus.InitNumber(SigDriveTarget, 9)
	s.Bus.InitString(SigEmergencyBrake, "RELEASED")
	s.Add(&Drive{})
	tr := s.Run(15 * time.Second)

	final := tr.Last()
	if pos := final.Number(SigElevatorPosition); pos < 8.9 || pos > 9.1 {
		t.Errorf("drive should reach the target, got position %v", pos)
	}
	if !final.Bool(SigElevatorStopped) {
		t.Error("drive should report stopped at the target")
	}
	// Speed never exceeds the rated speed.
	for _, v := range tr.Series(SigElevatorSpeed) {
		if v > MaxSpeed+1e-6 {
			t.Fatalf("speed %v exceeds rated speed", v)
		}
	}
}

func TestDriveStopsOnEmergencyBrake(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Bus.InitString(SigDriveCommand, "GO")
	s.Bus.InitNumber(SigDriveTarget, 100)
	s.Bus.InitString(SigEmergencyBrake, "APPLIED")
	s.Add(&Drive{})
	tr := s.Run(5 * time.Second)
	if pos := tr.Last().Number(SigElevatorPosition); pos > 0.2 {
		t.Errorf("braked drive should barely move, got %v m", pos)
	}
}

func TestDoorMotorTravelAndBlocking(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Bus.InitString(SigDoorMotorCommand, "CLOSE")
	s.Bus.InitBool(SigDoorBlocked, false)
	s.Add(NewDoorMotor())
	tr := s.Run(3 * time.Second)
	if !tr.Last().Bool(SigDoorClosed) {
		t.Error("door commanded CLOSE for 3s should be closed")
	}
	// Closing takes about DoorTravelTime: not closed after half the stroke.
	halfway := tr.At(tr.Len() / 3)
	if halfway.Bool(SigDoorClosed) {
		t.Error("door should not be closed after a third of the stroke")
	}

	// A blocked door never closes.
	s2 := sim.New(DefaultPeriod)
	s2.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s2.Bus.InitString(SigDoorMotorCommand, "CLOSE")
	s2.Bus.InitBool(SigDoorBlocked, true)
	s2.Add(NewDoorMotor())
	tr2 := s2.Run(5 * time.Second)
	if tr2.Last().Bool(SigDoorClosed) {
		t.Error("blocked door must not close (Eq. 4.6)")
	}
}

func TestDoorMotorStartClosedAndOpen(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Bus.InitString(SigDoorMotorCommand, "OPEN")
	s.Add(&DoorMotor{StartClosed: true})
	tr := s.Run(3 * time.Second)
	if got := tr.At(0).Number(SigDoorPosition); got < 0.9 {
		t.Errorf("door starting closed should begin near the closed position, got %v", got)
	}
	if tr.Last().Bool(SigDoorClosed) {
		t.Error("door commanded OPEN should end up not closed")
	}
	if tr.Last().Number(SigDoorPosition) != 0 {
		t.Errorf("door position should saturate at 0, got %v", tr.Last().Number(SigDoorPosition))
	}
}

func TestDispatchControllerLatchesCalls(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Bus.InitNumber(SigCarCall, 0)
	s.Bus.InitNumber(SigHallCall, 3)
	s.Add(&DispatchController{})
	tr := s.Run(50 * time.Millisecond)
	if got := tr.Last().Number(SigDispatchTarget); got != 3 {
		t.Errorf("dispatch target = %v, want 3", got)
	}
}

func TestDriveControllerDoorInterlock(t *testing.T) {
	s := sim.New(DefaultPeriod)
	bus := s.Bus
	bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	bus.InitNumber(SigDispatchTarget, 3)
	bus.InitNumber(SigElevatorPosition, 0)
	bus.InitBool(SigDoorClosed, false)
	bus.InitString(SigDoorMotorCommand, "CLOSE")
	bus.InitNumber(SigElevatorWeight, 0)

	c := &DriveController{}
	// Door open: must command STOP even though a destination is pending.
	s.Add(c)
	tr := s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigDriveCommand); got != "STOP" {
		t.Errorf("with the door open the drive must be commanded STOP, got %q", got)
	}

	// Door closed: commands GO.
	bus.InitBool(SigDoorClosed, true)
	tr = s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigDriveCommand); got != "GO" {
		t.Errorf("with the door closed the drive should be commanded GO, got %q", got)
	}

	// Door closed but commanded OPEN: stop (Table 4.4 subgoal).
	bus.InitString(SigDoorMotorCommand, "OPEN")
	tr = s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigDriveCommand); got != "STOP" {
		t.Errorf("with the door commanded OPEN the drive must be commanded STOP, got %q", got)
	}
}

func TestDriveControllerOverweightAndLimit(t *testing.T) {
	s := sim.New(DefaultPeriod)
	bus := s.Bus
	bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	bus.InitNumber(SigDispatchTarget, 5)
	bus.InitNumber(SigElevatorPosition, 0)
	bus.InitBool(SigDoorClosed, true)
	bus.InitString(SigDoorMotorCommand, "CLOSE")
	bus.InitNumber(SigElevatorWeight, WeightThreshold+100)

	s.Add(&DriveController{})
	tr := s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigDriveCommand); got != "STOP" {
		t.Errorf("overweight car must not move, got %q", got)
	}

	// Near the hoistway limit the controller stops regardless of target.
	bus.InitNumber(SigElevatorWeight, 0)
	bus.InitNumber(SigElevatorPosition, HoistwayUpperLimit-MaxStoppingDistance+0.1)
	tr = s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigDriveCommand); got != "STOP" {
		t.Errorf("near the hoistway limit the drive must be commanded STOP, got %q", got)
	}
}

func TestEmergencyBrakeLatches(t *testing.T) {
	s := sim.New(DefaultPeriod)
	bus := s.Bus
	bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	bus.InitNumber(SigElevatorPosition, HoistwayUpperLimit)
	s.Add(&EmergencyBrake{})
	tr := s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigEmergencyBrake); got != "APPLIED" {
		t.Errorf("brake should be applied above the envelope, got %q", got)
	}
	// Latches even after the position drops (it must be manually reset).
	bus.InitNumber(SigElevatorPosition, 0)
	tr = s.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigEmergencyBrake); got != "APPLIED" {
		t.Errorf("brake should latch, got %q", got)
	}

	disabled := &EmergencyBrake{Disabled: true}
	s2 := sim.New(DefaultPeriod)
	s2.Bus.InitNumber(SigElevatorPosition, HoistwayUpperLimit)
	s2.Add(disabled)
	tr = s2.Run(30 * time.Millisecond)
	if got := tr.Last().StringVal(SigEmergencyBrake); got != "RELEASED" {
		t.Errorf("disabled brake should stay released, got %q", got)
	}
}

func TestPassengerSchedule(t *testing.T) {
	s := sim.New(DefaultPeriod)
	s.Bus.InitNumber(SigPeriodSeconds, DefaultPeriod.Seconds())
	s.Add(&Passenger{Actions: []PassengerAction{
		{At: 20 * time.Millisecond, CarCall: 3, AddWeight: 80},
		{At: 40 * time.Millisecond, HallCall: 2, BlockDoorFor: 30 * time.Millisecond},
		{At: 80 * time.Millisecond, AddWeight: -200},
	}})
	tr := s.Run(150 * time.Millisecond)

	// The car call appears at the scheduled step only.
	if got := tr.At(2).Number(SigCarCall); got != 3 {
		t.Errorf("car call at step 2 = %v, want 3", got)
	}
	if got := tr.At(4).Number(SigCarCall); got != 0 {
		t.Errorf("car call at step 4 = %v, want 0", got)
	}
	if got := tr.At(4).Number(SigHallCall); got != 2 {
		t.Errorf("hall call at step 4 = %v, want 2", got)
	}
	// The door is blocked for the requested window.
	if !tr.At(5).Bool(SigDoorBlocked) {
		t.Error("door should be blocked during the blocking window")
	}
	if tr.At(9).Bool(SigDoorBlocked) {
		t.Error("door should be unblocked after the window")
	}
	// Weight accumulates and never goes negative.
	if got := tr.At(3).Number(SigElevatorWeight); got != 80 {
		t.Errorf("weight = %v, want 80", got)
	}
	if got := tr.Last().Number(SigElevatorWeight); got != 0 {
		t.Errorf("weight should clamp at zero, got %v", got)
	}
}

func TestGoalsCatalogue(t *testing.T) {
	r := Goals()
	if r.Len() != 8 {
		t.Fatalf("catalogue has %d goals, want 8", r.Len())
	}
	for _, name := range []string{
		GoalDoorClosedOrStopped, GoalDriveStoppedWhenOverweight, GoalBelowHoistwayLimit,
		SubgoalCloseDoorWhenMoving, SubgoalStopWhenDoorOpen, SubgoalDriveStopOverweight,
		SubgoalStopBeforeLimit, SubgoalEmergencyStopBeforeLimit,
	} {
		if !slices.ContainsFunc(r.All(), func(g goals.Goal) bool { return g.Name == name }) {
			t.Errorf("catalogue is missing %s", name)
		}
	}
	// All catalogued goals are monitorable at run time.
	for _, g := range r.All() {
		cs := monitor.NewCompiledSuite(DefaultPeriod, nil)
		if err := cs.AddHierarchy(monitor.GoalAt{Goal: g, Location: "test"}, 0); err != nil {
			t.Errorf("goal %s is not monitorable: %v", g.Name, err)
		}
	}
}

func TestElevatorGoalFormulas(t *testing.T) {
	// The Table 4.4 subgoals are realizable by their assigned controllers
	// in the ICPA model (after the Observes sets are granted).
	a := DoorDriveICPA()
	for name, r := range a.CheckRealizability() {
		if !r.Realizable {
			t.Errorf("subgoal %s should be realizable: %s", name, r)
		}
	}
}

func TestModelAgentsAndPaths(t *testing.T) {
	m := Model()
	// The 13 agents of Figure 4.5.
	for _, name := range []string{
		"ElevatorSpeedSensor", "ElevatorPositionSensor", "DoorClosedSensor", "WeightSensor",
		"Drive", "DoorMotor", "DriveController", "DoorController", "DispatchController",
		"CarButtonController", "HallButtonController", "EmergencyBrake", "Passenger",
	} {
		if _, ok := m.Agent(name); !ok {
			t.Errorf("model is missing agent %s", name)
		}
	}
	g := Goals().MustGet(GoalDoorClosedOrStopped)
	var agents []string
	for _, p := range m.IndirectControlPaths(g, 0) {
		for _, s := range p.Sources {
			agents = append(agents, s.Agent)
		}
	}
	// Both branches: door side and drive side reach most of the system.
	for _, want := range []string{"DoorMotor", "DoorController", "Drive", "DriveController", "DispatchController", "Passenger"} {
		found := false
		for _, a := range agents {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("influencing agents should include %s: %v", want, agents)
		}
	}
}

func TestDoorDriveICPATables(t *testing.T) {
	a := DoorDriveICPA()
	if len(a.Relationships) != 12 {
		t.Errorf("Tables 4.1/4.2 relationships = %d, want 12", len(a.Relationships))
	}
	if len(a.Subgoals) != 2 {
		t.Errorf("Table 4.4 subgoals = %d, want 2", len(a.Subgoals))
	}
	if a.Coverage.Assignment != 3 { // SharedResponsibility
		t.Errorf("coverage assignment = %v, want shared responsibility", a.Coverage.Assignment)
	}
	if len(criticalAssumptions(a)) == 0 {
		t.Error("elaboration should reference critical assumptions")
	}
	out := a.Render()
	if len(out) < 500 {
		t.Errorf("rendered ICPA table looks too small: %d bytes", len(out))
	}
}

func TestHoistwayICPA(t *testing.T) {
	a := HoistwayICPA()
	if len(a.Subgoals) != 2 {
		t.Fatalf("hoistway ICPA subgoals = %d, want 2", len(a.Subgoals))
	}
	redundant := 0
	for _, sg := range a.Subgoals {
		if sg.Redundant {
			redundant++
		}
	}
	if redundant != 1 {
		t.Errorf("exactly one subgoal (the emergency brake) should be redundant, got %d", redundant)
	}
	for name, r := range a.CheckRealizability() {
		if !r.Realizable {
			t.Errorf("subgoal %s should be realizable: %s", name, r)
		}
	}
}

func TestScenarioCatalogue(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 5 {
		t.Fatalf("scenario catalogue has %d entries, want 5", len(scs))
	}
	names := make(map[string]bool)
	for _, sc := range scs {
		if sc.Name == "" || sc.Description == "" || sc.Duration <= 0 {
			t.Errorf("scenario %+v is incomplete", sc)
		}
		names[sc.Name] = true
	}
	for _, want := range []string{"nominal", "door-defect", "overweight", "hoistway-defect", "hoistway-unprotected"} {
		if !names[want] {
			t.Errorf("missing scenario %q", want)
		}
	}
}

func TestBuildSuite(t *testing.T) {
	suite := BuildSuiteWithSchema(DefaultPeriod, temporal.NewSchema()).Suite()
	if got := len(suite.Hierarchies()); got != 3 {
		t.Errorf("suite hierarchies = %d, want 3 (one per system goal)", got)
	}
	if got := len(suite.Monitors()); got != 8 {
		t.Errorf("suite monitors = %d, want 8", got)
	}
}
