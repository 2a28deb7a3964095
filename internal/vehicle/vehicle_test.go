package vehicle

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

const testPeriod = time.Millisecond

// testSim is a simulation whose Add binds the vehicle components it
// registers, as the scenario runners do with BindAll.
type testSim struct{ *sim.Simulation }

// Add binds the components to the simulation's bus and registers them.
func (s testSim) Add(cs ...sim.Component) {
	BindAll(s.Bus, cs...)
	s.Simulation.Add(cs...)
}

// newSim returns a simulation with the standard bus initialisation used by
// the component tests.
func newSim() testSim {
	s := testSim{sim.New(testPeriod)}
	s.Bus.InitString(SigGear, "D")
	s.Bus.InitString(SigAccelSource, SourceNone)
	s.Bus.InitNumber(SigAccelCommand, 0)
	s.Bus.InitNumber(SigSteerCommand, 0)
	s.Bus.InitNumber(SigVehicleSpeed, 0)
	s.Bus.InitNumber(SigVehiclePosition, 0)
	s.Bus.InitNumber(SigObjectDistance, 1e9)
	s.Bus.InitNumber(SigRearObjectDistance, 1e9)
	return s
}

func TestSignalNameHelpers(t *testing.T) {
	if SigActive("CA") != "CA.Active" || SigAccelRequest("PA") != "PA.AccelRequest" ||
		SigRequestingAccel("ACC") != "ACC.RequestingAccel" || SigSteerRequest("LCA") != "LCA.SteerRequest" ||
		SigRequestingSteer("PA") != "PA.RequestingSteer" || SigRequestJerk("CA") != "CA.RequestJerk" ||
		SigSelected("RCA") != "RCA.Selected" {
		t.Error("signal name helpers produced unexpected names")
	}
}

func TestDynamicsTracksCommandWithOvershoot(t *testing.T) {
	s := newSim()
	s.Bus.InitNumber(SigAccelCommand, 2.0)
	s.Bus.InitString(SigAccelSource, SourceACC)
	s.Add(&Dynamics{})
	tr := s.Run(3 * time.Second)

	maxAccel, finalAccel := 0.0, tr.Last().Number(SigVehicleAccel)
	for _, a := range tr.Series(SigVehicleAccel) {
		if a > maxAccel {
			maxAccel = a
		}
	}
	if finalAccel < 1.9 || finalAccel > 2.1 {
		t.Errorf("steady-state acceleration = %v, want about 2.0", finalAccel)
	}
	// The second-order response overshoots a step command; this is the
	// behaviour behind the vehicle-level false negatives.
	if maxAccel <= 2.05 {
		t.Errorf("peak acceleration = %v, expected an overshoot above the command", maxAccel)
	}
	if maxAccel > 2.6 {
		t.Errorf("peak acceleration = %v, overshoot unrealistically large", maxAccel)
	}
	if got := tr.Last().Number(SigVehicleSpeed); got <= 0 {
		t.Error("vehicle should have gained speed")
	}
	if !tr.Last().Bool(SigInForwardMotion) {
		t.Error("vehicle should be in forward motion")
	}
}

func TestDynamicsCreepWhenIdle(t *testing.T) {
	s := newSim()
	s.Add(&Dynamics{})
	tr := s.Run(5 * time.Second)
	speed := tr.Last().Number(SigVehicleSpeed)
	if speed < 0.5 || speed > 2.0 {
		t.Errorf("idle creep speed = %v, want a low positive speed", speed)
	}

	// In reverse the creep is backwards.
	s2 := newSim()
	s2.Bus.InitString(SigGear, "R")
	s2.Add(&Dynamics{})
	tr2 := s2.Run(5 * time.Second)
	if got := tr2.Last().Number(SigVehicleSpeed); got > -0.5 {
		t.Errorf("reverse creep speed = %v, want negative", got)
	}
	if !tr2.Last().Bool(SigInBackwardMotion) {
		t.Error("reverse creep should report backward motion")
	}
}

func TestDynamicsBrakingClampsAtZeroForDriver(t *testing.T) {
	s := newSim()
	s.Bus.InitNumber(SigAccelCommand, -5)
	s.Bus.InitString(SigAccelSource, SourceDriver)
	s.Add(&Dynamics{InitialSpeed: 3})
	tr := s.Run(4 * time.Second)
	final := tr.Last().Number(SigVehicleSpeed)
	if final < 0 || final > 0.05 {
		t.Errorf("driver braking should hold the vehicle at rest, got %v", final)
	}
	if !tr.Last().Bool(SigVehicleStopped) {
		t.Error("vehicle should report stopped")
	}
}

func TestDynamicsACCBrakingDoesNotClamp(t *testing.T) {
	// The seeded defect: braking under ACC control passes through zero.
	s := newSim()
	s.Bus.InitNumber(SigAccelCommand, -1.5)
	s.Bus.InitString(SigAccelSource, SourceACC)
	s.Add(&Dynamics{InitialSpeed: 2})
	tr := s.Run(5 * time.Second)
	if got := tr.Last().Number(SigVehicleSpeed); got >= 0 {
		t.Errorf("speed = %v, expected the negative-speed defect under ACC control", got)
	}
}

func TestObjectRanges(t *testing.T) {
	s := newSim()
	s.Bus.InitNumber(SigVehiclePosition, 0)
	s.Add(&Object{InitialDistance: 20, Speed: 0})
	tr := s.Run(10 * time.Millisecond)
	if got := tr.Last().Number(SigObjectDistance); math.Abs(got-20) > 0.1 {
		t.Errorf("forward object distance = %v, want 20", got)
	}
	if tr.Last().Bool(SigCollision) {
		t.Error("no collision expected at 20 m")
	}

	s2 := newSim()
	s2.Add(&Object{InitialDistance: -8, Speed: 0})
	tr2 := s2.Run(10 * time.Millisecond)
	if got := tr2.Last().Number(SigRearObjectDistance); math.Abs(got-8) > 0.1 {
		t.Errorf("rear object distance = %v, want 8", got)
	}
	if got := tr2.Last().Number(SigObjectDistance); got < 1e8 {
		t.Errorf("forward distance for a rear object = %v, want sentinel", got)
	}
}

func TestObjectCollisionDetection(t *testing.T) {
	s := newSim()
	s.Add(
		StaticSignal{SigVehiclePosition, 0},
		&Object{InitialDistance: 2, Speed: -3}, // object closing fast (oncoming)
	)
	tr := s.Run(2 * time.Second)
	collided := false
	for _, v := range tr.BoolSeries(SigCollision) {
		if v {
			collided = true
		}
	}
	if !collided {
		t.Error("an oncoming object crossing the host position should register a collision")
	}
}

// StaticSignal is a test helper component that republishes a constant
// numeric value every step.
type StaticSignal struct {
	Signal string
	Value  float64
}

// Step implements sim.Component.
func (s StaticSignal) Step(_ time.Duration, bus *sim.Bus) { bus.NumVar(s.Signal).Write(s.Value) }

func TestDriverScheduleAndPulses(t *testing.T) {
	throttle := Level(0.5)
	s := newSim()
	s.Add(&Driver{
		InitialGear: "D",
		Schedule: []DriverAction{
			{At: 5 * time.Millisecond, Throttle: throttle, EnableCA: Flag(true)},
			{At: 10 * time.Millisecond, EngageACC: Flag(true), Go: Flag(true), SetSpeed: Level(20)},
			{At: 15 * time.Millisecond, Gear: GearSel("R"), Brake: Level(0.4), Steering: Level(2)},
		},
	})
	tr := s.Run(25 * time.Millisecond)

	if !tr.At(6).Bool(SigThrottlePedal) || tr.At(6).Number(SigThrottleLevel) != 0.5 {
		t.Error("throttle should be applied from its scheduled time")
	}
	if !tr.At(6).Bool(SigCAEnabled) {
		t.Error("CA should be enabled")
	}
	// Engage and Go are one-state pulses.
	if !tr.At(10).Bool(SigACCEngageRequest) {
		t.Error("engage request should pulse at its scheduled step")
	}
	if tr.At(12).Bool(SigACCEngageRequest) {
		t.Error("engage request should not latch")
	}
	if !tr.At(10).Bool(SigHMIGo) || tr.At(12).Bool(SigHMIGo) {
		t.Error("HMI go should pulse for one state")
	}
	if got := tr.At(11).Number(SigACCSetSpeed); got != 20 {
		t.Errorf("set speed = %v, want 20", got)
	}
	// Later actions: gear, brake, steering.
	last := tr.Last()
	if last.StringVal(SigGear) != "R" || !last.Bool(SigBrakePedal) || !last.Bool(SigSteeringActive) {
		t.Error("gear/brake/steering actions not applied")
	}
	if !last.Bool(SigPedalApplied) {
		t.Error("PedalApplied should reflect the brake")
	}
}

// TestDriverSameTickActionsApplyInScheduleOrder pins the order of actions
// that fire inside one step window: each applies in schedule order, so when
// two set the same input the later schedule entry wins, while an input only
// the earlier entry names keeps its value.
func TestDriverSameTickActionsApplyInScheduleOrder(t *testing.T) {
	s := newSim()
	s.Add(&Driver{
		Schedule: []DriverAction{
			// Both fire in the tick at 5 ms: its window is [At, At+1ms).
			{At: 4*time.Millisecond + 500*time.Microsecond, Throttle: Level(0.3), Brake: Level(0.2)},
			{At: 5 * time.Millisecond, Throttle: Level(0.7)},
			{At: 8 * time.Millisecond, Gear: GearSel("R")},
			{At: 8 * time.Millisecond, Gear: GearSel("D")},
		},
	})
	tr := s.Run(12 * time.Millisecond)
	if got := tr.At(5).Number(SigThrottleLevel); got != 0.7 {
		t.Errorf("throttle at 5 ms = %v, want the later entry's 0.7", got)
	}
	if got := tr.At(5).Number(SigBrakeLevel); got != 0.2 {
		t.Errorf("brake at 5 ms = %v, want 0.2 from the earlier entry", got)
	}
	if got := tr.At(9).StringVal(SigGear); got != "D" {
		t.Errorf("gear at 9 ms = %q, want the later entry's D", got)
	}
}

func TestDriverDefaultGear(t *testing.T) {
	s := newSim()
	s.Add(&Driver{})
	tr := s.Run(5 * time.Millisecond)
	if got := tr.Last().StringVal(SigGear); got != "D" {
		t.Errorf("default gear = %q, want D", got)
	}
}

func TestCollisionAvoidanceBrakesAndIntermittentDefect(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigCAEnabled, true)
	s.Bus.InitNumber(SigVehicleSpeed, 10)
	s.Bus.InitNumber(SigObjectDistance, 12)
	s.Bus.InitNumber(SigObjectSpeed, 0)
	ca := NewCollisionAvoidance()
	s.Add(ca)
	tr := s.Run(2 * time.Second)

	active := tr.BoolSeries(SigActive(SourceCA))
	requests := tr.Series(SigAccelRequest(SourceCA))
	everActive, everCancelled := false, false
	for i := range active {
		if active[i] && requests[i] == CABrakeRequest {
			everActive = true
		}
		if everActive && !active[i] {
			everCancelled = true
		}
	}
	if !everActive {
		t.Fatal("CA should engage and request hard braking")
	}
	if !everCancelled {
		t.Error("the intermittent-braking defect should briefly cancel the action")
	}

	// Without the defect, braking is continuous once engaged.
	s2 := newSim()
	s2.Bus.InitBool(SigCAEnabled, true)
	s2.Bus.InitNumber(SigVehicleSpeed, 10)
	s2.Bus.InitNumber(SigObjectDistance, 12)
	caClean := NewCollisionAvoidance()
	caClean.IntermittentBraking = false
	s2.Add(caClean)
	tr2 := s2.Run(2 * time.Second)
	active2 := tr2.BoolSeries(SigActive(SourceCA))
	started := false
	for i := range active2 {
		if active2[i] {
			started = true
		}
		if started && !active2[i] {
			t.Fatal("without the defect CA should not cancel its braking action")
		}
	}
}

func TestCollisionAvoidanceIgnoresReverseAndDisabled(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigCAEnabled, false)
	s.Bus.InitNumber(SigVehicleSpeed, 10)
	s.Bus.InitNumber(SigObjectDistance, 3)
	s.Add(NewCollisionAvoidance())
	tr := s.Run(100 * time.Millisecond)
	if tr.Last().Bool(SigActive(SourceCA)) {
		t.Error("disabled CA must not activate")
	}

	s2 := newSim()
	s2.Bus.InitBool(SigCAEnabled, true)
	s2.Bus.InitString(SigGear, "R")
	s2.Bus.InitNumber(SigVehicleSpeed, 10)
	s2.Bus.InitNumber(SigObjectDistance, 3)
	s2.Add(NewCollisionAvoidance())
	tr2 := s2.Run(100 * time.Millisecond)
	if tr2.Last().Bool(SigActive(SourceCA)) {
		t.Error("CA must not activate in reverse")
	}
}

func TestRearCollisionAvoidanceDefect(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigRCAEnabled, true)
	s.Bus.InitString(SigGear, "R")
	s.Bus.InitNumber(SigVehicleSpeed, -2)
	s.Bus.InitNumber(SigRearObjectDistance, 3)
	s.Add(NewRearCollisionAvoidance())
	tr := s.Run(100 * time.Millisecond)
	if tr.Last().Bool(SigActive(SourceRCA)) {
		t.Error("the seeded defect means RCA never engages")
	}

	s2 := newSim()
	s2.Bus.InitBool(SigRCAEnabled, true)
	s2.Bus.InitString(SigGear, "R")
	s2.Bus.InitNumber(SigVehicleSpeed, -2)
	s2.Bus.InitNumber(SigRearObjectDistance, 3)
	rca := NewRearCollisionAvoidance()
	rca.NeverEngages = false
	s2.Add(rca)
	tr2 := s2.Run(100 * time.Millisecond)
	if !tr2.Last().Bool(SigActive(SourceRCA)) {
		t.Error("a corrected RCA should engage when reversing toward a close object")
	}
	if got := tr2.Last().Number(SigAccelRequest(SourceRCA)); got <= 0 {
		t.Errorf("RCA braking request should oppose reverse motion, got %v", got)
	}
}

func TestACCEngagementRules(t *testing.T) {
	run := func(speed float64, gear string, withoutChecks bool) bool {
		s := newSim()
		s.Bus.InitBool(SigACCEnabled, true)
		s.Bus.InitBool(SigACCEngageRequest, true)
		s.Bus.InitString(SigGear, gear)
		s.Bus.InitNumber(SigVehicleSpeed, speed)
		acc := NewAdaptiveCruiseControl()
		acc.EngageWithoutChecks = withoutChecks
		s.Add(acc)
		s.Run(10 * time.Millisecond)
		return acc.Engaged()
	}
	if !run(10, "D", true) {
		t.Error("ACC should engage while rolling forward")
	}
	if !run(-2, "R", true) {
		t.Error("the seeded defect accepts engagement in reverse")
	}
	if run(0, "D", true) {
		t.Error("engagement at a standstill is rejected (Scenario 10)")
	}
	if run(-2, "R", false) {
		t.Error("with the direction check restored, reverse engagement is rejected")
	}
}

func TestACCControlsWhenNotEngagedDefect(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigACCEnabled, true)
	s.Bus.InitNumber(SigVehicleSpeed, 8)
	s.Add(NewAdaptiveCruiseControl())
	tr := s.Run(50 * time.Millisecond)
	last := tr.Last()
	if last.Bool(SigActive(SourceACC)) {
		t.Error("ACC must not report active while not engaged")
	}
	if !last.Bool(SigRequestingAccel(SourceACC)) {
		t.Error("the seeded defect keeps emitting acceleration requests while not engaged")
	}
	if got := last.Number(SigAccelRequest(SourceACC)); got >= 0 {
		t.Errorf("the not-engaged controller drives toward 0 m/s, so the request should be negative, got %v", got)
	}
}

func TestACCDisengagesOnBrake(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigACCEnabled, true)
	s.Bus.InitBool(SigACCEngageRequest, true)
	s.Bus.InitNumber(SigVehicleSpeed, 10)
	acc := NewAdaptiveCruiseControl()
	s.Add(acc)
	s.Run(10 * time.Millisecond)
	if !acc.Engaged() {
		t.Fatal("ACC should be engaged")
	}
	s.Bus.InitBool(SigBrakePedal, true)
	s.Run(10 * time.Millisecond)
	if acc.Engaged() {
		t.Error("the brake pedal should cancel ACC")
	}
}

func TestLaneChangeAssistSharesACCLongitudinalControl(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigLCAEnabled, true)
	s.Bus.InitBool(SigLCAEngageRequest, true)
	s.Bus.InitNumber(SigAccelRequest(SourceACC), -1.2)
	s.Add(NewLaneChangeAssist())
	tr := s.Run(10 * time.Millisecond)
	last := tr.Last()
	if !last.Bool(SigActive(SourceLCA)) {
		t.Fatal("LCA should engage")
	}
	if got := last.Number(SigAccelRequest(SourceLCA)); got != -1.2 {
		t.Errorf("LCA should forward ACC's longitudinal request, got %v", got)
	}
	if !last.Bool(SigRequestingSteer(SourceLCA)) || last.Number(SigSteerRequest(SourceLCA)) == 0 {
		t.Error("LCA should request steering toward the adjacent lane")
	}
}

func TestParkAssistSpuriousRequestProfile(t *testing.T) {
	// Figure 5.3: +2 m/s² until 2.186 s, 0 until 9.33 s, −2 m/s² until
	// 9.624 s, then 0, all while PA is neither enabled nor active.
	s := newSim()
	s.Add(NewParkAssist())
	tr := s.Run(10 * time.Second)

	readAt := func(d time.Duration) float64 {
		return tr.At(int(d / testPeriod)).Number(SigAccelRequest(SourcePA))
	}
	if got := readAt(1 * time.Second); got != 2 {
		t.Errorf("PA request at 1s = %v, want 2", got)
	}
	if got := readAt(5 * time.Second); got != 0 {
		t.Errorf("PA request at 5s = %v, want 0", got)
	}
	if got := readAt(9500 * time.Millisecond); got != -2 {
		t.Errorf("PA request at 9.5s = %v, want -2", got)
	}
	if got := readAt(9900 * time.Millisecond); got != 0 {
		t.Errorf("PA request at 9.9s = %v, want 0", got)
	}
	for _, active := range tr.BoolSeries(SigActive(SourcePA)) {
		if active {
			t.Fatal("PA must never report active while not engaged")
		}
	}

	// Without the defect the disabled PA is silent.
	s2 := newSim()
	pa := NewParkAssist()
	pa.SpuriousRequests = false
	s2.Add(pa)
	tr2 := s2.Run(3 * time.Second)
	for _, req := range tr2.Series(SigAccelRequest(SourcePA)) {
		if req != 0 {
			t.Fatal("a corrected PA should not request acceleration while disabled")
		}
	}
}

func TestParkAssistEngagedBehaviour(t *testing.T) {
	s := newSim()
	s.Bus.InitBool(SigPAEnabled, true)
	s.Bus.InitBool(SigPAEngageRequest, true)
	s.Bus.InitNumber(SigObjectDistance, 10)
	s.Add(NewParkAssist())
	tr := s.Run(20 * time.Millisecond)
	last := tr.Last()
	if !last.Bool(SigActive(SourcePA)) || !last.Bool(SigRequestingAccel(SourcePA)) || !last.Bool(SigRequestingSteer(SourcePA)) {
		t.Fatal("engaged PA should be active and requesting both acceleration and steering")
	}
	if got := last.Number(SigAccelRequest(SourcePA)); got != 2 {
		t.Errorf("engaged PA request = %v, want 2", got)
	}

	// Close to the obstacle it backs off.
	s2 := newSim()
	s2.Bus.InitBool(SigPAEnabled, true)
	s2.Bus.InitBool(SigPAEngageRequest, true)
	s2.Bus.InitNumber(SigObjectDistance, 1)
	s2.Add(NewParkAssist())
	tr2 := s2.Run(20 * time.Millisecond)
	if got := tr2.Last().Number(SigAccelRequest(SourcePA)); got != -2 {
		t.Errorf("PA request close to the obstacle = %v, want -2", got)
	}
}

func TestFeatureRequestJerkSignal(t *testing.T) {
	s := newSim()
	s.Add(NewParkAssist())
	tr := s.Run(3 * time.Second)
	// At the 2.186 s step down from +2 to 0 the request jerk spikes.
	idx := int(2186 * time.Millisecond / testPeriod)
	if got := tr.At(idx).Number(SigRequestJerk(SourcePA)); got >= 0 {
		t.Errorf("request jerk at the step = %v, want a large negative value", got)
	}
}
