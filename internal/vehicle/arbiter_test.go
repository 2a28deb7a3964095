package vehicle

import (
	"testing"
	"time"
)

// arbiterSim builds a simulation containing only the arbiter, with feature
// and driver signals injected directly onto the bus.
func arbiterSim() testSim {
	s := newSim()
	for _, f := range FeatureNames {
		s.Bus.InitBool(SigActive(f), false)
		s.Bus.InitBool(SigRequestingAccel(f), false)
		s.Bus.InitNumber(SigAccelRequest(f), 0)
		s.Bus.InitBool(SigRequestingSteer(f), false)
		s.Bus.InitNumber(SigSteerRequest(f), 0)
	}
	s.Bus.InitNumber(SigThrottleLevel, 0)
	s.Bus.InitNumber(SigBrakeLevel, 0)
	s.Bus.InitBool(SigSteeringActive, false)
	return s
}

func TestArbiterSelectsHighestPriorityFeature(t *testing.T) {
	s := arbiterSim()
	s.Bus.InitBool(SigActive(SourceACC), true)
	s.Bus.InitBool(SigRequestingAccel(SourceACC), true)
	s.Bus.InitNumber(SigAccelRequest(SourceACC), 1.5)
	s.Bus.InitBool(SigActive(SourceCA), true)
	s.Bus.InitBool(SigRequestingAccel(SourceCA), true)
	s.Bus.InitNumber(SigAccelRequest(SourceCA), CABrakeRequest)
	s.Add(NewArbiter())
	tr := s.Run(10 * time.Millisecond)
	last := tr.Last()
	if got := last.StringVal(SigAccelSource); got != SourceCA {
		t.Errorf("accel source = %q, want CA (highest priority)", got)
	}
	if got := last.Number(SigAccelCommand); got != CABrakeRequest {
		t.Errorf("accel command = %v, want %v", got, CABrakeRequest)
	}
	if !last.Bool(SigSelected(SourceCA)) || last.Bool(SigSelected(SourceACC)) {
		t.Error("selected flags should mark CA only")
	}
	if !last.Bool(SigAccelFromSubsystem) {
		t.Error("command should be attributed to a subsystem")
	}
}

func TestArbiterDriverPedalMapping(t *testing.T) {
	s := arbiterSim()
	s.Bus.InitNumber(SigThrottleLevel, 0.5)
	s.Add(NewArbiter())
	tr := s.Run(10 * time.Millisecond)
	if got := tr.Last().Number(SigAccelCommand); got != 0.5*MaxDriverAccel {
		t.Errorf("throttle command = %v, want %v", got, 0.5*MaxDriverAccel)
	}
	if got := tr.Last().StringVal(SigAccelSource); got != SourceDriver {
		t.Errorf("source = %q, want Driver", got)
	}

	s2 := arbiterSim()
	s2.Bus.InitNumber(SigThrottleLevel, 0.5)
	s2.Bus.InitNumber(SigBrakeLevel, 0.5)
	s2.Add(NewArbiter())
	tr2 := s2.Run(10 * time.Millisecond)
	if got := tr2.Last().Number(SigAccelCommand); got != 0.5*MaxDriverBrake {
		t.Errorf("brake takes precedence over throttle: command = %v, want %v", got, 0.5*MaxDriverBrake)
	}

	// Reverse gear flips the pedal signs.
	s3 := arbiterSim()
	s3.Bus.InitString(SigGear, "R")
	s3.Bus.InitNumber(SigThrottleLevel, 0.5)
	s3.Add(NewArbiter())
	tr3 := s3.Run(10 * time.Millisecond)
	if got := tr3.Last().Number(SigAccelCommand); got != -0.5*MaxDriverAccel {
		t.Errorf("reverse throttle command = %v, want %v", got, -0.5*MaxDriverAccel)
	}
	s4 := arbiterSim()
	s4.Bus.InitString(SigGear, "R")
	s4.Bus.InitNumber(SigBrakeLevel, 1)
	s4.Add(NewArbiter())
	if got := s4.Run(10 * time.Millisecond).Last().Number(SigAccelCommand); got != -MaxDriverBrake {
		t.Errorf("reverse brake command = %v, want %v", got, -MaxDriverBrake)
	}
}

func TestArbiterDriverOverridesSoftRequests(t *testing.T) {
	build := func(request float64, overrideDelay time.Duration) testSim {
		s := arbiterSim()
		s.Bus.InitNumber(SigThrottleLevel, 0.4)
		s.Bus.InitBool(SigActive(SourceACC), true)
		s.Bus.InitBool(SigRequestingAccel(SourceACC), true)
		s.Bus.InitNumber(SigAccelRequest(SourceACC), request)
		a := NewArbiter()
		a.OverrideCheckDelay = overrideDelay
		s.Add(a)
		return s
	}

	// Soft request with the defect disabled: the driver wins immediately.
	tr := build(1.0, 0).Run(20 * time.Millisecond)
	if got := tr.Last().StringVal(SigAccelSource); got != SourceDriver {
		t.Errorf("driver should override a soft request, source = %q", got)
	}

	// Hard braking request: the feature keeps control (goals 5/6 allow it).
	s := arbiterSim()
	s.Bus.InitNumber(SigThrottleLevel, 0.4)
	s.Bus.InitBool(SigActive(SourceCA), true)
	s.Bus.InitBool(SigRequestingAccel(SourceCA), true)
	s.Bus.InitNumber(SigAccelRequest(SourceCA), CABrakeRequest)
	s.Add(NewArbiter())
	tr = s.Run(20 * time.Millisecond)
	if got := tr.Last().StringVal(SigAccelSource); got != SourceCA {
		t.Errorf("an emergency stop must not be overridden, source = %q", got)
	}

	// With the seeded override-check delay, the feature holds control for
	// the delay window and then loses it (the Scenario 4 behaviour).
	sim4 := build(1.0, 50*time.Millisecond)
	tr = sim4.Run(200 * time.Millisecond)
	early := tr.At(10).StringVal(SigAccelSource)
	late := tr.Last().StringVal(SigAccelSource)
	if early != SourceACC {
		t.Errorf("during the override-check delay the feature should hold control, got %q", early)
	}
	if late != SourceDriver {
		t.Errorf("after the delay the driver should regain control, got %q", late)
	}
}

func TestArbiterSteeringDefectRoutesAccelCommand(t *testing.T) {
	// Scenario 2: CA is braking (selected for acceleration) while PA is
	// merely enabled; the steering stage selects PA (reversed priority,
	// enabled features participate) and its acceleration request becomes
	// the final command, halved by the PA mismatch defect.
	s := arbiterSim()
	s.Bus.InitBool(SigActive(SourceCA), true)
	s.Bus.InitBool(SigRequestingAccel(SourceCA), true)
	s.Bus.InitNumber(SigAccelRequest(SourceCA), CABrakeRequest)
	s.Bus.InitBool(SigPAEnabled, true)
	s.Bus.InitNumber(SigAccelRequest(SourcePA), 2.0)
	s.Add(NewArbiter())
	tr := s.Run(10 * time.Millisecond)
	last := tr.Last()

	if !last.Bool(SigSelected(SourceCA)) {
		t.Error("CA should still be marked selected by the acceleration stage")
	}
	if got := last.StringVal(SigSteerSource); got != SourcePA {
		t.Errorf("steer source = %q, want PA", got)
	}
	if got := last.Number(SigAccelCommand); got != 1.0 {
		t.Errorf("final command = %v, want PA's request halved (1.0), not CA's braking", got)
	}

	// With the defects disabled, CA's braking request reaches the command.
	s2 := arbiterSim()
	s2.Bus.InitBool(SigActive(SourceCA), true)
	s2.Bus.InitBool(SigRequestingAccel(SourceCA), true)
	s2.Bus.InitNumber(SigAccelRequest(SourceCA), CABrakeRequest)
	s2.Bus.InitBool(SigPAEnabled, true)
	s2.Bus.InitNumber(SigAccelRequest(SourcePA), 2.0)
	clean := NewArbiter()
	clean.SteeringStageOverridesAccel = false
	clean.EnabledFeaturesJoinSteering = false
	s2.Add(clean)
	tr2 := s2.Run(10 * time.Millisecond)
	if got := tr2.Last().Number(SigAccelCommand); got != CABrakeRequest {
		t.Errorf("corrected arbiter command = %v, want %v", got, CABrakeRequest)
	}
}

func TestArbiterAgreementSignal(t *testing.T) {
	// LCA requests both acceleration and steering; ACC outranks it for
	// acceleration while LCA wins steering, so the agreement goal fails.
	s := arbiterSim()
	s.Bus.InitBool(SigActive(SourceACC), true)
	s.Bus.InitBool(SigRequestingAccel(SourceACC), true)
	s.Bus.InitNumber(SigAccelRequest(SourceACC), -1.5)
	s.Bus.InitBool(SigActive(SourceLCA), true)
	s.Bus.InitBool(SigRequestingAccel(SourceLCA), true)
	s.Bus.InitBool(SigRequestingSteer(SourceLCA), true)
	s.Bus.InitBool(SigLCAEnabled, true)
	s.Bus.InitNumber(SigAccelRequest(SourceLCA), -1.5)
	s.Add(NewArbiter())
	tr := s.Run(10 * time.Millisecond)
	last := tr.Last()
	if last.Bool(SigAccelSteeringAgreement) {
		t.Error("agreement should be violated when LCA is granted steering but not acceleration")
	}
	if got := last.StringVal(SigAccelSource); got != SourceACC {
		t.Errorf("accel source = %q, want ACC", got)
	}
	if got := last.StringVal(SigSteerSource); got != SourceLCA {
		t.Errorf("steer source = %q, want LCA", got)
	}
}

func TestArbiterDriverSteeringWins(t *testing.T) {
	s := arbiterSim()
	s.Bus.InitBool(SigSteeringActive, true)
	s.Bus.InitNumber(SigSteeringInput, 3)
	s.Bus.InitBool(SigActive(SourceLCA), true)
	s.Bus.InitBool(SigRequestingSteer(SourceLCA), true)
	s.Bus.InitBool(SigLCAEnabled, true)
	s.Add(NewArbiter())
	last := s.Run(10 * time.Millisecond).Last()
	if got := last.StringVal(SigSteerSource); got != SourceDriver {
		t.Errorf("steer source = %q, want Driver", got)
	}
	if last.Bool(SigSteerFromSubsystem) {
		t.Error("steering must not be attributed to a subsystem while the driver steers")
	}
	if got := last.Number(SigSteerCommand); got != 3 {
		t.Errorf("steer command = %v, want the driver input", got)
	}
}

func TestArbiterIdleOutputs(t *testing.T) {
	s := arbiterSim()
	s.Add(NewArbiter())
	last := s.Run(10 * time.Millisecond).Last()
	if got := last.StringVal(SigAccelSource); got != SourceNone {
		t.Errorf("idle accel source = %q, want None", got)
	}
	if last.Bool(SigAccelFromSubsystem) || last.Bool(SigSteerFromSubsystem) {
		t.Error("idle outputs must not be attributed to a subsystem")
	}
	if !last.Bool(SigAccelSteeringAgreement) {
		t.Error("agreement holds vacuously when nothing requests control")
	}
}

func TestArbiterSoftRequestFlags(t *testing.T) {
	s := arbiterSim()
	s.Bus.InitBool(SigActive(SourcePA), true)
	s.Bus.InitBool(SigRequestingAccel(SourcePA), true)
	s.Bus.InitNumber(SigAccelRequest(SourcePA), 1.0)
	s.Add(NewArbiter())
	last := s.Run(10 * time.Millisecond).Last()
	if !last.Bool(SigSelectedSoftRequestFwd) {
		t.Error("a +1 m/s² request is a soft forward request")
	}
	if !last.Bool(SigSelectedSoftRequestBwd) {
		t.Error("a +1 m/s² request is also soft in the backward sense")
	}

	s2 := arbiterSim()
	s2.Bus.InitBool(SigActive(SourceCA), true)
	s2.Bus.InitBool(SigRequestingAccel(SourceCA), true)
	s2.Bus.InitNumber(SigAccelRequest(SourceCA), CABrakeRequest)
	s2.Add(NewArbiter())
	last2 := s2.Run(10 * time.Millisecond).Last()
	if last2.Bool(SigSelectedSoftRequestFwd) {
		t.Error("an emergency braking request is not a soft forward request")
	}
}

func TestSteeringOrderReversedDefect(t *testing.T) {
	a := NewArbiter()
	order := a.steeringOrder()
	if order[0] != idxPA || order[len(order)-1] != idxCA {
		t.Errorf("reversed steering priority should start with PA, got %v", order)
	}
	a.ReversedSteeringPriority = false
	order = a.steeringOrder()
	if order[0] != idxCA {
		t.Errorf("normal priority should start with CA, got %v", order)
	}
}

func TestVehicleModel(t *testing.T) {
	m := Model()
	for _, name := range []string{
		"Driver", "HMI", "CA", "RCA", "ACC", "LCA", "PA", "Arbiter", "Powertrain", "MotionSensors", "ObjectSensors",
	} {
		if _, ok := m.Agent(name); !ok {
			t.Errorf("vehicle model is missing agent %s", name)
		}
	}
	arbiter, ok := m.Agent("Arbiter")
	if !ok {
		t.Fatal("Arbiter agent missing from the model")
	}
	if !arbiter.CanControl(SigAccelCommand) || !arbiter.CanMonitor(SigAccelRequest(SourceCA)) {
		t.Error("Arbiter capabilities look wrong")
	}
	// Every feature's request variable is indirectly reachable from the
	// vehicle acceleration via the Arbiter and powertrain.
	path := m.IndirectControlPath(SigVehicleAccel, 0)
	var names []string
	for _, s := range path.Sources {
		names = append(names, s.Agent)
	}
	for _, want := range []string{"Arbiter", "Powertrain", "MotionSensors", "CA", "ACC", "PA", "Driver"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("indirect control path of vehicle acceleration should include %s: %v", want, names)
		}
	}
}
