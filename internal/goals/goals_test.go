package goals

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/temporal"
)

func TestGoalConstruction(t *testing.T) {
	g := MustParse("Maintain[DoorClosedOrElevatorStopped]",
		"At all times the door shall be closed or the elevator speed shall be STOPPED.",
		"dc | IsStopped_es")
	if g.Name != "Maintain[DoorClosedOrElevatorStopped]" {
		t.Errorf("Name = %q", g.Name)
	}
	if got := g.Vars(); !reflect.DeepEqual(got, []string{"IsStopped_es", "dc"}) {
		t.Errorf("Vars() = %v", got)
	}
	s := g.String()
	for _, want := range []string{"Goal: Maintain[", "InformalDef:", "FormalDef:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestMonitoredControlledInference(t *testing.T) {
	g := MustParse("Achieve[StopBeforeLimit]",
		"If the elevator nears the upper hoistway limit, the drive shall be stopped.",
		"prev(etp >= 390) => drc == 'STOP'")
	if got := g.MonitoredVars(); !reflect.DeepEqual(got, []string{"etp"}) {
		t.Errorf("MonitoredVars() = %v", got)
	}
	if got := g.ControlledVars(); !reflect.DeepEqual(got, []string{"drc"}) {
		t.Errorf("ControlledVars() = %v", got)
	}

	// Explicit sets override inference.
	g2 := g.WithVars([]string{"a", "b", "a"}, []string{"c"})
	if got := g2.MonitoredVars(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("explicit MonitoredVars() = %v", got)
	}
	if got := g2.ControlledVars(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Errorf("explicit ControlledVars() = %v", got)
	}

	// Non-implication goals control all their variables.
	g3 := MustParse("Maintain[X]", "", "dc | es")
	if got := g3.MonitoredVars(); got != nil {
		t.Errorf("MonitoredVars() = %v, want nil", got)
	}
	if got := g3.ControlledVars(); !reflect.DeepEqual(got, []string{"dc", "es"}) {
		t.Errorf("ControlledVars() = %v", got)
	}

	var empty Goal
	if empty.ControlledVars() != nil || empty.Vars() != nil {
		t.Error("empty goal should have no variables")
	}
}

func TestGoalWithAssignee(t *testing.T) {
	g := MustParse("G", "", "A => B").WithAssignee("DoorController", "DriveController")
	if !reflect.DeepEqual(g.Assignee, []string{"DoorController", "DriveController"}) {
		t.Errorf("Assignee = %v", g.Assignee)
	}
}

func TestGoalHolds(t *testing.T) {
	g := MustParse("Achieve[AutoAccelBelowThreshold]",
		"Vehicle acceleration caused by autonomous control shall not exceed 2 m/s2.",
		"sourceIsSubsystem => va <= 2")
	if !HoldsInState(g.Formal, temporal.NewState().SetBool("sourceIsSubsystem", true).SetNumber("va", 1.0)) {
		t.Error("goal should hold: autonomous acceleration below 2 m/s2")
	}
	if !HoldsInState(g.Formal, temporal.NewState().SetBool("sourceIsSubsystem", false).SetNumber("va", 5.0)) {
		t.Error("goal should hold: driver-caused acceleration is unconstrained")
	}
	if HoldsInState(g.Formal, temporal.NewState().SetBool("sourceIsSubsystem", true).SetNumber("va", 2.5)) {
		t.Error("goal should be violated by autonomous acceleration above 2 m/s2")
	}
	if !HoldsInState(nil, temporal.NewState()) {
		t.Error("an informal goal (nil formula) should hold")
	}
}

func TestAgentKinds(t *testing.T) {
	for k, want := range map[AgentKind]string{
		KindSoftware: "software", KindActuator: "actuator", KindSensor: "sensor",
		KindEnvironment: "environment", AgentKind(0): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("AgentKind.String() = %q, want %q", got, want)
		}
	}
}

func TestAgentCapabilities(t *testing.T) {
	ag := NewAgent("DriveController", KindSoftware,
		[]string{"DoorClosed", "DoorMotorCommand", "DoorClosed"},
		[]string{"DriveCommand"})
	if !ag.CanMonitor("DoorClosed") || ag.CanMonitor("ElevatorWeight") {
		t.Error("CanMonitor wrong")
	}
	if !ag.CanControl("DriveCommand") || ag.CanControl("DoorMotorCommand") {
		t.Error("CanControl wrong")
	}
	if got := len(ag.Monitors); got != 2 {
		t.Errorf("duplicate monitors not removed: %v", ag.Monitors)
	}
}

func TestCheckRealizability(t *testing.T) {
	drive := NewAgent("DriveController", KindSoftware,
		[]string{"DoorClosed", "DoorMotorCommand"}, []string{"DriveCommand"})

	tests := []struct {
		name       string
		goal       Goal
		agent      Agent
		realizable bool
		causes     []UnrealizabilityCause
	}{
		{
			name: "realizable delayed antecedent",
			goal: MustParse("Achieve[StopElevatorWhenDoorOpen]",
				"If the door is open, the drive shall be commanded to STOP.",
				"prev(!DoorClosed) => DriveCommand == 'STOP'"),
			agent:      drive,
			realizable: true,
		},
		{
			name: "same-state observation is a reference to the future",
			goal: MustParse("G", "",
				"!DoorClosed => DriveCommand == 'STOP'"),
			agent:  drive,
			causes: []UnrealizabilityCause{CauseReferenceToFuture},
		},
		{
			name: "lack of monitorability",
			goal: MustParse("G", "",
				"prev(ElevatorWeight > 1000) => DriveCommand == 'STOP'"),
			agent:  drive,
			causes: []UnrealizabilityCause{CauseLackOfMonitorability},
		},
		{
			name: "lack of control",
			goal: MustParse("G", "",
				"prev(!DoorClosed) => DoorMotorCommand == 'OPEN'"),
			agent:  drive,
			causes: []UnrealizabilityCause{CauseLackOfControl},
		},
		{
			name: "unbounded future reference",
			goal: New("Achieve[TrainProgress]", "",
				temporal.Implies(temporal.Var("OnBlock"), temporal.Eventually(temporal.Var("OnNextBlock")))),
			agent: NewAgent("Train", KindSoftware, []string{"OnBlock"}, []string{"OnBlock", "OnNextBlock"}),
			causes: []UnrealizabilityCause{
				CauseReferenceToFuture,
			},
		},
		{
			name: "controlling antecedent avoids future reference",
			goal: MustParse("G", "",
				"DriveCommand == 'GO' => DriveCommand != 'STOP'"),
			agent:      drive,
			realizable: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := CheckRealizability(tt.goal, tt.agent)
			if r.Realizable != tt.realizable {
				t.Fatalf("Realizable = %v, want %v (%s)", r.Realizable, tt.realizable, r)
			}
			if !tt.realizable {
				if len(r.Causes) == 0 {
					t.Fatal("unrealizable goal must report causes")
				}
				for _, want := range tt.causes {
					found := false
					for _, c := range r.Causes {
						if c == want {
							found = true
						}
					}
					if !found {
						t.Errorf("missing cause %v in %v", want, r.Causes)
					}
				}
			}
		})
	}
}

func TestRealizabilityStringAndCauseString(t *testing.T) {
	r := Realizability{Realizable: true}
	if r.String() != "realizable" {
		t.Errorf("String() = %q", r.String())
	}
	r = Realizability{Causes: []UnrealizabilityCause{CauseLackOfControl, CauseReferenceToFuture}}
	if !strings.Contains(r.String(), "lack of control") {
		t.Errorf("String() = %q", r.String())
	}
	for c, want := range map[UnrealizabilityCause]string{
		CauseNone:                 "realizable",
		CauseLackOfMonitorability: "lack of monitorability",
		CauseLackOfControl:        "lack of control",
		CauseReferenceToFuture:    "reference to future",
		CauseUnsatisfiable:        "goal unsatisfiability",
		UnrealizabilityCause(99):  "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("cause.String() = %q, want %q", got, want)
		}
	}
}
