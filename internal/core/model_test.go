package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/goals"
)

// miniElevatorModel builds a reduced version of the Figure 4.5 distributed
// elevator control system, sufficient to exercise path tracing.
func miniElevatorModel() *SystemModel {
	m := NewSystemModel("distributed elevator (partial)")

	m.AddAgent(goals.NewAgent("ElevatorSpeedSensor", goals.KindSensor,
		[]string{"DriveSpeed"}, []string{"ElevatorSpeed"}))
	m.AddAgent(goals.NewAgent("DoorClosedSensor", goals.KindSensor,
		[]string{"DoorPosition"}, []string{"DoorClosed"}))
	m.AddAgent(goals.NewAgent("Drive", goals.KindActuator,
		[]string{"DriveCommand"}, []string{"DriveSpeed"}))
	m.AddAgent(goals.NewAgent("DoorMotor", goals.KindActuator,
		[]string{"DoorMotorCommand", "DoorBlocked"}, []string{"DoorPosition"}))
	// The base functional design of Figure 4.5: DriveController acts on
	// dispatch requests only; the cross-monitoring of DoorClosed and
	// DriveCommand is introduced later by the Table 4.4 subgoals.
	m.AddAgent(goals.NewAgent("DriveController", goals.KindSoftware,
		[]string{"DispatchRequest"}, []string{"DriveCommand"}))
	m.AddAgent(goals.NewAgent("DoorController", goals.KindSoftware,
		[]string{"DispatchRequest", "DoorBlocked"}, []string{"DoorMotorCommand"}))
	m.AddAgent(goals.NewAgent("DispatchController", goals.KindSoftware,
		[]string{"HallCall", "CarCall"}, []string{"DispatchRequest"}))
	m.AddAgent(goals.NewAgent("CarButtonController", goals.KindSoftware,
		[]string{"CarButtonPress"}, []string{"CarCall"}))
	m.AddAgent(goals.NewAgent("HallButtonController", goals.KindSoftware,
		[]string{"HallButtonPress"}, []string{"HallCall"}))
	m.AddAgent(goals.NewAgent("Passenger", goals.KindEnvironment,
		nil, []string{"DoorBlocked", "CarButtonPress", "HallButtonPress", "ElevatorWeight"}))
	return m
}

// pathAgents returns the sorted names of the agents on the paths, each once.
func pathAgents(paths ...ControlPath) []string {
	var out []string
	for _, p := range paths {
		for _, s := range p.Sources {
			out = append(out, s.Agent)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSystemModelAgentsAndVariables checks agent registration and that the
// path search follows the variables each registered agent controls.
func TestSystemModelAgentsAndVariables(t *testing.T) {
	m := miniElevatorModel()
	if _, ok := m.Agent("DriveController"); !ok {
		t.Error("DriveController should be registered")
	}
	if _, ok := m.Agent("Nobody"); ok {
		t.Error("unknown agent lookup should fail")
	}
	// Re-adding an agent replaces rather than duplicates: the Passenger
	// no longer presses buttons, so it leaves the ElevatorSpeed path.
	m.AddAgent(goals.NewAgent("Passenger", goals.KindEnvironment, nil, []string{"DoorBlocked"}))
	if p, _ := m.Agent("Passenger"); !reflect.DeepEqual(p.Controls, []string{"DoorBlocked"}) {
		t.Errorf("after re-add, Passenger controls %v, want [DoorBlocked]", p.Controls)
	}
	if got := pathAgents(m.IndirectControlPath("ElevatorSpeed", 0)); slices.Contains(got, "Passenger") {
		t.Errorf("after re-add, the ElevatorSpeed path still reaches the Passenger: %v", got)
	}
}

func TestIndirectControlPathElevatorSpeed(t *testing.T) {
	// Thesis §4.4.1: the control path of ElevatorSpeed contains Drive,
	// DriveController, DispatchController, CarButtonController and
	// HallButtonController (plus the sensor that produces the variable).
	m := miniElevatorModel()
	p := m.IndirectControlPath("ElevatorSpeed", 0)

	if p.Variable != "ElevatorSpeed" {
		t.Errorf("Variable = %q", p.Variable)
	}
	got := pathAgents(p)
	want := []string{
		"CarButtonController", "DispatchController", "Drive", "DriveController",
		"ElevatorSpeedSensor", "HallButtonController", "Passenger",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("path agents = %v, want %v", got, want)
	}

	// Levels: sensor at 1, Drive at 2, DriveController at 3,
	// DispatchController at 4, button controllers at 5, Passenger at 6.
	levelOf := func(agent string) int {
		for _, s := range p.Sources {
			if s.Agent == agent {
				return s.Level
			}
		}
		return -1
	}
	for agent, level := range map[string]int{
		"ElevatorSpeedSensor":  1,
		"Drive":                2,
		"DriveController":      3,
		"DispatchController":   4,
		"CarButtonController":  5,
		"HallButtonController": 5,
		"Passenger":            6,
	} {
		if got := levelOf(agent); got != level {
			t.Errorf("level of %s = %d, want %d", agent, got, level)
		}
	}
}

func TestIndirectControlPathBranching(t *testing.T) {
	// DoorClosed has a branched path: DoorMotor/DoorController on one
	// branch and the Passenger (via DoorBlocked) on another.
	m := miniElevatorModel()
	p := m.IndirectControlPath("DoorClosed", 0)
	agents := pathAgents(p)
	for _, want := range []string{"DoorClosedSensor", "DoorMotor", "DoorController", "Passenger", "DispatchController"} {
		found := false
		for _, a := range agents {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("path of DoorClosed should include %s, got %v", want, agents)
		}
	}
	// The Passenger is reached at level 3 (sensor -> door motor -> passenger
	// via DoorBlocked), before the button-press branch would reach it again;
	// each agent appears exactly once at its shallowest level.
	count := 0
	for _, s := range p.Sources {
		if s.Agent == "Passenger" {
			count++
			if s.Level != 3 {
				t.Errorf("Passenger level = %d, want 3", s.Level)
			}
		}
	}
	if count != 1 {
		t.Errorf("Passenger should appear exactly once, got %d", count)
	}
}

func TestIndirectControlPathMaxDepth(t *testing.T) {
	m := miniElevatorModel()
	p := m.IndirectControlPath("ElevatorSpeed", 2)
	maxLevel := 0
	for _, s := range p.Sources {
		maxLevel = max(maxLevel, s.Level)
	}
	if maxLevel != 2 {
		t.Errorf("deepest level = %d, want 2 when maxDepth=2", maxLevel)
	}
}

func TestIndirectControlPathUnknownVariable(t *testing.T) {
	m := miniElevatorModel()
	p := m.IndirectControlPath("NotAVariable", 0)
	if len(p.Sources) != 0 {
		t.Errorf("unknown variable should have an empty path, got %v", p.Sources)
	}
}

func TestIndirectControlPathsForGoal(t *testing.T) {
	m := miniElevatorModel()
	g := goals.MustParse("Maintain[DoorClosedOrElevatorStopped]",
		"At all times the door shall be closed or the elevator speed shall be STOPPED.",
		"DoorClosed | ElevatorSpeed == 0")
	paths := m.IndirectControlPaths(g, 0)
	if len(paths) != 2 {
		t.Fatalf("expected 2 paths (one per goal variable), got %d", len(paths))
	}
	agents := pathAgents(paths...)
	if len(agents) < 8 {
		t.Errorf("influencing agents = %v, expected most of the system", agents)
	}
}
