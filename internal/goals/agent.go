package goals

import (
	"sort"
	"strings"

	"repro/internal/temporal"
)

// AgentKind distinguishes the kinds of agents found along indirect control
// paths (thesis §4.2, Figure 4.4).
type AgentKind int

// Agent kinds.
const (
	// KindSoftware is a software agent (controller, feature subsystem).
	KindSoftware AgentKind = iota + 1
	// KindActuator is a physical actuator that changes system state after
	// an actuation delay.
	KindActuator
	// KindSensor is a sensor that produces a sensed state variable.
	KindSensor
	// KindEnvironment is an environmental agent such as the Passenger or
	// Driver that the design does not control.
	KindEnvironment
)

// String returns a human-readable name for the agent kind.
func (k AgentKind) String() string {
	switch k {
	case KindSoftware:
		return "software"
	case KindActuator:
		return "actuator"
	case KindSensor:
		return "sensor"
	case KindEnvironment:
		return "environment"
	default:
		return "unknown"
	}
}

// Agent is an entity that monitors and controls state variables.  Monitors
// are the variables the agent can observe (one state late, per the KAOS
// convention used throughout the thesis); Controls are the variables the
// agent directly produces.
type Agent struct {
	// Name identifies the agent, e.g. "DriveController" or "Arbiter".
	Name string
	// Kind classifies the agent.
	Kind AgentKind
	// Monitors lists the state variables the agent can observe.
	Monitors []string
	// Controls lists the state variables the agent directly controls.
	Controls []string
}

// NewAgent constructs an agent with the given capability sets.
func NewAgent(name string, kind AgentKind, monitors, controls []string) Agent {
	return Agent{
		Name:     name,
		Kind:     kind,
		Monitors: sortedUnique(monitors),
		Controls: sortedUnique(controls),
	}
}

// CanMonitor reports whether the agent can observe the variable.
func (a Agent) CanMonitor(name string) bool { return contains(a.Monitors, name) }

// CanControl reports whether the agent directly controls the variable.
func (a Agent) CanControl(name string) bool { return contains(a.Controls, name) }

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// UnrealizabilityCause classifies why a goal is not strictly realizable by
// an agent (thesis §2.3.2, Letier & van Lamsweerde's categories).
type UnrealizabilityCause int

// Unrealizability causes.
const (
	// CauseNone means the goal is realizable.
	CauseNone UnrealizabilityCause = iota
	// CauseLackOfMonitorability: a monitored variable is not observable by
	// the agent.
	CauseLackOfMonitorability
	// CauseLackOfControl: a controlled variable is not controllable by the
	// agent.
	CauseLackOfControl
	// CauseReferenceToFuture: the goal constrains current control actions
	// using values the agent can only observe in the future (e.g. the goal
	// contains an unbounded Eventually, or requires observing and
	// controlling in the same state).
	CauseReferenceToFuture
	// CauseUnsatisfiable: the goal is unsatisfiable regardless of agent
	// capabilities.
	CauseUnsatisfiable
)

// String names the unrealizability cause.
func (c UnrealizabilityCause) String() string {
	switch c {
	case CauseNone:
		return "realizable"
	case CauseLackOfMonitorability:
		return "lack of monitorability"
	case CauseLackOfControl:
		return "lack of control"
	case CauseReferenceToFuture:
		return "reference to future"
	case CauseUnsatisfiable:
		return "goal unsatisfiability"
	default:
		return "unknown"
	}
}

// Realizability is the result of checking a goal against an agent's
// capabilities.
type Realizability struct {
	// Realizable reports whether the goal is strictly realizable by the
	// agent.
	Realizable bool
	// Causes lists the reasons the goal is unrealizable (empty when
	// realizable).
	Causes []UnrealizabilityCause
	// MissingMonitored lists monitored variables the agent cannot observe.
	MissingMonitored []string
	// MissingControlled lists controlled variables the agent cannot
	// control.
	MissingControlled []string
}

// String summarises the realizability result.
func (r Realizability) String() string {
	if r.Realizable {
		return "realizable"
	}
	parts := make([]string, 0, len(r.Causes))
	for _, c := range r.Causes {
		parts = append(parts, c.String())
	}
	return "unrealizable: " + strings.Join(parts, ", ")
}

// CheckRealizability checks whether the agent can strictly realize the goal:
// every monitored variable of the goal must be in Mon(ag) and every
// controlled variable in Ctrl(ag) (thesis §2.3.2).  A goal whose formal
// definition references the unbounded future is never realizable.  A goal of
// the form A ⇒ B whose antecedent is not under a past-time operator and not
// controlled by the agent also yields a reference-to-future cause, because
// the agent would have to observe A and control B in the same state
// (thesis §4.5.3, Table 4.5).
func CheckRealizability(g Goal, ag Agent) Realizability {
	var r Realizability
	causeSet := make(map[UnrealizabilityCause]struct{})

	if g.Formal != nil && temporal.ReferencesFuture(g.Formal) {
		causeSet[CauseReferenceToFuture] = struct{}{}
	}

	for _, v := range g.MonitoredVars() {
		if !ag.CanMonitor(v) && !ag.CanControl(v) {
			r.MissingMonitored = append(r.MissingMonitored, v)
			causeSet[CauseLackOfMonitorability] = struct{}{}
		}
	}
	for _, v := range g.ControlledVars() {
		if !ag.CanControl(v) {
			r.MissingControlled = append(r.MissingControlled, v)
			causeSet[CauseLackOfControl] = struct{}{}
		}
	}

	// Same-state observation: for A ⇒ B where A is observed (not
	// controlled by the agent) and not wrapped in a past-time operator,
	// the agent cannot monitor A and control B in the same state.
	if ant := temporal.Antecedent(g.Formal); ant != nil {
		if !temporal.IsDelayed(ant) {
			needsObservation := false
			for _, v := range ant.Vars() {
				if !ag.CanControl(v) {
					needsObservation = true
					break
				}
			}
			if needsObservation {
				causeSet[CauseReferenceToFuture] = struct{}{}
			}
		}
	}

	if len(causeSet) == 0 {
		r.Realizable = true
		return r
	}
	for c := range causeSet {
		r.Causes = append(r.Causes, c)
	}
	sort.Slice(r.Causes, func(i, j int) bool { return r.Causes[i] < r.Causes[j] })
	sort.Strings(r.MissingMonitored)
	sort.Strings(r.MissingControlled)
	return r
}
