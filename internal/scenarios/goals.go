// Package scenarios reproduces the thesis' Chapter 5 evaluation: the nine
// vehicle-level safety goals of Tables 5.1/5.2, the ICPA-derived subgoals
// and their monitoring locations (Table 5.3), the ten driving scenarios of
// Section 5.4, the per-scenario violation tables of Appendix D and the time
// series behind Figures 5.2–5.15.
package scenarios

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/goals"
	"repro/internal/monitor"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// System safety goal names (Tables 5.1 and 5.2).
const (
	Goal1AutoAccel        = "Achieve[AutoAccelBelowThreshold]"
	Goal2AutoJerk         = "Achieve[AutoJerkBelowThreshold]"
	Goal3Agreement        = "Achieve[SubsystemAccelSteeringAgreement]"
	Goal4NoAccelFromStop  = "Achieve[NoAutoAccelFromStop]"
	Goal5ForwardOverride  = "Achieve[DriverForwardAccelOverride]"
	Goal6BackwardOverride = "Achieve[DriverBackwardAccelOverride]"
	Goal7SteeringOverride = "Achieve[DriverSteeringOverride]"
	Goal8ForwardBlock     = "Achieve[ForwardBlockAccelSteering]"
	Goal9BackwardBlock    = "Achieve[BackwardBlockAccelSteering]"
)

// GoalNames lists the nine system safety goals in thesis order.
var GoalNames = []string{
	Goal1AutoAccel, Goal2AutoJerk, Goal3Agreement, Goal4NoAccelFromStop,
	Goal5ForwardOverride, Goal6BackwardOverride, Goal7SteeringOverride,
	Goal8ForwardBlock, Goal9BackwardBlock,
}

// MonitorLocations lists the monitoring locations of Table 5.3 in column
// order.
var MonitorLocations = []string{"Vehicle", "Arbiter", "CA", "ACC", "RCA", "LCA", "PA"}

// stoppedLongEnough is the goal-4 antecedent fragment: the vehicle has been
// stopped for StoppedTime, where the initial state counts as "stopped since
// the beginning" (the thesis' monitors flagged Park Assist at simulation
// start).
func stoppedLongEnough() string {
	return fmt.Sprintf("(prevfor[%s](%s) | (initially(%s) & hist(%s) & %s))",
		vehicle.StoppedTime, vehicle.SigVehicleStopped,
		vehicle.SigVehicleStopped, vehicle.SigVehicleStopped, vehicle.SigVehicleStopped)
}

func noRecentThrottleOrGo() string {
	return fmt.Sprintf("!prevwithin[%s](%s) & !prevwithin[%s](%s)",
		vehicle.GoTime, vehicle.SigThrottlePedal, vehicle.GoTime, vehicle.SigHMIGo)
}

// VehicleGoals returns the nine system-level safety goals of Tables 5.1/5.2,
// expressed over the simulation's sensed signals.
func VehicleGoals() *goals.Registry {
	r := goals.NewRegistry()

	r.Add(goals.MustParse(Goal1AutoAccel,
		"Vehicle acceleration caused by autonomous vehicle control shall not exceed 2 m/s².",
		fmt.Sprintf("%s => %s <= %g",
			vehicle.SigAccelFromSubsystem, vehicle.SigVehicleAccel, vehicle.AutoAccelLimit)))

	r.Add(goals.MustParse(Goal2AutoJerk,
		"Vehicle jerk caused by autonomous vehicle control shall not exceed 2.5 m/s³.",
		fmt.Sprintf("%s => (%s <= %g & %s >= %g)",
			vehicle.SigAccelFromSubsystem, vehicle.SigVehicleJerk, vehicle.AutoJerkLimit,
			vehicle.SigVehicleJerk, -vehicle.AutoJerkLimit)))

	r.Add(goals.MustParse(Goal3Agreement,
		"If a subsystem requests control of acceleration and steering and is granted either, it shall control both.",
		vehicle.SigAccelSteeringAgreement))

	r.Add(goals.MustParse(Goal4NoAccelFromStop,
		"If the vehicle has been stopped, the throttle pedal has not been applied, a subsystem controls acceleration and no HMI go signal was sent, there shall be no vehicle acceleration.",
		fmt.Sprintf("(%s & %s & %s) => %s <= 0.05",
			stoppedLongEnough(), noRecentThrottleOrGo(), vehicle.SigAccelFromSubsystem,
			vehicle.SigVehicleAccel)))

	r.Add(goals.MustParse(Goal5ForwardOverride,
		"If the vehicle is moving forward, the driver is applying a pedal, and a subsystem is requesting a soft (not emergency) acceleration, the subsystem shall not control vehicle acceleration.",
		fmt.Sprintf("(%s & prev(%s)) => !%s",
			vehicle.SigInForwardMotion, vehicle.SigPedalApplied, vehicle.SigSelectedSoftRequestFwd)))

	r.Add(goals.MustParse(Goal6BackwardOverride,
		"If the vehicle is moving backward, the driver is applying a pedal, and a subsystem is requesting a soft (not emergency) acceleration, the subsystem shall not control vehicle acceleration.",
		fmt.Sprintf("(%s & prev(%s)) => !%s",
			vehicle.SigInBackwardMotion, vehicle.SigPedalApplied, vehicle.SigSelectedSoftRequestBwd)))

	r.Add(goals.MustParse(Goal7SteeringOverride,
		"If the driver is turning the steering wheel, no subsystem shall control vehicle steering.",
		fmt.Sprintf("prev(%s) => !%s", vehicle.SigSteeringActive, vehicle.SigSteerFromSubsystem)))

	r.Add(goals.MustParse(Goal8ForwardBlock,
		"If the vehicle is moving forward, the subsystem RCA shall not control vehicle acceleration or steering.",
		fmt.Sprintf("%s => !(%s == 'RCA' | %s == 'RCA')",
			vehicle.SigInForwardMotion, vehicle.SigAccelSource, vehicle.SigSteerSource)))

	r.Add(goals.MustParse(Goal9BackwardBlock,
		"If the vehicle is moving backward, the subsystems CA, ACC and LCA shall not control vehicle acceleration or steering.",
		fmt.Sprintf("%s => !(%s == 'CA' | %s == 'ACC' | %s == 'LCA' | %s == 'CA' | %s == 'ACC' | %s == 'LCA')",
			vehicle.SigInBackwardMotion,
			vehicle.SigAccelSource, vehicle.SigAccelSource, vehicle.SigAccelSource,
			vehicle.SigSteerSource, vehicle.SigSteerSource, vehicle.SigSteerSource)))

	return r
}

// arbiterSubgoal builds the Arbiter-level subgoal ("A" row of Table 5.3) for
// a system goal: the same constraint applied to the arbitrated command
// instead of the sensed vehicle response.
func arbiterSubgoal(goalName string) (goals.Goal, bool) {
	switch goalName {
	case Goal1AutoAccel:
		return goals.MustParse("Achieve[AutoAccelCommandBelowThreshold]",
			"The arbitrated acceleration command from a subsystem shall not exceed 2 m/s².",
			fmt.Sprintf("%s => %s <= %g",
				vehicle.SigAccelFromSubsystem, vehicle.SigAccelCommand, vehicle.AutoAccelLimit)), true
	case Goal2AutoJerk:
		return goals.MustParse("Achieve[AutoJerkCommandBelowThreshold]",
			"The rate of change of the arbitrated acceleration command from a subsystem shall not exceed 2.5 m/s³.",
			fmt.Sprintf("%s => (%s <= %g & %s >= %g)",
				vehicle.SigAccelFromSubsystem, vehicle.SigAccelCommandJerk, vehicle.AutoJerkLimit,
				vehicle.SigAccelCommandJerk, -vehicle.AutoJerkLimit)), true
	case Goal3Agreement:
		return goals.MustParse("Achieve[SubsystemAccelSteeringCommandAgreement]",
			"The Arbiter shall not grant acceleration and steering to different subsystems that request both.",
			vehicle.SigAccelSteeringAgreement), true
	case Goal4NoAccelFromStop:
		return goals.MustParse("Achieve[NoAutoAccelCommandFromStop]",
			"From a stop, without a throttle application or HMI go, the Arbiter shall not command acceleration on behalf of a subsystem.",
			fmt.Sprintf("(%s & %s & %s) => %s <= 0.05",
				stoppedLongEnough(), noRecentThrottleOrGo(), vehicle.SigAccelFromSubsystem,
				vehicle.SigAccelCommand)), true
	case Goal5ForwardOverride:
		return goals.MustParse("Achieve[DriverForwardAccelOverrideAccelCommand]",
			"With a pedal applied in forward motion, the Arbiter shall not select a subsystem's soft acceleration request.",
			fmt.Sprintf("(%s & prev(%s)) => !%s",
				vehicle.SigInForwardMotion, vehicle.SigPedalApplied, vehicle.SigSelectedSoftRequestFwd)), true
	case Goal6BackwardOverride:
		return goals.MustParse("Achieve[DriverBackwardAccelOverrideAccelCommand]",
			"With a pedal applied in backward motion, the Arbiter shall not select a subsystem's soft acceleration request.",
			fmt.Sprintf("(%s & prev(%s)) => !%s",
				vehicle.SigInBackwardMotion, vehicle.SigPedalApplied, vehicle.SigSelectedSoftRequestBwd)), true
	case Goal7SteeringOverride:
		return goals.MustParse("Achieve[DriverSteeringOverrideSteeringCommand]",
			"With the driver steering, the Arbiter shall not select a subsystem as the steering source.",
			fmt.Sprintf("prev(%s) => !%s", vehicle.SigSteeringActive, vehicle.SigSteerFromSubsystem)), true
	case Goal8ForwardBlock:
		return goals.MustParse("Achieve[ForwardBlockAccelSteeringCommand]",
			"In forward motion the Arbiter shall not select RCA for acceleration or steering.",
			fmt.Sprintf("%s => !(%s == 'RCA' | %s == 'RCA')",
				vehicle.SigInForwardMotion, vehicle.SigAccelSource, vehicle.SigSteerSource)), true
	case Goal9BackwardBlock:
		return goals.MustParse("Achieve[BackwardBlockAccelSteeringCommand]",
			"In backward motion the Arbiter shall not select CA, ACC or LCA for acceleration or steering.",
			fmt.Sprintf("%s => !(%s == 'CA' | %s == 'ACC' | %s == 'LCA' | %s == 'CA' | %s == 'ACC' | %s == 'LCA')",
				vehicle.SigInBackwardMotion,
				vehicle.SigAccelSource, vehicle.SigAccelSource, vehicle.SigAccelSource,
				vehicle.SigSteerSource, vehicle.SigSteerSource, vehicle.SigSteerSource)), true
	default:
		return goals.Goal{}, false
	}
}

// featureSubgoal builds the feature-level subgoal ("B" row of Table 5.3) for
// a system goal and feature, when Table 5.3 assigns one.  The subgoals are
// OR-reduced (restrictive): they constrain the feature's requests regardless
// of whether those requests are currently selected (thesis §5.3).
func featureSubgoal(goalName, feature string) (goals.Goal, bool) {
	req := vehicle.SigAccelRequest(feature)
	switch goalName {
	case Goal1AutoAccel:
		return goals.MustParse(
			fmt.Sprintf("Maintain[AutoAccelRequestBelowThreshold:%s]", feature),
			fmt.Sprintf("%s shall not request acceleration above 2 m/s².", feature),
			fmt.Sprintf("%s <= %g", req, vehicle.AutoAccelLimit)), true
	case Goal2AutoJerk:
		return goals.MustParse(
			fmt.Sprintf("Maintain[AutoJerkRequestBelowThreshold:%s]", feature),
			fmt.Sprintf("%s shall not change its acceleration request faster than 2.5 m/s³.", feature),
			fmt.Sprintf("(%s <= %g & %s >= %g)",
				vehicle.SigRequestJerk(feature), vehicle.AutoJerkLimit,
				vehicle.SigRequestJerk(feature), -vehicle.AutoJerkLimit)), true
	case Goal4NoAccelFromStop:
		return goals.MustParse(
			fmt.Sprintf("Achieve[NoAutoAccelRequestFromStop:%s]", feature),
			fmt.Sprintf("From a stop, without a throttle application or HMI go, %s shall not request acceleration.", feature),
			fmt.Sprintf("(%s & %s) => %s <= 0.05",
				stoppedLongEnough(), noRecentThrottleOrGo(), req)), true
	case Goal5ForwardOverride:
		return goals.MustParse(
			fmt.Sprintf("Achieve[DriverForwardAccelOverrideAccelRequest:%s]", feature),
			fmt.Sprintf("With a pedal applied in forward motion, %s shall not be selected while requesting a soft acceleration.", feature),
			fmt.Sprintf("(%s & prev(%s) & %s & %s > %g) => !%s",
				vehicle.SigInForwardMotion, vehicle.SigPedalApplied,
				vehicle.SigRequestingAccel(feature), req, vehicle.HardBrakeThreshold,
				vehicle.SigSelected(feature))), true
	case Goal6BackwardOverride:
		return goals.MustParse(
			fmt.Sprintf("Achieve[DriverBackwardAccelOverrideAccelRequest:%s]", feature),
			fmt.Sprintf("With a pedal applied in backward motion, %s shall not be selected while requesting a soft acceleration.", feature),
			fmt.Sprintf("(%s & prev(%s) & %s & %s < %g) => !%s",
				vehicle.SigInBackwardMotion, vehicle.SigPedalApplied,
				vehicle.SigRequestingAccel(feature), req, -vehicle.HardBrakeThreshold,
				vehicle.SigSelected(feature))), true
	case Goal7SteeringOverride:
		return goals.MustParse(
			fmt.Sprintf("Achieve[DriverSteeringOverrideSteeringRequest:%s]", feature),
			fmt.Sprintf("With the driver steering, %s shall not request steering control.", feature),
			fmt.Sprintf("prev(%s) => !%s", vehicle.SigSteeringActive, vehicle.SigRequestingSteer(feature))), true
	case Goal8ForwardBlock:
		return goals.MustParse(
			fmt.Sprintf("Achieve[ForwardBlockAccelSteeringRequest:%s]", feature),
			fmt.Sprintf("In forward motion %s shall not request acceleration or steering.", feature),
			fmt.Sprintf("%s => !(%s | %s)",
				vehicle.SigInForwardMotion, vehicle.SigRequestingAccel(feature),
				vehicle.SigRequestingSteer(feature))), true
	case Goal9BackwardBlock:
		return goals.MustParse(
			fmt.Sprintf("Achieve[BackwardBlockAccelSteeringRequest:%s]", feature),
			fmt.Sprintf("In backward motion %s shall not request acceleration or steering.", feature),
			fmt.Sprintf("%s => !(%s | %s)",
				vehicle.SigInBackwardMotion, vehicle.SigRequestingAccel(feature),
				vehicle.SigRequestingSteer(feature))), true
	default:
		return goals.Goal{}, false
	}
}

// featureSubgoalAssignments returns, for each system goal, the feature
// subsystems that carry a feature-level subgoal (the "B" columns of
// Table 5.3).
func featureSubgoalAssignments(goalName string) []string {
	switch goalName {
	case Goal1AutoAccel, Goal2AutoJerk, Goal4NoAccelFromStop, Goal5ForwardOverride, Goal6BackwardOverride:
		return []string{vehicle.SourceCA, vehicle.SourceACC, vehicle.SourceRCA, vehicle.SourceLCA, vehicle.SourcePA}
	case Goal7SteeringOverride:
		return []string{vehicle.SourceLCA, vehicle.SourcePA}
	case Goal8ForwardBlock:
		return []string{vehicle.SourceRCA}
	case Goal9BackwardBlock:
		return []string{vehicle.SourceCA, vehicle.SourceACC, vehicle.SourceLCA}
	case Goal3Agreement:
		return nil
	default:
		return nil
	}
}

// vehicleLevelMonitored reports whether the system goal can be monitored at
// the vehicle level separately from the Arbiter (thesis §5.3.1: goals 1, 2
// and 4 constrain sensed variables; goals 3 and 5–9 constrain variables
// directly controlled by the Arbiter, so the Arbiter-level monitor is the
// system-level monitor).
func vehicleLevelMonitored(goalName string) bool {
	switch goalName {
	case Goal1AutoAccel, Goal2AutoJerk, Goal4NoAccelFromStop:
		return true
	default:
		return false
	}
}

// MonitorSpec is one monitor placement: a goal or subgoal and the hierarchy
// level it is monitored at (one of MonitorLocations).  It is the same shape
// the monitor package consumes, so a plan feeds both the per-monitor and the
// compiled suite builders without conversion.
type MonitorSpec = monitor.GoalAt

// HierarchySpec is one row group of Table 5.3: a system safety goal with its
// Arbiter- and feature-level subgoal monitors.
type HierarchySpec struct {
	// GoalName is the system safety goal name.
	GoalName string
	// Parent is the system-level monitor placement.
	Parent MonitorSpec
	// Children are the subgoal monitor placements.
	Children []MonitorSpec
}

// planOnce / cachedPlan memoize the monitoring plan for the process: the
// goal catalogue and the plan are static, so their formula parsing and plan
// assembly run once instead of once per compiled suite (formula ASTs are
// immutable after construction, so sharing them across concurrently compiled
// suites is safe).  Suite builders read the cache through monitoringPlan.
var (
	planOnce   sync.Once
	cachedPlan []HierarchySpec
)

// monitoringPlan returns the process-wide cached plan.  Callers must treat
// it as read-only; the public MonitoringPlan returns a copy.
func monitoringPlan() []HierarchySpec {
	planOnce.Do(func() { cachedPlan = buildMonitoringPlan() })
	return cachedPlan
}

// MonitoringPlan returns the full Table 5.3 monitoring plan: for every
// system safety goal, where the goal and its subgoals are monitored.
func MonitoringPlan() []HierarchySpec {
	return append([]HierarchySpec(nil), monitoringPlan()...)
}

// buildMonitoringPlan assembles the plan from the goal catalogue.
func buildMonitoringPlan() []HierarchySpec {
	registry := VehicleGoals()
	var plan []HierarchySpec
	for _, name := range GoalNames {
		parentGoal := registry.MustGet(name)
		parentLocation := "Vehicle"
		if !vehicleLevelMonitored(name) {
			parentLocation = "Arbiter"
		}
		spec := HierarchySpec{
			GoalName: name,
			Parent:   MonitorSpec{Goal: parentGoal, Location: parentLocation},
		}
		if sub, ok := arbiterSubgoal(name); ok && vehicleLevelMonitored(name) {
			spec.Children = append(spec.Children, MonitorSpec{Goal: sub, Location: "Arbiter"})
		} else if ok && !vehicleLevelMonitored(name) {
			// The Arbiter-level formulation is the parent itself; the
			// subgoal row still exists in Table 5.3 but monitors the same
			// expression, so it is attached as a child for completeness.
			spec.Children = append(spec.Children, MonitorSpec{Goal: sub, Location: "Arbiter"})
		}
		for _, feature := range featureSubgoalAssignments(name) {
			if sub, ok := featureSubgoal(name, feature); ok {
				spec.Children = append(spec.Children, MonitorSpec{Goal: sub, Location: feature})
			}
		}
		plan = append(plan, spec)
	}
	return plan
}

// matchTolerance is the default hit-matching window in states: command-level
// and request-level violations may lead or lag the sensed vehicle response
// by the powertrain response time plus the arbitration delay (roughly one
// dominant time constant of the second-order response).  Sweeps can vary it
// through Options.MatchTolerance / Family.Tolerances.
const matchTolerance = 150

// BuildSuiteWithSchema compiles the full monitoring plan into one shared
// evaluation program (suite-level CSE over every goal and subgoal formula)
// against the scenario's symbol table (typically sim.Bus.Schema()): the ~30
// overlapping formulas of Table 5.3 are evaluated in a single pass per state,
// with each shared atom read once, classified at the default matching
// tolerance.  The returned suite is reusable across runs via Reset.
func BuildSuiteWithSchema(period time.Duration, schema *temporal.Schema) *monitor.CompiledSuite {
	cs := monitor.NewCompiledSuite(period, schema)
	for _, spec := range monitoringPlan() {
		cs.MustAddHierarchy(spec.Parent, matchTolerance, spec.Children...)
	}
	return cs
}

// RenderTable5_3 renders the monitoring-location matrix of Table 5.3: one
// row per goal and subgoal, one column per monitoring location, with an X
// where the goal is monitored.
func RenderTable5_3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-58s", "Goal/Subgoal")
	for _, loc := range MonitorLocations {
		fmt.Fprintf(&b, " %-8s", loc)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", 58+9*len(MonitorLocations)))

	writeRow := func(name string, marked map[string]bool) {
		fmt.Fprintf(&b, "%-58s", name)
		for _, loc := range MonitorLocations {
			mark := ""
			if marked[loc] {
				mark = "X"
			}
			fmt.Fprintf(&b, " %-8s", mark)
		}
		fmt.Fprintln(&b)
	}

	for _, spec := range monitoringPlan() {
		writeRow(spec.GoalName, map[string]bool{spec.Parent.Location: true})
		byName := make(map[string]map[string]bool)
		var order []string
		for _, c := range spec.Children {
			if _, ok := byName[c.Goal.Name]; !ok {
				byName[c.Goal.Name] = make(map[string]bool)
				order = append(order, c.Goal.Name)
			}
			byName[c.Goal.Name][c.Location] = true
		}
		// Feature subgoals share a display row per goal (the "B" row).
		featureRow := make(map[string]bool)
		featureRowName := ""
		for _, name := range order {
			locs := byName[name]
			if len(locs) == 1 && locs["Arbiter"] {
				writeRow("  "+name, locs)
				continue
			}
			if featureRowName == "" {
				featureRowName = "  " + genericFeatureSubgoalName(name)
			}
			for l := range locs {
				featureRow[l] = true
			}
		}
		if featureRowName != "" {
			writeRow(featureRowName, featureRow)
		}
	}
	return b.String()
}

// genericFeatureSubgoalName strips the ":FEATURE" suffix from a feature
// subgoal name for the shared Table 5.3 row.
func genericFeatureSubgoalName(name string) string {
	if i := strings.Index(name, ":"); i > 0 {
		return name[:i] + "]"
	}
	return name
}
