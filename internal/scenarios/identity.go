package scenarios

import (
	"encoding/json"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// Job identity split: dynamics key vs monitor key
// ---------------------------------------------------------------------------
//
// Job.Key identifies one evaluation — dynamics AND monitoring configuration —
// and is the unit of idempotence for caching, sharding and deduplication.
// But many distinct evaluations share the same simulated trajectory: a
// tolerance sweep re-runs bit-identical dynamics K times just to match the
// recorded violation intervals with K different windows.  Splitting the
// identity makes that sharing explicit:
//
//   - DynamicsKey canonicalizes everything that affects the simulated
//     trajectory: the physical scenario parameters, the scheduled duration,
//     the driver/HMI schedule and the resolved defect corrections.
//   - MonitorKey canonicalizes everything that only affects how the
//     trajectory is observed: today, the effective hit-matching tolerance.
//
// Two jobs with equal DynamicsKeys drive the simulation through exactly the
// same state sequence (the components are deterministic functions of these
// inputs), so an Engine worker may run them as ONE simulation pass and
// produce each job's Result from its own MonitorKey — the grouped execution
// path in engine.go/arena.go.  Job.Key remains the per-variant identity:
// results stream under the original key, so sharding, the result cache,
// dedup and the distributed merge are unchanged.
//
// The keys are canonical, not positional: scenario Name/Number/Description
// are deliberately excluded from DynamicsKey (every sweep generator bakes
// the options label — a monitor-side value — into the variant name), and
// CorrectDefects vs an explicitly full DefectSet resolve to the same key.

// scenarioFieldClass classifies every Scenario field as dynamics-affecting
// or pure naming/metadata.  TestScenarioFieldsClassified walks Scenario by
// reflection and fails on any field missing here, so a new scenario
// parameter cannot silently corrupt grouped execution by being left out of
// DynamicsKey.
var scenarioFieldClass = map[string]fieldClass{
	"Number":            identityField,
	"Name":              identityField,
	"Description":       identityField,
	"Duration":          dynamicsField,
	"InitialSpeed":      dynamicsField,
	"Gear":              dynamicsField,
	"ObjectDistance":    dynamicsField,
	"ObjectSpeed":       dynamicsField,
	"Driver":            dynamicsField,
	"ACCDirectionCheck": dynamicsField,
}

// optionsFieldClass classifies every Options field as dynamics-affecting or
// monitor-only, the Options counterpart of the Label coverage guard:
// TestOptionsFieldsClassified fails on an unclassified field, so adding an
// option without deciding which key it belongs to fails the build instead of
// silently grouping jobs whose trajectories differ.
var optionsFieldClass = map[string]fieldClass{
	"CorrectDefects": dynamicsField,
	"Defects":        dynamicsField,
	"MatchTolerance": monitorField,
}

// fieldClass says which identity a Scenario or Options field feeds.
type fieldClass int

const (
	// dynamicsField: the field changes the simulated trajectory and is part
	// of DynamicsKey.
	dynamicsField fieldClass = iota + 1
	// monitorField: the field only changes how the trajectory is observed
	// and is part of MonitorKey.
	monitorField
	// identityField: pure naming/metadata (scenario number, name,
	// description); part of neither key.
	identityField
)

// DynamicsKey returns the canonical identity of the simulated trajectory:
// the scheduled duration (zero normalized to the default, matching what the
// run executes), every physical scenario parameter, the driver/HMI schedule
// and the resolved defect-correction set.  Jobs with equal DynamicsKeys are
// guaranteed to drive the simulation identically, so the Engine groups
// consecutive equal-key jobs into one simulation pass.
//
// The driver schedule is embedded in its canonical JSON encoding — the same
// deterministic encoding the distributed wire contract round-trips — so any
// difference in timing or commanded values splits the key.
func (j Job) DynamicsKey() string {
	sc := j.Scenario
	d := sc.ScheduledDuration()
	sched, err := json.Marshal(sc.Driver)
	if err != nil {
		// DriverAction holds only values and pointers to values; its
		// encoding cannot fail.
		panic(err)
	}
	var b strings.Builder
	b.Grow(96 + len(sched))
	b.WriteString("dur=")
	b.WriteString(strconv.FormatInt(int64(d), 10))
	b.WriteString("|speed=")
	b.WriteString(strconv.FormatFloat(sc.InitialSpeed, 'g', -1, 64))
	b.WriteString("|gear=")
	b.WriteString(sc.Gear)
	b.WriteString("|objdist=")
	b.WriteString(strconv.FormatFloat(sc.ObjectDistance, 'g', -1, 64))
	b.WriteString("|objspeed=")
	b.WriteString(strconv.FormatFloat(sc.ObjectSpeed, 'g', -1, 64))
	b.WriteString("|acccheck=")
	b.WriteString(strconv.FormatBool(sc.ACCDirectionCheck))
	b.WriteString("|fixed=")
	b.WriteString(j.Options.defects().label())
	b.WriteString("|driver=")
	b.Write(sched)
	return b.String()
}

// MonitorKey returns the canonical identity of the observation side of a
// job: the effective hit-matching tolerance (a zero MatchTolerance resolves
// to the default, matching what the run uses).  Jobs in one dynamics group
// are distinguished only by their MonitorKeys.
func (j Job) MonitorKey() string {
	return "tol=" + strconv.Itoa(j.Options.tolerance())
}
