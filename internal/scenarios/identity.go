package scenarios

import (
	"math"
	"strconv"

	"repro/internal/vehicle"
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
// The encoding is written by hand (appendDynamicsKey) and is injective: the
// gear is length-prefixed, every scheduled action is its time followed by
// one tagged token per set field, each float by its IEEE-754 bits, so any
// difference in timing or commanded values splits the key, and no value —
// NaN and ±Inf included — can make the encoding fail.  A nil and an empty
// schedule drive the same trajectory and share a key.
// TestDriverActionFieldsKeyed fails on a DriverAction field the encoding
// leaves out.
func (j Job) DynamicsKey() string {
	var buf [256]byte
	return string(j.appendDynamicsKey(buf[:0]))
}

// appendDynamicsKey appends the DynamicsKey to b.  The dispatcher compares
// keys built into two reused buffers, so grouping allocates nothing per job.
func (j Job) appendDynamicsKey(b []byte) []byte {
	sc := j.Scenario
	b = append(b, "dur="...)
	b = strconv.AppendInt(b, int64(sc.ScheduledDuration()), 10)
	b = append(b, "|speed="...)
	b = strconv.AppendFloat(b, sc.InitialSpeed, 'g', -1, 64)
	b = append(b, "|gear="...)
	b = appendLenString(b, sc.Gear)
	b = append(b, "|objdist="...)
	b = strconv.AppendFloat(b, sc.ObjectDistance, 'g', -1, 64)
	b = append(b, "|objspeed="...)
	b = strconv.AppendFloat(b, sc.ObjectSpeed, 'g', -1, 64)
	b = append(b, "|acccheck="...)
	b = strconv.AppendBool(b, sc.ACCDirectionCheck)
	b = append(b, "|fixed="...)
	b = j.Options.defects().appendLabel(b)
	b = append(b, "|driver="...)
	for i := range sc.Driver {
		b = appendDriverAction(b, &sc.Driver[i])
	}
	return b
}

// appendDriverAction appends one scheduled action: '@' and its time in
// nanoseconds, then, for every set field, an upper-case tag and the value —
// a float as the hex of its bits, a flag as 0 or 1, the gear length-prefixed.
// Tags never occur inside a value (hex digits are lower-case), so the tokens
// parse back unambiguously.
func appendDriverAction(b []byte, a *vehicle.DriverAction) []byte {
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(a.At), 10)
	b = appendFloatField(b, 'T', a.Throttle)
	b = appendFloatField(b, 'B', a.Brake)
	b = appendFloatField(b, 'S', a.Steering)
	b = appendFlagField(b, 'C', a.EnableCA)
	b = appendFlagField(b, 'R', a.EnableRCA)
	b = appendFlagField(b, 'A', a.EnableACC)
	b = appendFlagField(b, 'L', a.EnableLCA)
	b = appendFlagField(b, 'P', a.EnablePA)
	b = appendFlagField(b, 'X', a.EngageACC)
	b = appendFlagField(b, 'Y', a.EngageLCA)
	b = appendFlagField(b, 'Z', a.EngagePA)
	b = appendFloatField(b, 'V', a.SetSpeed)
	b = appendFlagField(b, 'G', a.Go)
	if a.Gear != nil {
		b = append(b, 'D')
		b = appendLenString(b, *a.Gear)
	}
	return b
}

func appendFloatField(b []byte, tag byte, v *float64) []byte {
	if v == nil {
		return b
	}
	return strconv.AppendUint(append(b, tag), math.Float64bits(*v), 16)
}

func appendFlagField(b []byte, tag byte, v *bool) []byte {
	if v == nil {
		return b
	}
	if *v {
		return append(b, tag, '1')
	}
	return append(b, tag, '0')
}

// appendLenString appends s as its decimal length, ':' and its bytes.
func appendLenString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	return append(append(b, ':'), s...)
}

// MonitorKey returns the canonical identity of the observation side of a
// job: the effective hit-matching tolerance (a zero MatchTolerance resolves
// to the default, matching what the run uses).  Jobs in one dynamics group
// are distinguished only by their MonitorKeys.
func (j Job) MonitorKey() string {
	return "tol=" + strconv.Itoa(j.Options.tolerance())
}
