package vehicle

import (
	"strconv"

	"repro/internal/sim"
)

// Feature indices into FeatureNames and busVars.features, in arbitration
// priority order.  Components identify features by index on the hot path and
// translate to the string source tags only when publishing them.
const (
	idxCA = iota
	idxRCA
	idxACC
	idxLCA
	idxPA
	numFeatures
)

// NumFeatures is the number of feature subsystems, len(FeatureNames), for
// callers that size per-feature arrays.
const NumFeatures = numFeatures

func init() {
	// FeatureNames is an indexed literal over the idx* constants; this trips
	// at package load if a feature is added to one side but not the other.
	if len(FeatureNames) != numFeatures {
		panic("vehicle: FeatureNames out of sync with the feature index constants")
	}
	for i, name := range FeatureNames {
		if name == "" {
			panic("vehicle: FeatureNames has no name for feature index " + strconv.Itoa(i))
		}
	}
}

// featureVars holds the slot-indexed handles for one feature subsystem's
// standard output signals.
type featureVars struct {
	active          sim.BoolVar
	accelRequest    sim.NumVar
	requestingAccel sim.BoolVar
	steerRequest    sim.NumVar
	requestingSteer sim.BoolVar
	requestJerk     sim.NumVar
	selected        sim.BoolVar
}

// busVars is the vehicle system's view of the bus, with every signal the
// components touch resolved to a slot-indexed handle exactly once, by
// BindAll, before the first step.
type busVars struct {
	bus *sim.Bus

	// Vehicle state (sensed).
	speed         sim.NumVar
	accel         sim.NumVar
	jerk          sim.NumVar
	position      sim.NumVar
	lane          sim.NumVar
	steeringAngle sim.NumVar
	stopped       sim.BoolVar
	forward       sim.BoolVar
	backward      sim.BoolVar
	collision     sim.BoolVar
	gear          sim.StringVar

	// Object tracks.
	objectDistance     sim.NumVar
	objectSpeed        sim.NumVar
	rearObjectDistance sim.NumVar

	// Driver inputs.
	throttlePedal  sim.BoolVar
	throttleLevel  sim.NumVar
	brakePedal     sim.BoolVar
	brakeLevel     sim.NumVar
	steeringActive sim.BoolVar
	steeringInput  sim.NumVar
	pedalApplied   sim.BoolVar

	// HMI state.
	caEnabled        sim.BoolVar
	rcaEnabled       sim.BoolVar
	accEnabled       sim.BoolVar
	accEngageRequest sim.BoolVar
	accSetSpeed      sim.NumVar
	lcaEnabled       sim.BoolVar
	lcaEngageRequest sim.BoolVar
	paEnabled        sim.BoolVar
	paEngageRequest  sim.BoolVar
	hmiGo            sim.BoolVar

	// Arbiter outputs.
	accelCommand         sim.NumVar
	accelSource          sim.StringVar
	accelFromSubsystem   sim.BoolVar
	accelCommandJerk     sim.NumVar
	steerCommand         sim.NumVar
	steerSource          sim.StringVar
	steerFromSubsystem   sim.BoolVar
	agreement            sim.BoolVar
	selectedSoftFwd      sim.BoolVar
	selectedSoftBwd      sim.BoolVar
	selectedRequestValue sim.NumVar

	features [numFeatures]featureVars

	// Interned enumeration ids of the published source tags (featureIDs
	// indexed like FeatureNames) and of the two gear selections, bound once
	// so the per-step writes and gear checks compare ids, not strings.
	featureIDs       [numFeatures]int32
	noneID, driverID int32
	gearDID, gearRID int32
}

// bindVars resolves every vehicle signal against the bus schema (for
// BindAll); all per-step traffic afterwards is slot indexed.
func bindVars(bus *sim.Bus) *busVars {
	v := &busVars{
		bus: bus,

		speed:         bus.NumVar(SigVehicleSpeed),
		accel:         bus.NumVar(SigVehicleAccel),
		jerk:          bus.NumVar(SigVehicleJerk),
		position:      bus.NumVar(SigVehiclePosition),
		lane:          bus.NumVar(SigLanePosition),
		steeringAngle: bus.NumVar(SigSteeringAngle),
		stopped:       bus.BoolVar(SigVehicleStopped),
		forward:       bus.BoolVar(SigInForwardMotion),
		backward:      bus.BoolVar(SigInBackwardMotion),
		collision:     bus.BoolVar(SigCollision),
		gear:          bus.StringVar(SigGear),

		objectDistance:     bus.NumVar(SigObjectDistance),
		objectSpeed:        bus.NumVar(SigObjectSpeed),
		rearObjectDistance: bus.NumVar(SigRearObjectDistance),

		throttlePedal:  bus.BoolVar(SigThrottlePedal),
		throttleLevel:  bus.NumVar(SigThrottleLevel),
		brakePedal:     bus.BoolVar(SigBrakePedal),
		brakeLevel:     bus.NumVar(SigBrakeLevel),
		steeringActive: bus.BoolVar(SigSteeringActive),
		steeringInput:  bus.NumVar(SigSteeringInput),
		pedalApplied:   bus.BoolVar(SigPedalApplied),

		caEnabled:        bus.BoolVar(SigCAEnabled),
		rcaEnabled:       bus.BoolVar(SigRCAEnabled),
		accEnabled:       bus.BoolVar(SigACCEnabled),
		accEngageRequest: bus.BoolVar(SigACCEngageRequest),
		accSetSpeed:      bus.NumVar(SigACCSetSpeed),
		lcaEnabled:       bus.BoolVar(SigLCAEnabled),
		lcaEngageRequest: bus.BoolVar(SigLCAEngageRequest),
		paEnabled:        bus.BoolVar(SigPAEnabled),
		paEngageRequest:  bus.BoolVar(SigPAEngageRequest),
		hmiGo:            bus.BoolVar(SigHMIGo),

		accelCommand:         bus.NumVar(SigAccelCommand),
		accelSource:          bus.StringVar(SigAccelSource),
		accelFromSubsystem:   bus.BoolVar(SigAccelFromSubsystem),
		accelCommandJerk:     bus.NumVar(SigAccelCommandJerk),
		steerCommand:         bus.NumVar(SigSteerCommand),
		steerSource:          bus.StringVar(SigSteerSource),
		steerFromSubsystem:   bus.BoolVar(SigSteerFromSubsystem),
		agreement:            bus.BoolVar(SigAccelSteeringAgreement),
		selectedSoftFwd:      bus.BoolVar(SigSelectedSoftRequestFwd),
		selectedSoftBwd:      bus.BoolVar(SigSelectedSoftRequestBwd),
		selectedRequestValue: bus.NumVar(SigSelectedRequestValue),

		noneID:   bus.EnumID(SourceNone),
		driverID: bus.EnumID(SourceDriver),
		gearDID:  bus.EnumID("D"),
		gearRID:  bus.EnumID("R"),
	}
	for i, f := range FeatureNames {
		v.features[i] = featureVars{
			active:          bus.BoolVar(SigActive(f)),
			accelRequest:    bus.NumVar(SigAccelRequest(f)),
			requestingAccel: bus.BoolVar(SigRequestingAccel(f)),
			steerRequest:    bus.NumVar(SigSteerRequest(f)),
			requestingSteer: bus.BoolVar(SigRequestingSteer(f)),
			requestJerk:     bus.NumVar(SigRequestJerk(f)),
			selected:        bus.BoolVar(SigSelected(f)),
		}
		v.featureIDs[i] = bus.EnumID(f)
	}
	return v
}

// sourceID translates an arbitration source index to the interned
// enumeration id of its string tag (SourceNone, SourceDriver or the feature
// name).
func (v *busVars) sourceID(src int) int32 {
	switch src {
	case srcNone:
		return v.noneID
	case srcDriver:
		return v.driverID
	default:
		return v.featureIDs[src]
	}
}

// gearID returns the interned id of a gear selection; the two thesis gears
// are bound ids, any other scheduled string is interned on the bus.
//
//lint:allocok a scheduled gear other than D or R interns its id; no thesis scenario or sweep schedules one
func (v *busVars) gearID(gear string) int32 {
	switch gear {
	case "D":
		return v.gearDID
	case "R":
		return v.gearRID
	default:
		return v.bus.EnumID(gear)
	}
}

// reverse reports whether the committed gear is "R".
func (v *busVars) reverse() bool { return v.gear.ReadID() == v.gearRID }

// binding holds a component's busVars, set by BindAll; every Step reads
// its handles from vars.
type binding struct {
	vars *busVars
}

func (b *binding) setVars(v *busVars) { b.vars = v }

// BindAll resolves one shared handle set against the bus and hands it to
// every vehicle component in the list (non-vehicle components are left
// alone).  It is the only binder: a vehicle component must be bound, against
// the bus view it will be stepped on, before its first Step.
func BindAll(bus *sim.Bus, comps ...sim.Component) {
	v := bindVars(bus)
	for _, c := range comps {
		if b, ok := c.(interface{ setVars(*busVars) }); ok {
			b.setVars(v)
		}
	}
}

// number reads a numeric handle, mapping the absent-signal NaN to 0 for
// control laws that treat unknown inputs as neutral.
func number(h sim.NumVar) float64 {
	v := h.Read()
	if v != v { // NaN
		return 0
	}
	return v
}
