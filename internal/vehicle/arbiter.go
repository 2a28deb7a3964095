package vehicle

import (
	"time"

	"repro/internal/sim"
)

// Arbitration source sentinels: features are identified by index into
// FeatureNames on the hot path; the driver and the absent source use
// negative sentinels and are translated to their tags' interned ids
// (busVars.sourceID) only when the source signal is published.
const (
	srcNone   = -1
	srcDriver = -2
)

// Arbiter selects the sources of the vehicle acceleration and steering
// commands from the feature subsystem requests and the driver's inputs
// (thesis Figure 5.1).
//
// The thesis' implementation arbitrated acceleration and steering
// separately, with the steering stage's priority order reversed and the
// steering stage determining which requests were actually passed along as
// commands (Section 5.4.2).  Those defects are reproduced here behind
// configuration flags, together with the delayed driver-override check that
// lets a newly engaged feature briefly take control while a pedal is applied
// (Scenario 4) and the Park Assist command mismatch (Scenario 9).
type Arbiter struct {
	// ReversedSteeringPriority enables the reversed priority order in the
	// steering arbitration stage.
	ReversedSteeringPriority bool
	// SteeringStageOverridesAccel enables the defect in which the steering
	// stage's selected source supplies the final acceleration command while
	// the selected flags still reflect the acceleration stage.
	SteeringStageOverridesAccel bool
	// EnabledFeaturesJoinSteering enables the defect in which features
	// participate in steering arbitration as soon as they are enabled or
	// engaged, not only when they are active.
	EnabledFeaturesJoinSteering bool
	// PACommandMismatch halves Park Assist's acceleration request when it
	// is passed through, producing the command/request mismatch of
	// Figure 5.14.
	PACommandMismatch bool
	// OverrideCheckDelay is how long after an arbitration source change the
	// driver-override check is skipped (the Scenario 4 defect); zero
	// disables the defect.
	OverrideCheckDelay time.Duration

	prevCommand        float64
	prevCandidate      int
	candidateChangedAt time.Duration
	started            bool

	binding
}

// DefaultOverrideCheckDelay is the seeded driver-override check delay of the
// defective Arbiter (the Scenario 4 defect window).
const DefaultOverrideCheckDelay = 150 * time.Millisecond

// NewArbiter returns an arbiter with all of the thesis' seeded defects
// enabled.
func NewArbiter() *Arbiter {
	return &Arbiter{
		ReversedSteeringPriority:    true,
		SteeringStageOverridesAccel: true,
		EnabledFeaturesJoinSteering: true,
		PACommandMismatch:           true,
		OverrideCheckDelay:          DefaultOverrideCheckDelay,
	}
}

// Reset implements sim.Resetter.
func (a *Arbiter) Reset() {
	a.prevCommand = 0
	a.prevCandidate = 0
	a.candidateChangedAt = 0
	a.started = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (a *Arbiter) Step(now time.Duration, bus *sim.Bus) {
	v := a.vars
	if !a.started {
		// The zero value of prevCandidate is a feature index; normalise it
		// to "no source yet" so the first step registers a source change.
		a.prevCandidate = srcNone
	}
	dt := bus.StepSeconds()
	reverse := v.reverse()

	// ----- Stage 1: acceleration arbitration ---------------------------
	driverRequest, driverRequesting := a.driverAccelRequest(v, reverse)

	accelSource := srcNone
	accelRequest := 0.0
	for i := range v.features {
		fv := &v.features[i]
		if fv.active.Read() && fv.requestingAccel.Read() {
			accelSource = i
			accelRequest = number(fv.accelRequest)
			break
		}
	}

	if accelSource == srcNone && driverRequesting {
		accelSource = srcDriver
		accelRequest = driverRequest
	}

	// Track when the stage-1 candidate source last changed; the defective
	// override check is skipped for OverrideCheckDelay after a change,
	// which lets a newly engaged feature briefly take control while the
	// driver is still on a pedal (the Scenario 4 behaviour).
	if accelSource != a.prevCandidate || !a.started {
		a.candidateChangedAt = now
		a.prevCandidate = accelSource
	}

	// Driver override (goals 5 and 6): a pedal application overrides a
	// feature unless the feature is performing an emergency stop.
	if accelSource >= 0 && driverRequesting {
		softRequest := accelRequest > HardBrakeThreshold
		if reverse {
			softRequest = accelRequest < -HardBrakeThreshold
		}
		suppressed := a.OverrideCheckDelay > 0 && now-a.candidateChangedAt < a.OverrideCheckDelay
		if softRequest && !suppressed {
			accelSource = srcDriver
			accelRequest = driverRequest
		}
	}

	// Selected flags reflect the acceleration arbitration stage.
	for i := range v.features {
		v.features[i].selected.Write(i == accelSource)
	}

	// ----- Stage 2: steering arbitration --------------------------------
	steerSource := srcNone
	steerRequest := 0.0
	if v.steeringActive.Read() {
		steerSource = srcDriver
		steerRequest = number(v.steeringInput)
	} else {
		for _, i := range a.steeringOrder() {
			if a.participatesInSteering(v, i) {
				steerSource = i
				// Defect: the steering command is not updated from the
				// feature's request magnitude; it stays at zero.
				steerRequest = 0
				break
			}
		}
	}

	finalCommand := accelRequest
	finalSource := accelSource
	if a.SteeringStageOverridesAccel && steerSource >= 0 {
		// Defect: the steering stage passes along its own source's
		// acceleration request as the final command, while the selected
		// flags and the source tag still name the acceleration stage's
		// choice.
		finalCommand = number(v.features[steerSource].accelRequest)
		if steerSource == idxPA && a.PACommandMismatch {
			finalCommand *= 0.5
		}
	}

	commandJerk := 0.0
	if a.started && dt > 0 {
		commandJerk = (finalCommand - a.prevCommand) / dt
	}
	a.prevCommand = finalCommand
	a.started = true

	fromSubsystem := finalSource >= 0

	// Acceleration/steering agreement (goal 3): any feature that requests
	// both and is granted either must be granted both.
	agreement := true
	for i := range v.features {
		fv := &v.features[i]
		requestsBoth := fv.requestingAccel.Read() && fv.requestingSteer.Read()
		if !requestsBoth {
			continue
		}
		grantedAccel := accelSource == i
		grantedSteer := steerSource == i
		if (grantedAccel || grantedSteer) && !(grantedAccel && grantedSteer) {
			agreement = false
		}
	}

	v.accelCommand.Write(finalCommand)
	v.accelSource.WriteID(v.sourceID(finalSource))
	v.accelFromSubsystem.Write(fromSubsystem)
	v.accelCommandJerk.Write(commandJerk)
	v.selectedRequestValue.Write(accelRequest)
	v.selectedSoftFwd.Write(fromSubsystem && accelRequest > HardBrakeThreshold)
	v.selectedSoftBwd.Write(fromSubsystem && accelRequest < -HardBrakeThreshold)
	v.steerCommand.Write(steerRequest)
	v.steerSource.WriteID(v.sourceID(steerSource))
	v.steerFromSubsystem.Write(steerSource >= 0)
	v.agreement.Write(agreement)
}

// driverAccelRequest maps the pedals to a driver acceleration request.
func (a *Arbiter) driverAccelRequest(v *busVars, reverse bool) (float64, bool) {
	throttle := number(v.throttleLevel)
	brake := number(v.brakeLevel)
	switch {
	case brake > 0.02:
		if reverse {
			return -MaxDriverBrake * brake, true
		}
		return MaxDriverBrake * brake, true
	case throttle > 0.02:
		if reverse {
			return -MaxDriverAccel * throttle, true
		}
		return MaxDriverAccel * throttle, true
	default:
		return 0, false
	}
}

// steeringPriority and reversedSteeringPriority are the feature-index orders
// of the two arbitration stages, derived from numFeatures so they cannot
// drift when a feature is added.
var steeringPriority, reversedSteeringPriority = func() (fwd, rev [numFeatures]int) {
	for i := 0; i < numFeatures; i++ {
		fwd[i] = i
		rev[i] = numFeatures - 1 - i
	}
	return fwd, rev
}()

// steeringOrder returns the steering arbitration priority order as feature
// indices, reversed when the defect is enabled.
func (a *Arbiter) steeringOrder() [numFeatures]int {
	if a.ReversedSteeringPriority {
		return reversedSteeringPriority
	}
	return steeringPriority
}

// participatesInSteering reports whether the feature takes part in the
// steering arbitration stage.  Only LCA and PA control steering; with the
// seeded defect they participate as soon as they are enabled rather than
// only when active.
func (a *Arbiter) participatesInSteering(v *busVars, feature int) bool {
	if feature != idxLCA && feature != idxPA {
		return false
	}
	fv := &v.features[feature]
	if fv.active.Read() && fv.requestingSteer.Read() {
		return true
	}
	if !a.EnabledFeaturesJoinSteering {
		return false
	}
	switch feature {
	case idxLCA:
		return v.lcaEnabled.Read() && fv.active.Read()
	case idxPA:
		return v.paEnabled.Read()
	default:
		return false
	}
}
