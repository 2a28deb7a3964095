// Package vehicle implements the semi-autonomous automotive system evaluated
// in Chapter 5 of the thesis (Figure 5.1): longitudinal/lateral vehicle
// dynamics, the Driver and Human-Machine Interface, the five feature
// subsystems (Collision Avoidance, Rear Collision Avoidance, Adaptive Cruise
// Control, Lane Change Assist and Park Assist), and the Arbiter that selects
// the acceleration and steering commands.
//
// The thesis evaluated an incomplete research implementation in
// CarSim/Simulink; this package substitutes a fixed-step simulation and
// deliberately seeds the design defects the thesis discovered (PA requests
// while disabled, intermittent CA braking, ACC controlling while not
// engaged, reversed steering-arbitration priority, RCA never engaging, and
// the PA command mismatch), so that the run-time goal monitors reproduce the
// structure of the Appendix D violation tables.
package vehicle

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Feature names, used as arbitration source tags.
const (
	// SourceDriver tags commands originating from the driver's pedals.
	SourceDriver = "Driver"
	// SourceCA tags Collision Avoidance.
	SourceCA = "CA"
	// SourceRCA tags Rear Collision Avoidance.
	SourceRCA = "RCA"
	// SourceACC tags Adaptive Cruise Control.
	SourceACC = "ACC"
	// SourceLCA tags Lane Change Assist.
	SourceLCA = "LCA"
	// SourcePA tags Park Assist.
	SourcePA = "PA"
	// SourceNone tags the absence of any acceleration or steering source.
	SourceNone = "None"
)

// FeatureNames lists the feature subsystems in arbitration priority order
// (highest priority first).  The indexed literal pins each name to its idx*
// constant (signals.go), and an init check asserts the list covers exactly
// numFeatures entries, so the name table and the slot-indexed feature
// machinery cannot drift apart.
var FeatureNames = []string{
	idxCA:  SourceCA,
	idxRCA: SourceRCA,
	idxACC: SourceACC,
	idxLCA: SourceLCA,
	idxPA:  SourcePA,
}

// Bus signal names.  Goal formulas reference these names directly.
const (
	// Vehicle state (sensed).
	SigVehicleSpeed     = "Vehicle.Speed"
	SigVehicleAccel     = "Vehicle.Accel"
	SigVehicleJerk      = "Vehicle.Jerk"
	SigVehiclePosition  = "Vehicle.Position"
	SigVehicleStopped   = "Vehicle.Stopped"
	SigInForwardMotion  = "Vehicle.InForwardMotion"
	SigInBackwardMotion = "Vehicle.InBackwardMotion"
	SigGear             = "Vehicle.Gear"
	SigLanePosition     = "Vehicle.LanePosition"
	SigSteeringAngle    = "Vehicle.SteeringAngle"
	SigCollision        = "Vehicle.Collision"

	// Forward and rear object tracks (sensed).
	SigObjectDistance     = "Object.Distance"
	SigObjectSpeed        = "Object.Speed"
	SigRearObjectDistance = "RearObject.Distance"

	// Driver inputs.
	SigThrottlePedal  = "Driver.ThrottlePedal"
	SigThrottleLevel  = "Driver.ThrottleLevel"
	SigBrakePedal     = "Driver.BrakePedal"
	SigBrakeLevel     = "Driver.BrakeLevel"
	SigSteeringActive = "Driver.SteeringActive"
	SigSteeringInput  = "Driver.SteeringInput"
	SigPedalApplied   = "Driver.PedalApplied"

	// HMI state.
	SigCAEnabled        = "HMI.CAEnabled"
	SigRCAEnabled       = "HMI.RCAEnabled"
	SigACCEnabled       = "HMI.ACCEnabled"
	SigACCEngageRequest = "HMI.ACCEngageRequest"
	SigACCSetSpeed      = "HMI.ACCSetSpeed"
	SigLCAEnabled       = "HMI.LCAEnabled"
	SigLCAEngageRequest = "HMI.LCAEngageRequest"
	SigPAEnabled        = "HMI.PAEnabled"
	SigPAEngageRequest  = "HMI.PAEngageRequest"
	SigHMIGo            = "HMI.Go"

	// Arbiter outputs.
	SigAccelCommand           = "Arbiter.AccelCommand"
	SigAccelSource            = "Arbiter.AccelSource"
	SigAccelFromSubsystem     = "Arbiter.AccelFromSubsystem"
	SigAccelCommandJerk       = "Arbiter.AccelCommandJerk"
	SigSteerCommand           = "Arbiter.SteerCommand"
	SigSteerSource            = "Arbiter.SteerSource"
	SigSteerFromSubsystem     = "Arbiter.SteerFromSubsystem"
	SigAccelSteeringAgreement = "Arbiter.AccelSteeringAgreement"
	SigSelectedSoftRequestFwd = "Arbiter.SelectedSoftRequestFwd"
	SigSelectedSoftRequestBwd = "Arbiter.SelectedSoftRequestBwd"
	SigSelectedRequestValue   = "Arbiter.SelectedRequestValue"
)

// Per-feature signal names.
const (
	sigSuffixActive          = ".Active"
	sigSuffixAccelRequest    = ".AccelRequest"
	sigSuffixRequestingAccel = ".RequestingAccel"
	sigSuffixSteerRequest    = ".SteerRequest"
	sigSuffixRequestingSteer = ".RequestingSteer"
	sigSuffixRequestJerk     = ".RequestJerk"
	sigSuffixSelected        = ".Selected"
)

// featureSigNames precomputes the standard per-feature signal names for the
// known features, so the Sig* helpers are allocation-free on the paths that
// run per variant (bus re-initialisation on a reused arena, handle binding,
// goal building).  Unknown feature strings still concatenate.
var featureSigNames = func() map[string][7]string {
	m := make(map[string][7]string, len(FeatureNames))
	for _, f := range FeatureNames {
		m[f] = [7]string{
			f + sigSuffixActive,
			f + sigSuffixAccelRequest,
			f + sigSuffixRequestingAccel,
			f + sigSuffixSteerRequest,
			f + sigSuffixRequestingSteer,
			f + sigSuffixRequestJerk,
			f + sigSuffixSelected,
		}
	}
	return m
}()

func featureSig(feature string, idx int, suffix string) string {
	if names, ok := featureSigNames[feature]; ok {
		return names[idx]
	}
	return feature + suffix
}

// SigActive returns the Active signal name for a feature.
func SigActive(feature string) string { return featureSig(feature, 0, sigSuffixActive) }

// SigAccelRequest returns the acceleration-request signal name for a feature.
func SigAccelRequest(feature string) string { return featureSig(feature, 1, sigSuffixAccelRequest) }

// SigRequestingAccel returns the requesting-acceleration flag name.
func SigRequestingAccel(feature string) string {
	return featureSig(feature, 2, sigSuffixRequestingAccel)
}

// SigSteerRequest returns the steering-request signal name for a feature.
func SigSteerRequest(feature string) string { return featureSig(feature, 3, sigSuffixSteerRequest) }

// SigRequestingSteer returns the requesting-steering flag name.
func SigRequestingSteer(feature string) string {
	return featureSig(feature, 4, sigSuffixRequestingSteer)
}

// SigRequestJerk returns the request-jerk signal name for a feature.
func SigRequestJerk(feature string) string { return featureSig(feature, 5, sigSuffixRequestJerk) }

// SigSelected returns the arbiter's selected flag name for a feature.
func SigSelected(feature string) string { return featureSig(feature, 6, sigSuffixSelected) }

// Physical and policy parameters.
const (
	// AutoAccelLimit is the vehicle-level limit on autonomous acceleration
	// (goal 1), in m/s².
	AutoAccelLimit = 2.0
	// AutoJerkLimit is the vehicle-level limit on autonomous jerk (goal 2),
	// in m/s³.
	AutoJerkLimit = 2.5
	// HardBrakeThreshold is the deceleration below which a feature request
	// counts as an emergency stop that the driver may not override
	// (goals 5 and 6), in m/s².
	HardBrakeThreshold = -2.0
	// StoppedSpeedEpsilon is the speed magnitude below which the vehicle
	// is considered stopped.
	StoppedSpeedEpsilon = 0.01
	// AccelResponseOmega is the natural frequency of the second-order
	// powertrain/brake response, in rad/s.
	AccelResponseOmega = 6.0
	// AccelResponseZeta is the damping ratio of the powertrain/brake
	// response.  The response is underdamped, so the achieved acceleration
	// overshoots the command by roughly 16%; this is the vehicle-dynamics
	// behaviour that lets the sensed acceleration and jerk violate the
	// system goals even when every command and request is within bounds
	// (the thesis' false negatives).
	AccelResponseZeta = 0.5
	// MaxDriverAccel is the acceleration at full throttle, in m/s².
	MaxDriverAccel = 3.0
	// MaxDriverBrake is the deceleration at full brake, in m/s².
	MaxDriverBrake = -8.0
	// CABrakeRequest is Collision Avoidance's hard-braking request, m/s².
	CABrakeRequest = -8.0
	// CreepAccel is the automatic-transmission creep acceleration applied
	// when the vehicle is in gear with no pedal and no command, in m/s².
	CreepAccel = 0.4
	// StoppedTime is the duration the vehicle must be stopped before the
	// no-acceleration-from-stop goal (goal 4) arms.
	StoppedTime = 500 * time.Millisecond
	// GoTime is the window after a throttle application or HMI go signal
	// during which acceleration from a stop is permitted (goal 4).
	GoTime = 500 * time.Millisecond
)

// Dynamics is the host-vehicle longitudinal and lateral dynamics model: the
// substitute for the CarSim vehicle plant.  The achieved acceleration tracks
// the arbiter's command with a first-order lag; speed and position are
// integrated from it.  The speed is clamped at zero when braking to a stop
// under driver, CA, RCA or PA control, but deliberately NOT when ACC or LCA
// are in control, reproducing the negative-speed anomaly the thesis observed
// in Scenario 6.
type Dynamics struct {
	speed     float64
	accel     float64
	accelRate float64
	position  float64
	lane      float64
	steering  float64

	// InitialSpeed sets the speed at the first step, in m/s.
	InitialSpeed float64
	started      bool

	binding
}

// Reset implements sim.Resetter: the vehicle returns to rest at the origin
// and re-latches InitialSpeed on the next first step.
func (d *Dynamics) Reset() {
	d.speed, d.accel, d.accelRate = 0, 0, 0
	d.position, d.lane, d.steering = 0, 0, 0
	d.started = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (d *Dynamics) Step(_ time.Duration, bus *sim.Bus) {
	v := d.vars
	if !d.started {
		d.speed = d.InitialSpeed
		d.started = true
	}
	dt := bus.StepSeconds()
	cmd := number(v.accelCommand)
	source := v.accelSource.Read()
	reverse := v.reverse()

	// Automatic-transmission creep: with no command and no pedal, the
	// vehicle slowly creeps in the direction of the gear.
	if source == SourceNone || source == "" {
		cmd = CreepAccel
		if reverse {
			cmd = -CreepAccel
		}
		if math.Abs(d.speed) > 1.5 {
			cmd = 0
		}
	}

	// Second-order (underdamped) powertrain/brake response: the achieved
	// acceleration overshoots step changes in the command.
	d.accelRate += (AccelResponseOmega*AccelResponseOmega*(cmd-d.accel) -
		2*AccelResponseZeta*AccelResponseOmega*d.accelRate) * dt
	d.accel += d.accelRate * dt
	jerk := d.accelRate

	d.speed += d.accel * dt

	// Braking to a stop holds the vehicle at rest for the driver and for
	// the collision-avoidance / park features.  ACC and LCA lack this
	// hold, which is the seeded negative-speed defect.
	clampingSource := source == SourceDriver || source == SourceCA || source == SourceRCA ||
		source == SourcePA || source == SourceNone || source == ""
	if clampingSource {
		if !reverse && d.speed < 0 && d.accel < 0 {
			d.speed = 0
		}
		if reverse && d.speed > 0 && d.accel > 0 {
			d.speed = 0
		}
	}

	d.position += d.speed * dt

	// Lateral: the steering command is applied directly (a kinematic
	// approximation); the lane position drifts with the steering angle.
	d.steering = number(v.steerCommand)
	d.lane += d.steering * d.speed * 0.02 * dt

	v.speed.Write(d.speed)
	v.accel.Write(d.accel)
	v.jerk.Write(jerk)
	v.position.Write(d.position)
	v.lane.Write(d.lane)
	v.steeringAngle.Write(d.steering)
	v.stopped.Write(math.Abs(d.speed) < StoppedSpeedEpsilon)
	v.forward.Write(d.speed > StoppedSpeedEpsilon)
	v.backward.Write(d.speed < -StoppedSpeedEpsilon)
}

// Object is a target vehicle (or obstacle) in the host vehicle's path.  It
// publishes the forward range when ahead of the host and the rear range when
// behind it, as the long-range radar and rear sensors would.
type Object struct {
	// InitialDistance is the starting range to the host vehicle in metres
	// (positive ahead, negative behind).
	InitialDistance float64
	// Speed is the object's speed in m/s (0 for a stopped vehicle).
	Speed float64

	position float64
	started  bool

	binding
}

// Reset implements sim.Resetter: the object re-latches its initial placement
// relative to the host on the next first step.
func (o *Object) Reset() {
	o.position = 0
	o.started = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (o *Object) Step(_ time.Duration, bus *sim.Bus) {
	v := o.vars
	dt := bus.StepSeconds()
	host := number(v.position)
	if !o.started {
		o.position = host + o.InitialDistance
		o.started = true
	}
	o.position += o.Speed * dt

	gap := o.position - host
	if o.InitialDistance >= 0 {
		v.objectDistance.Write(gap)
		v.objectSpeed.Write(o.Speed)
		v.rearObjectDistance.Write(1e9)
		v.collision.Write(gap <= 0)
	} else {
		v.objectDistance.Write(1e9)
		v.objectSpeed.Write(o.Speed)
		v.rearObjectDistance.Write(-gap)
		v.collision.Write(gap >= 0)
	}
}
