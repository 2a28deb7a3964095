package vehicle

import (
	"math"
	"time"

	"repro/internal/sim"
)

// featureOutputs publishes the standard output signals of a feature
// subsystem through its slot-indexed handles and maintains the request-jerk
// signal used by the jerk subgoal monitors.
type featureOutputs struct {
	prevRequest float64
	havePrev    bool
}

// reset clears the request-jerk history.
func (f *featureOutputs) reset() {
	f.prevRequest = 0
	f.havePrev = false
}

// publish writes the outputs of feature idx (an index into FeatureNames).
func (f *featureOutputs) publish(v *busVars, idx int, active bool, accelRequest float64, requestingAccel bool,
	steerRequest float64, requestingSteer bool) {

	dt := v.bus.StepSeconds()
	jerk := 0.0
	if f.havePrev && dt > 0 {
		jerk = (accelRequest - f.prevRequest) / dt
	}
	f.prevRequest = accelRequest
	f.havePrev = true

	fv := &v.features[idx]
	fv.active.Write(active)
	fv.accelRequest.Write(accelRequest)
	fv.requestingAccel.Write(requestingAccel)
	fv.steerRequest.Write(steerRequest)
	fv.requestingSteer.Write(requestingSteer)
	fv.requestJerk.Write(jerk)
}

// CollisionAvoidance (CA) detects objects in the forward path and performs a
// hard braking action to stop the host vehicle before a collision.
//
// Seeded defect (thesis Scenarios 1–3): the braking action is intermittent —
// CA cancels its brake request briefly and then re-applies it, so the
// vehicle may fail to stop in time.
type CollisionAvoidance struct {
	// IntermittentBraking enables the seeded cancel/re-apply defect.
	IntermittentBraking bool
	// CancelPeriod and CancelDuration shape the defect: every CancelPeriod
	// of braking, the request is dropped for CancelDuration.
	CancelPeriod   time.Duration
	CancelDuration time.Duration

	out     featureOutputs
	braking bool
	since   time.Duration

	binding
}

// NewCollisionAvoidance returns a CA subsystem with the thesis' defect
// enabled and its default timing.
func NewCollisionAvoidance() *CollisionAvoidance {
	return &CollisionAvoidance{
		IntermittentBraking: true,
		CancelPeriod:        400 * time.Millisecond,
		CancelDuration:      60 * time.Millisecond,
	}
}

// Reset implements sim.Resetter.
func (c *CollisionAvoidance) Reset() {
	c.out.reset()
	c.braking = false
	c.since = 0
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *CollisionAvoidance) Step(now time.Duration, _ *sim.Bus) {
	v := c.vars
	enabled := v.caEnabled.Read()
	speed := v.speed.Read()
	distance := v.objectDistance.Read()
	forward := !v.reverse()

	shouldBrake := false
	if enabled && forward && !math.IsNaN(distance) && !math.IsNaN(speed) && speed > 0.2 {
		timeToCollision := math.Inf(1)
		closing := speed - v.objectSpeed.Read()
		if closing > 0 {
			timeToCollision = distance / closing
		}
		// Brake when the remaining time or distance no longer allows a
		// comfortable stop.
		if timeToCollision < 1.8 || distance < 7 {
			shouldBrake = true
		}
	}

	if shouldBrake && !c.braking {
		c.braking = true
		c.since = now
	}
	if !shouldBrake {
		c.braking = false
	}

	active := c.braking
	request := 0.0
	if c.braking {
		request = CABrakeRequest
		if c.IntermittentBraking && c.CancelPeriod > 0 {
			phase := (now - c.since) % c.CancelPeriod
			if phase < c.CancelDuration && now-c.since > c.CancelPeriod/2 {
				// Defect: briefly cancel the braking action.
				active = false
				request = 0
			}
		}
	}
	c.out.publish(v, idxCA, active, request, active, 0, false)
}

// RearCollisionAvoidance (RCA) should stop the vehicle when reversing toward
// an obstacle.
//
// Seeded defect (thesis Scenario 7): RCA never engages, so it never requests
// braking even when the rear object is about to be struck.
type RearCollisionAvoidance struct {
	// NeverEngages enables the seeded defect (the thesis implementation's
	// RCA was not functional).
	NeverEngages bool

	out featureOutputs

	binding
}

// NewRearCollisionAvoidance returns an RCA subsystem with the thesis' defect
// enabled.
func NewRearCollisionAvoidance() *RearCollisionAvoidance {
	return &RearCollisionAvoidance{NeverEngages: true}
}

// Reset implements sim.Resetter.
func (c *RearCollisionAvoidance) Reset() { c.out.reset() }

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *RearCollisionAvoidance) Step(_ time.Duration, _ *sim.Bus) {
	v := c.vars
	enabled := v.rcaEnabled.Read()
	reverse := v.reverse()
	speed := v.speed.Read()
	rearDistance := v.rearObjectDistance.Read()

	active := false
	request := 0.0
	if enabled && reverse && !c.NeverEngages && !math.IsNaN(rearDistance) && speed < -0.2 && rearDistance < 6 {
		active = true
		request = -CABrakeRequest // decelerate reverse motion (positive accel)
	}
	c.out.publish(v, idxRCA, active, request, active, 0, false)
}

// AdaptiveCruiseControl (ACC) controls the vehicle to a set speed, or to a
// following gap behind a slower lead vehicle, and also provides the
// longitudinal control for LCA.
//
// Seeded defects (thesis Scenarios 3, 4, 8 and 10): when enabled but not
// engaged the controller keeps running against an uninitialised set speed of
// 0 m/s and keeps emitting acceleration requests; engagement is accepted
// regardless of the current gear or speed; and its request profile is not
// jerk-limited.
type AdaptiveCruiseControl struct {
	// ControlWhenNotEngaged enables the runs-while-not-engaged defect.
	ControlWhenNotEngaged bool
	// EngageWithoutChecks accepts engagement in reverse or at standstill.
	EngageWithoutChecks bool
	// DecelWhileLCA applies a fixed deceleration while LCA is active (the
	// gap-making behaviour whose missing exit condition drives Scenario 6's
	// negative speed).
	DecelWhileLCA bool

	out      featureOutputs
	engaged  bool
	setSpeed float64

	binding
}

// NewAdaptiveCruiseControl returns an ACC subsystem with the thesis' defects
// enabled.
func NewAdaptiveCruiseControl() *AdaptiveCruiseControl {
	return &AdaptiveCruiseControl{
		ControlWhenNotEngaged: true,
		EngageWithoutChecks:   true,
		DecelWhileLCA:         true,
	}
}

// Engaged reports whether ACC is currently engaged.
func (c *AdaptiveCruiseControl) Engaged() bool { return c.engaged }

// Reset implements sim.Resetter.
func (c *AdaptiveCruiseControl) Reset() {
	c.out.reset()
	c.engaged = false
	c.setSpeed = 0
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *AdaptiveCruiseControl) Step(_ time.Duration, _ *sim.Bus) {
	v := c.vars
	enabled := v.accEnabled.Read()
	engageRequest := v.accEngageRequest.Read()
	speed := v.speed.Read()
	if math.IsNaN(speed) {
		speed = 0
	}

	if !enabled {
		c.engaged = false
	}
	if enabled && engageRequest {
		// The implementation accepted engagement whenever the vehicle was
		// rolling, with no check of the direction of travel (the Scenario 8
		// defect); engagement at a standstill was rejected (Scenario 10).
		canEngage := math.Abs(speed) > 1.0
		if !c.EngageWithoutChecks {
			canEngage = canEngage && v.gear.ReadID() == v.gearDID && speed > 0
		}
		if canEngage {
			c.engaged = true
			c.setSpeed = v.accSetSpeed.Read()
			if c.setSpeed <= 0 || math.IsNaN(c.setSpeed) {
				c.setSpeed = speed
			}
		}
	}
	// The driver cancels ACC with the brake pedal.
	if v.brakePedal.Read() && c.engaged {
		c.engaged = false
	}

	lcaActive := v.features[idxLCA].active.Read()

	controlling := c.engaged || (enabled && c.ControlWhenNotEngaged)
	active := c.engaged
	request := 0.0
	if controlling {
		target := c.setSpeed
		if !c.engaged {
			// Defect: the not-engaged controller uses the uninitialised
			// set speed of 0 m/s.
			target = 0
		}
		// Gap control behind a slower lead vehicle.
		distance := v.objectDistance.Read()
		leadSpeed := v.objectSpeed.Read()
		desiredGap := 2*speed + 5
		if !math.IsNaN(distance) && distance < desiredGap && leadSpeed < target {
			target = leadSpeed
		}
		request = 0.8 * (target - speed)
		if request > 2 {
			request = 2
		}
		if request < -3 {
			request = -3
		}
		if c.engaged && lcaActive && c.DecelWhileLCA {
			// Defect: fixed gap-making deceleration with no exit condition.
			request = -1.5
		}
	}
	c.out.publish(v, idxACC, active, request, controlling, 0, false)
}

// LaneChangeAssist (LCA) performs a lane-change manoeuvre in conjunction
// with ACC when requested by the driver.
//
// Seeded defects (thesis Scenario 6): LCA requests steering but the steering
// command never changes (the Arbiter ignores the magnitude), and LCA remains
// active while the vehicle speed falls through zero.
type LaneChangeAssist struct {
	out     featureOutputs
	engaged bool

	binding
}

// NewLaneChangeAssist returns an LCA subsystem.
func NewLaneChangeAssist() *LaneChangeAssist {
	return &LaneChangeAssist{}
}

// Reset implements sim.Resetter.
func (c *LaneChangeAssist) Reset() {
	c.out.reset()
	c.engaged = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *LaneChangeAssist) Step(_ time.Duration, _ *sim.Bus) {
	v := c.vars
	enabled := v.lcaEnabled.Read()
	if !enabled {
		c.engaged = false
	}
	if enabled && v.lcaEngageRequest.Read() {
		c.engaged = true
	}
	active := c.engaged
	steer := 0.0
	if active {
		steer = 2.5 // degrees toward the adjacent lane
	}
	// LCA's longitudinal control is performed by ACC; it nevertheless
	// reports that it is requesting both acceleration and steering, which
	// is what goal 3 (acceleration/steering agreement) checks.
	accelRequest := number(v.features[idxACC].accelRequest)
	c.out.publish(v, idxLCA, active, accelRequest, active, steer, active)
}

// ParkAssist (PA) finds a parking space and parks the vehicle when engaged.
//
// Seeded defects (thesis Scenarios 1, 2 and 9): PA emits acceleration
// requests on a fixed internal schedule even while it is not enabled, and
// when it is engaged its acceleration request is not reproduced faithfully
// by the Arbiter (the command mismatch of Figure 5.14).
type ParkAssist struct {
	// SpuriousRequests enables the requests-while-disabled defect.
	SpuriousRequests bool

	out     featureOutputs
	engaged bool

	binding
}

// NewParkAssist returns a PA subsystem with the thesis' defect enabled.
func NewParkAssist() *ParkAssist {
	return &ParkAssist{SpuriousRequests: true}
}

// Reset implements sim.Resetter.
func (c *ParkAssist) Reset() {
	c.out.reset()
	c.engaged = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (c *ParkAssist) Step(now time.Duration, _ *sim.Bus) {
	v := c.vars
	enabled := v.paEnabled.Read()
	if !enabled {
		c.engaged = false
	}
	if enabled && v.paEngageRequest.Read() {
		c.engaged = true
	}

	active := c.engaged
	request := 0.0
	steer := 0.0
	requestingAccel := false
	requestingSteer := false

	switch {
	case c.engaged:
		// Move into the parking spot with gentle steering.  The request is
		// at the autonomous-acceleration limit, so any overshoot in the
		// vehicle response exceeds the vehicle-level goal even though the
		// request itself satisfies the feature subgoal.
		request = 2.0
		steer = 4.0
		requestingAccel = true
		requestingSteer = true
		if v.objectDistance.Read() < 3 {
			request = -2.0
		}
	case c.SpuriousRequests:
		// Defect: the PA prototype publishes its internal test profile even
		// while disabled (thesis Figure 5.3): +2 m/s² until 2.186 s, 0
		// until 9.33 s, −2 m/s² until 9.624 s, then 0.
		switch {
		case now < 2186*time.Millisecond:
			request = 2.0
		case now >= 9330*time.Millisecond && now < 9624*time.Millisecond:
			request = -2.0
		default:
			request = 0
		}
		requestingAccel = false
	}
	c.out.publish(v, idxPA, active, request, requestingAccel, steer, requestingSteer)
}
