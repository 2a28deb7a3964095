package vehicle

import (
	"repro/internal/core"
	"repro/internal/goals"
)

// Model builds the ICPA system model of the semi-autonomous automotive
// system (thesis Figure 5.1): the driver, the HMI, the five feature
// subsystems, the Arbiter, the powertrain/brake/steering response and the
// motion sensors, together with the state variables they monitor and
// control.  The Appendix C analyses are run against this model.
func Model() *core.SystemModel {
	m := core.NewSystemModel("semi-autonomous automotive system")

	m.AddAgent(goals.NewAgent("Driver", goals.KindEnvironment,
		[]string{SigVehicleSpeed, SigObjectDistance},
		[]string{SigThrottlePedal, SigThrottleLevel, SigBrakePedal, SigBrakeLevel,
			SigSteeringActive, SigSteeringInput, SigGear}))
	m.AddAgent(goals.NewAgent("HMI", goals.KindSoftware,
		[]string{SigVehicleSpeed},
		[]string{SigCAEnabled, SigRCAEnabled, SigACCEnabled, SigACCEngageRequest, SigACCSetSpeed,
			SigLCAEnabled, SigLCAEngageRequest, SigPAEnabled, SigPAEngageRequest, SigHMIGo}))

	// Every feature subsystem observes the shared vehicle-state and driver
	// signals published on the network, in addition to its own inputs; this
	// is what makes the OR-reduced feature subgoals of Table 5.3 realizable.
	commonFeatureInputs := []string{
		SigVehicleSpeed, SigVehicleStopped, SigInForwardMotion, SigInBackwardMotion,
		SigThrottlePedal, SigBrakePedal, SigPedalApplied, SigSteeringActive, SigHMIGo, SigGear,
	}
	featureInputs := func(extra ...string) []string {
		return append(append([]string(nil), commonFeatureInputs...), extra...)
	}
	m.AddAgent(goals.NewAgent("CA", goals.KindSoftware,
		featureInputs(SigCAEnabled, SigObjectDistance, SigObjectSpeed, SigSelected(SourceCA)),
		[]string{SigActive(SourceCA), SigAccelRequest(SourceCA), SigRequestingAccel(SourceCA)}))
	m.AddAgent(goals.NewAgent("RCA", goals.KindSoftware,
		featureInputs(SigRCAEnabled, SigRearObjectDistance, SigSelected(SourceRCA)),
		[]string{SigActive(SourceRCA), SigAccelRequest(SourceRCA), SigRequestingAccel(SourceRCA)}))
	m.AddAgent(goals.NewAgent("ACC", goals.KindSoftware,
		featureInputs(SigACCEnabled, SigACCEngageRequest, SigACCSetSpeed,
			SigObjectDistance, SigObjectSpeed, SigActive(SourceLCA), SigSelected(SourceACC)),
		[]string{SigActive(SourceACC), SigAccelRequest(SourceACC), SigRequestingAccel(SourceACC)}))
	m.AddAgent(goals.NewAgent("LCA", goals.KindSoftware,
		featureInputs(SigLCAEnabled, SigLCAEngageRequest, SigAccelRequest(SourceACC), SigSelected(SourceLCA)),
		[]string{SigActive(SourceLCA), SigAccelRequest(SourceLCA), SigRequestingAccel(SourceLCA),
			SigSteerRequest(SourceLCA), SigRequestingSteer(SourceLCA)}))
	m.AddAgent(goals.NewAgent("PA", goals.KindSoftware,
		featureInputs(SigPAEnabled, SigPAEngageRequest, SigObjectDistance, SigSelected(SourcePA)),
		[]string{SigActive(SourcePA), SigAccelRequest(SourcePA), SigRequestingAccel(SourcePA),
			SigSteerRequest(SourcePA), SigRequestingSteer(SourcePA)}))

	arbiterMonitors := []string{
		SigThrottleLevel, SigBrakeLevel, SigSteeringActive, SigSteeringInput, SigGear,
	}
	for _, f := range FeatureNames {
		arbiterMonitors = append(arbiterMonitors,
			SigActive(f), SigAccelRequest(f), SigRequestingAccel(f),
			SigSteerRequest(f), SigRequestingSteer(f))
	}
	arbiterControls := []string{
		SigAccelCommand, SigAccelSource, SigAccelFromSubsystem, SigAccelCommandJerk,
		SigSteerCommand, SigSteerSource, SigSteerFromSubsystem,
		SigAccelSteeringAgreement, SigSelectedRequestValue,
		SigSelectedSoftRequestFwd, SigSelectedSoftRequestBwd,
	}
	for _, f := range FeatureNames {
		arbiterControls = append(arbiterControls, SigSelected(f))
	}
	m.AddAgent(goals.NewAgent("Arbiter", goals.KindSoftware, arbiterMonitors, arbiterControls))

	m.AddAgent(goals.NewAgent("Powertrain", goals.KindActuator,
		[]string{SigAccelCommand, SigSteerCommand},
		[]string{"PhysicalAcceleration", "PhysicalSteering"}))
	m.AddAgent(goals.NewAgent("MotionSensors", goals.KindSensor,
		[]string{"PhysicalAcceleration", "PhysicalSteering"},
		[]string{SigVehicleSpeed, SigVehicleAccel, SigVehicleJerk, SigVehiclePosition,
			SigVehicleStopped, SigInForwardMotion, SigInBackwardMotion,
			SigLanePosition, SigSteeringAngle}))
	m.AddAgent(goals.NewAgent("ObjectSensors", goals.KindSensor,
		[]string{"Environment"},
		[]string{SigObjectDistance, SigObjectSpeed, SigRearObjectDistance}))
	return m
}
