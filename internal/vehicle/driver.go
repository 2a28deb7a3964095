package vehicle

import (
	"time"

	"repro/internal/sim"
)

// DriverAction is one scheduled driver or HMI input change.  Fields are
// pointers so that an action only touches the inputs it names; in JSON the
// untouched inputs are omitted, so a marshalled schedule carries exactly the
// inputs each action names and round-trips byte-identically (part of the
// distributed wire contract, see internal/dist).
type DriverAction struct {
	// At is the simulation time of the action.
	At time.Duration `json:"at"`
	// Throttle sets the throttle pedal level (0 releases the pedal).
	Throttle *float64 `json:"throttle,omitempty"`
	// Brake sets the brake pedal level (0 releases the pedal).
	Brake *float64 `json:"brake,omitempty"`
	// Steering sets the driver steering-wheel input (0 releases it).
	Steering *float64 `json:"steering,omitempty"`
	// EnableCA, EnableRCA, EnableACC, EnableLCA, EnablePA switch features
	// on or off at the HMI.
	EnableCA  *bool `json:"enable_ca,omitempty"`
	EnableRCA *bool `json:"enable_rca,omitempty"`
	EnableACC *bool `json:"enable_acc,omitempty"`
	EnableLCA *bool `json:"enable_lca,omitempty"`
	EnablePA  *bool `json:"enable_pa,omitempty"`
	// EngageACC, EngageLCA, EngagePA request feature engagement.
	EngageACC *bool `json:"engage_acc,omitempty"`
	EngageLCA *bool `json:"engage_lca,omitempty"`
	EngagePA  *bool `json:"engage_pa,omitempty"`
	// SetSpeed sets the ACC set speed in m/s.
	SetSpeed *float64 `json:"set_speed,omitempty"`
	// Go sends the HMI "go" confirmation used to resume from a stop.
	Go *bool `json:"go,omitempty"`
	// Gear selects the transmission gear ("D" or "R").
	Gear *string `json:"gear,omitempty"`
}

// Level returns a pointer to a pedal or steering level, for building
// schedules concisely.
func Level(v float64) *float64 { return &v }

// Flag returns a pointer to a boolean, for building schedules concisely.
func Flag(v bool) *bool { return &v }

// GearSel returns a pointer to a gear selection string.
func GearSel(g string) *string { return &g }

// Driver models the driver and the Human-Machine Interface: it applies the
// scheduled pedal, steering and HMI inputs and continuously publishes the
// driver-input signals the features and the Arbiter observe.
type Driver struct {
	// Schedule is the list of timed actions.
	Schedule []DriverAction
	// InitialGear is the gear at simulation start ("D" by default).
	InitialGear string

	throttle float64
	brake    float64
	steering float64
	gear     string

	caEnabled, rcaEnabled, accEnabled, lcaEnabled, paEnabled bool
	accEngage, lcaEngage, paEngage                           bool
	setSpeed                                                 float64
	hmiGo                                                    bool
	started                                                  bool

	binding
}

// Reset implements sim.Resetter: all pedal, HMI and gear state clears and
// InitialGear re-latches on the next first step.  Schedule and InitialGear
// are configuration and survive.
func (d *Driver) Reset() {
	d.throttle, d.brake, d.steering = 0, 0, 0
	d.gear = ""
	d.caEnabled, d.rcaEnabled, d.accEnabled, d.lcaEnabled, d.paEnabled = false, false, false, false, false
	d.accEngage, d.lcaEngage, d.paEngage = false, false, false
	d.setSpeed = 0
	d.hmiGo = false
	d.started = false
}

// Step implements sim.Component.
//
//lint:hotroot stepped every tick by LaneSim.Run through the sim.Component interface, an edge the analyzer cannot follow
func (d *Driver) Step(now time.Duration, bus *sim.Bus) {
	v := d.vars
	if !d.started {
		d.gear = d.InitialGear
		if d.gear == "" {
			d.gear = "D"
		}
		d.started = true
	}
	step := time.Duration(bus.StepSeconds() * float64(time.Second))
	// The go confirmation and engage requests are pulses: they last one
	// state unless re-asserted.
	d.hmiGo = false
	d.accEngage = false
	d.lcaEngage = false
	d.paEngage = false

	// By index: a DriverAction is ~130 bytes, and a range-by-value loop
	// copies every entry on every tick.  Entries that fire in the same tick
	// apply in schedule order, so the later one wins.
	schedule := d.Schedule
	for i := range schedule {
		a := &schedule[i]
		if now < a.At || now >= a.At+step {
			continue
		}
		if a.Throttle != nil {
			d.throttle = *a.Throttle
		}
		if a.Brake != nil {
			d.brake = *a.Brake
		}
		if a.Steering != nil {
			d.steering = *a.Steering
		}
		if a.EnableCA != nil {
			d.caEnabled = *a.EnableCA
		}
		if a.EnableRCA != nil {
			d.rcaEnabled = *a.EnableRCA
		}
		if a.EnableACC != nil {
			d.accEnabled = *a.EnableACC
		}
		if a.EnableLCA != nil {
			d.lcaEnabled = *a.EnableLCA
		}
		if a.EnablePA != nil {
			d.paEnabled = *a.EnablePA
		}
		if a.EngageACC != nil {
			d.accEngage = *a.EngageACC
		}
		if a.EngageLCA != nil {
			d.lcaEngage = *a.EngageLCA
		}
		if a.EngagePA != nil {
			d.paEngage = *a.EngagePA
		}
		if a.SetSpeed != nil {
			d.setSpeed = *a.SetSpeed
		}
		if a.Go != nil {
			d.hmiGo = *a.Go
		}
		if a.Gear != nil {
			d.gear = *a.Gear
		}
	}

	v.throttlePedal.Write(d.throttle > 0.02)
	v.throttleLevel.Write(d.throttle)
	v.brakePedal.Write(d.brake > 0.02)
	v.brakeLevel.Write(d.brake)
	v.steeringActive.Write(d.steering != 0)
	v.steeringInput.Write(d.steering)
	v.pedalApplied.Write(d.throttle > 0.02 || d.brake > 0.02)
	v.gear.WriteID(v.gearID(d.gear))

	v.caEnabled.Write(d.caEnabled)
	v.rcaEnabled.Write(d.rcaEnabled)
	v.accEnabled.Write(d.accEnabled)
	v.lcaEnabled.Write(d.lcaEnabled)
	v.paEnabled.Write(d.paEnabled)
	v.accEngageRequest.Write(d.accEngage)
	v.lcaEngageRequest.Write(d.lcaEngage)
	v.paEngageRequest.Write(d.paEngage)
	v.accSetSpeed.Write(d.setSpeed)
	v.hmiGo.Write(d.hmiGo)
}
