package temporal

import "testing"

// FuzzParse checks the parse → String → re-parse round trip: any input the
// parser accepts must render to a formula string the parser accepts again,
// and that rendering must be a fixed point (String is the normal form).  The
// seed corpus is drawn from the thesis' goal catalogues: the vehicle safety
// goals of Tables 5.1/5.2, their Table 5.3 subgoals and the elevator goals
// of Chapter 4, plus operator-coverage fragments.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Vehicle system safety goals (Tables 5.1/5.2).
		"Arbiter.AccelFromSubsystem => Vehicle.Accel <= 2",
		"Arbiter.AccelFromSubsystem => (Vehicle.Jerk <= 2.5 & Vehicle.Jerk >= -2.5)",
		"Arbiter.AccelSteeringAgreement",
		"((prevfor[500ms](Vehicle.Stopped) | (initially(Vehicle.Stopped) & hist(Vehicle.Stopped) & Vehicle.Stopped)) & !prevwithin[500ms](Driver.ThrottlePedal) & !prevwithin[500ms](HMI.Go) & Arbiter.AccelFromSubsystem) => Vehicle.Accel <= 0.05",
		"(Vehicle.InForwardMotion & prev(Driver.PedalApplied)) => !Arbiter.SelectedSoftRequestFwd",
		"prev(Driver.SteeringActive) => !Arbiter.SteerFromSubsystem",
		"Vehicle.InForwardMotion => !(Arbiter.AccelSource == 'RCA' | Arbiter.SteerSource == 'RCA')",
		"Vehicle.InBackwardMotion => !(Arbiter.AccelSource == 'CA' | Arbiter.AccelSource == 'ACC' | Arbiter.AccelSource == 'LCA')",
		// Table 5.3 subgoal shapes.
		"CA.AccelRequest <= 2",
		"(CA.RequestJerk <= 2.5 & CA.RequestJerk >= -2.5)",
		"(Vehicle.InForwardMotion & prev(Driver.PedalApplied) & PA.RequestingAccel & PA.AccelRequest > -2) => !PA.Selected",
		"Vehicle.InBackwardMotion => !(LCA.RequestingAccel | LCA.RequestingSteer)",
		// Elevator goals (Chapter 4).
		"DoorClosed | ElevatorStopped",
		"ElevatorWeight > 680 => DriveCommand == 'STOP'",
		"became(ElevatorPosition >= 12.6) => prev(EmergencyBrake == 'APPLIED')",
		// Operator coverage.
		"true",
		"false",
		"!(A & B) <=> (!A | !B)",
		"once(A) & hist(B) & became(C)",
		"next(eventually(always(A)))",
		"prevfor[1h2m3s](A) | prevwithin[250us](B)",
		"a == b & a != c & x < y",
		"flag == true & other != false",
		"x >= -2.5e-1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		formula, err := Parse(input)
		if err != nil {
			return // rejected inputs are out of scope; only accepted ones must round-trip
		}
		rendered := formula.String()
		reparsed, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded but its rendering %q does not re-parse: %v", input, rendered, err)
		}
		if again := reparsed.String(); again != rendered {
			t.Fatalf("String is not a parse fixed point for %q:\nfirst:  %s\nsecond: %s", input, rendered, again)
		}
	})
}

// FuzzStepLanesMatchesReference is the lane differential under fuzzer-chosen
// inputs: seed picks the random formulas and traces, width the lane count
// (1-8) and holds the sequence of input hold lengths (each byte 1-64 steps,
// cycled; empty redraws every variable every step).  The lane-stepped program
// must match each formula's reference Stepper on every lane and every step,
// across a mid-trace schema swap and a Reset.
func FuzzStepLanesMatchesReference(f *testing.F) {
	f.Add(int64(0), uint8(3), []byte{1, 10, 50})
	f.Add(int64(7), uint8(0), []byte{})
	f.Add(int64(42), uint8(7), []byte{63, 2, 2, 30})
	// Long holds: most steps change no watched operand group, so almost
	// every atom keeps last step's mask (widths 1 and 4).
	f.Add(int64(3), uint8(0), []byte{63, 63, 63})
	f.Add(int64(5), uint8(3), []byte{63, 63, 63})
	f.Fuzz(func(t *testing.T, seed int64, width uint8, holds []byte) {
		d := laneDiff{seed: seed, lanes: 1 + int(width)%8, steps: 150, resetAt: 100, swapAt: 50}
		if len(holds) > 0 {
			next := 0
			d.hold = func() int {
				h := 1 + int(holds[next%len(holds)])%64
				next++
				return h
			}
		}
		d.run(t)
	})
}
