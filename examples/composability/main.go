// Composability: the Chapter 3 definitions demonstrated on the thesis'
// ObjectInPath ⇒ StopVehicle example.
//
// The example classifies four decompositions of the same parent goal —
// fully composable, fully composable with redundancy, emergent but partially
// composable, and emergent — and shows the conjunctive-split, OR-reduction
// and safety-envelope restriction tactics of §3.3.4/§3.3.5.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/goals"
	"repro/internal/temporal"
)

func main() { run(os.Stdout) }

// run writes the four classifications and the three restriction tactics to w.
func run(w io.Writer) {
	parent := goals.MustParse("Maintain[StopWhenObjectInPath]",
		"The vehicle shall be stopped whenever an object is in its path.",
		"ObjectInPath => StopVehicle")
	space := goals.BooleanStateSpace("ObjectInPath", "Detected", "CAStop", "ACCStop", "StopVehicle")

	show := func(title string, d core.Decomposition) {
		res := core.Classify(d, space)
		fmt.Fprintf(w, "%-70s %s\n", title, res)
	}

	// Eq. 3.5/3.6: exact decomposition through Collision Avoidance, with the
	// domain properties that make it exact.
	show("CA stops the vehicle, and only CA stops it (Eqs. 3.5-3.6)", core.Decomposition{
		Parent: parent,
		Reductions: [][]goals.Goal{{
			goals.MustParse("G1", "", "ObjectInPath <=> CAStop"),
			goals.MustParse("G2", "", "CAStop => StopVehicle"),
		}},
		Assumptions: []temporal.Formula{
			temporal.MustParse("StopVehicle => CAStop"),
			temporal.MustParse("CAStop => ObjectInPath"),
		},
	})

	// Eq. 3.12/3.13: redundant coverage by CA and ACC.
	show("CA or ACC stops the vehicle (redundant, Eqs. 3.12-3.13)", core.Decomposition{
		Parent: parent,
		Reductions: [][]goals.Goal{
			{goals.MustParse("G1a", "", "ObjectInPath => CAStop"), goals.MustParse("G1b", "", "CAStop => StopVehicle")},
			{goals.MustParse("G2a", "", "ObjectInPath => ACCStop"), goals.MustParse("G2b", "", "ACCStop => StopVehicle")},
		},
		Assumptions: []temporal.Formula{
			temporal.MustParse("StopVehicle => (CAStop | ACCStop)"),
			temporal.MustParse("CAStop => ObjectInPath"),
			temporal.MustParse("ACCStop => ObjectInPath"),
		},
	})

	// Eqs. 3.17-3.20: only detected objects are handled; undetected objects
	// are the hidden goal X.
	show("Only detected objects are handled (hidden X, Eqs. 3.17-3.20)", core.Decomposition{
		Parent:     parent,
		Reductions: [][]goals.Goal{{goals.MustParse("G1", "", "Detected => StopVehicle")}},
		Assumptions: []temporal.Formula{
			temporal.MustParse("Detected => ObjectInPath"),
			temporal.MustParse("StopVehicle => Detected"),
		},
	})

	// A decomposition about unrelated variables says nothing about the goal.
	show("Unrelated subgoals (emergent)", core.Decomposition{
		Parent:     parent,
		Reductions: [][]goals.Goal{{goals.MustParse("G1", "", "Detected => CAStop")}},
	})

	fmt.Fprintln(w)

	// Conjunctive split (§3.3.4): a disjunctive antecedent splits into cases
	// that can be assured independently.
	uncertain := goals.MustParse("Maintain[StopOnAnyDetectionOutcome]",
		"Whether or not the object is detected, the vehicle shall be stopped when one is present.",
		"(InPathDetected | InPathNotDetected) => StopVehicle")
	if subs, ok := core.SplitConjunctiveGoal(uncertain); ok {
		fmt.Fprintln(w, "Conjunctive split of the detection-uncertainty goal (Eqs. 3.39-3.41):")
		for _, s := range subs {
			fmt.Fprintf(w, "  %s\n", s.Formal)
		}
	}

	// OR-reduction (§3.3.5): keep only the realizable disjunct.
	disjunctive := goals.MustParse("Maintain[BrakeOrUnknownRecovery]",
		"Either the brake is applied or some unknown recovery behaviour occurs.",
		"BrakeApplied | UnknownRecovery")
	if reduced, ok := core.ORReduceGoal(disjunctive, func(f temporal.Formula) bool {
		return f.String() == "BrakeApplied"
	}); ok {
		fmt.Fprintf(w, "OR-reduction keeps the realizable disjunct: %s (more restrictive)\n", reduced.Formal)
	}

	// Safety envelope (Eqs. 3.47-3.48): restrict the requesting variable by
	// a margin below the sensed limit.
	accel := goals.MustParse("Achieve[AutoAccelBelowThreshold]",
		"Autonomous acceleration shall not exceed 2 m/s².",
		"VehicleAcceleration <= 2")
	if sub, ok := core.SafetyEnvelope(accel, "VehicleAccelerationRequest", 0.5); ok {
		fmt.Fprintf(w, "Safety envelope on the request variable: %s\n", sub.Formal)
	}
}
