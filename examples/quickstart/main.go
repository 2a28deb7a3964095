// Quickstart: define a system safety goal in temporal logic, derive
// subsystem subgoals with Indirect Control Path Analysis, and monitor both
// at run time over a recorded trace.
//
// The example uses the thesis' motivating goal — "apply the brake when an
// object is in the vehicle path" — on a toy two-component system, and shows
// the three outputs a user of this library works with: the rendered ICPA
// table, the composability classification of the derived decomposition, and
// the hit / false-positive / false-negative classification produced by
// hierarchical run-time monitoring.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/goals"
	"repro/internal/monitor"
	"repro/internal/temporal"
)

func main() { run(os.Stdout) }

// run writes the example's three outputs to w.
func run(w io.Writer) {
	// 1. Define the system safety goal formally (thesis Eq. 3.4).
	parent := goals.MustParse("Maintain[StopWhenObjectInPath]",
		"If an object is in the vehicle path, the vehicle shall be stopped.",
		"prev(ObjectInPath) => VehicleStopped")

	// 2. Describe the functional decomposition: a detector that produces
	//    ObjectDetected from the environment, and a brake controller that
	//    stops the vehicle.
	model := core.NewSystemModel("quickstart vehicle")
	model.AddAgent(goals.NewAgent("Detector", goals.KindSensor,
		[]string{"ObjectInPath"}, []string{"ObjectDetected"}))
	model.AddAgent(goals.NewAgent("BrakeController", goals.KindSoftware,
		[]string{"ObjectDetected"}, []string{"BrakeCommand"}))
	model.AddAgent(goals.NewAgent("Brake", goals.KindActuator,
		[]string{"BrakeCommand"}, []string{"VehicleStopped"}))

	// 3. Run the ICPA: trace the indirect control paths, record the
	//    relationships, choose a coverage strategy and derive subgoals.
	analysis := core.NewAnalysis(parent, model)
	analysis.TracePaths(0)
	relDetect := analysis.AddRelationship("VehicleStopped", []string{"Detector"},
		temporal.MustParse("prev(ObjectInPath) => ObjectDetected"),
		"The detector reports objects within one state")
	relBrake := analysis.AddRelationship("VehicleStopped", []string{"Brake"},
		temporal.MustParse("prev(BrakeCommand == 'APPLY') => VehicleStopped"),
		"An applied brake stops the vehicle within one state")
	analysis.SetCoverage(core.CoverageStrategy{
		Assignment:  core.SingleResponsibility,
		Scope:       core.Restrictive,
		Responsible: []string{"BrakeController"},
	})
	analysis.AddElaboration(
		"prev(ObjectInPath) => VehicleStopped  <=  chain through detection and brake actuation",
		core.TacticSplitByChaining, []int{relDetect, relBrake}, "")
	subgoal := goals.MustParse("Achieve[BrakeOnDetection]",
		"If an object was detected, the brake shall be commanded to APPLY.",
		"prev(ObjectDetected) => BrakeCommand == 'APPLY'").
		WithAssignee("BrakeController")
	analysis.AddSubgoal(core.SubsystemGoal{
		Subsystem: "BrakeController",
		Goal:      subgoal,
		Observes:  []string{"ObjectDetected"},
		Controls:  []string{"BrakeCommand"},
	})
	fmt.Fprintln(w, analysis.Render())

	// 4. Classify the decomposition (Chapter 3) over its propositional
	//    content: without the detection assumption the subgoal is not
	//    sufficient for the parent — the goal is emergent but partially
	//    composable, with missed detections as the hidden goal X.
	space := goals.BooleanStateSpace("ObjectInPath", "ObjectDetected", "VehicleStopped")
	propositionalParent := goals.MustParse(parent.Name, parent.InformalDef, "ObjectInPath => VehicleStopped")
	propositionalSubgoal := goals.MustParse(subgoal.Name, subgoal.InformalDef, "ObjectDetected => VehicleStopped")
	withoutAssumption := core.Classify(core.Decomposition{
		Parent:     propositionalParent,
		Reductions: [][]goals.Goal{{propositionalSubgoal}},
		Assumptions: []temporal.Formula{
			temporal.MustParse("ObjectDetected => ObjectInPath"),
			temporal.MustParse("VehicleStopped => ObjectDetected"),
		},
	}, space)
	fmt.Fprintf(w, "Classification without the detection-completeness assumption: %s\n", withoutAssumption)

	// 5. Monitor the goal and the subgoal hierarchically over a recorded
	//    trace containing a detection fault.  Both formulas compile into
	//    one shared evaluation program; the subgoal's violations are matched
	//    against the goal's within a 5-state tolerance.
	period := 10 * time.Millisecond
	suite := monitor.NewCompiledSuite(period, nil)
	suite.MustAddHierarchy(monitor.GoalAt{Goal: parent, Location: "Vehicle"}, 5,
		monitor.GoalAt{Goal: subgoal, Location: "BrakeController"})

	for i := 0; i < 100; i++ {
		objectPresent := i >= 40 && i < 70
		detected := objectPresent && i < 55 // the detector drops out at i=55
		braked := i >= 41 && i < 58
		state := temporal.NewState().
			SetBool("ObjectInPath", objectPresent).
			SetBool("ObjectDetected", detected).
			SetString("BrakeCommand", map[bool]string{true: "APPLY", false: "RELEASE"}[detected]).
			SetBool("VehicleStopped", braked)
		suite.Observe(state)
	}
	suite.Finish()

	_, summary := suite.ClassifyAll()
	fmt.Fprintf(w, "Run-time monitoring: %s\n", summary)
	fmt.Fprintf(w, "Interpretation: %s\n", summary.CompositionEvidence())
}
