// Elevator: the Chapter 4 worked example end to end.
//
// The example prints the ICPA of Maintain[DoorClosedOrElevatorStopped]
// (Tables 4.1–4.4), runs the distributed elevator simulation in its nominal
// configuration and in a configuration with the door controller's
// open-while-moving defect seeded, and compares the hierarchical monitoring
// results: the defect is detected both at the system level and by the
// DoorController subgoal (a hit), while the redundant emergency brake masks
// the hoistway-limit defect (a false positive).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/elevator"
)

func main() { run(os.Stdout) }

// run writes the ICPA table, the subgoal realizability and the four
// scenarios' monitoring results to w.
func run(w io.Writer) {
	// The ICPA behind the Table 4.4 subgoals.
	analysis := elevator.DoorDriveICPA()
	fmt.Fprintln(w, analysis.Render())

	fmt.Fprintln(w, "Subgoal realizability (after granting the cross-monitoring of Table 4.4):")
	// Subgoals print in the analysis' declaration order, not the result
	// map's iteration order, so the output is reproducible.
	checks := analysis.CheckRealizability()
	for _, sg := range analysis.Subgoals {
		fmt.Fprintf(w, "  %-55s %s\n", sg.Goal.Name, checks[sg.Goal.Name])
	}
	fmt.Fprintln(w)

	for _, sc := range []elevator.Scenario{
		elevator.NominalScenario(),
		elevator.DoorDefectScenario(),
		elevator.HoistwayDefectScenario(),
		elevator.HoistwayUnprotectedScenario(),
	} {
		res := elevator.Run(sc)
		fmt.Fprintf(w, "Scenario %-22s  %s\n", sc.Name, res.Summary)
		for _, row := range res.Suite.Report() {
			fmt.Fprintf(w, "    %s\n", row)
		}
		fmt.Fprintf(w, "    %s\n\n", res.Summary.CompositionEvidence())
	}
}
