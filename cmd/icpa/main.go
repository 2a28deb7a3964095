// Command icpa prints the Indirect Control Path Analyses, realizability
// pattern tables and baseline hazard analyses reproduced from the thesis:
//
//   - the elevator analyses of Tables 4.1–4.4 and the hoistway-limit goal
//     (-system elevator),
//   - the semi-autonomous vehicle analyses of Appendix C (-system vehicle),
//   - Table 4.5 and the Appendix B realizability pattern catalogue
//     (-patterns),
//   - the Figure 2.2 fault tree and Figure 2.3 FMEA baselines (-hazard).
//
// Usage:
//
//	icpa [-system elevator|vehicle|all] [-goal name] [-patterns] [-hazard] [-verify]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/elevator"
	"repro/internal/goals"
	"repro/internal/hazard"
	"repro/internal/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and writes the selected tables to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("icpa", flag.ContinueOnError)
	system := fs.String("system", "all", "which system to analyse: elevator, vehicle or all")
	goalName := fs.String("goal", "", "print only the analysis of the named goal")
	patterns := fs.Bool("patterns", false, "print Table 4.5 and the Appendix B realizability pattern tables")
	hazards := fs.Bool("hazard", false, "print the Figure 2.2 fault tree, Figure 2.3 FMEA and the vehicle PHA")
	verify := fs.Bool("verify", false, "print realizability check results for every derived subgoal")
	lessons := fs.Bool("lessons", false, "print the design lessons from applying ICPA to the vehicle (§5.3.2)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var analyses []*core.Analysis
	switch *system {
	case "elevator":
		analyses = elevatorAnalyses()
	case "vehicle":
		analyses = scenarios.AppendixCAnalyses()
	case "all":
		analyses = append(elevatorAnalyses(), scenarios.AppendixCAnalyses()...)
	default:
		return fmt.Errorf("unknown system %q (want elevator, vehicle or all)", *system)
	}

	printed := 0
	for _, a := range analyses {
		if *goalName != "" && !strings.Contains(a.Goal.Name, *goalName) {
			continue
		}
		printed++
		fmt.Fprintln(out, a.Render())
		if *verify {
			// Subgoals print in the analysis' declaration order, not the
			// result map's iteration order, so the output is reproducible.
			fmt.Fprintln(out, "Subgoal realizability:")
			checks := a.CheckRealizability()
			for _, sg := range a.Subgoals {
				fmt.Fprintf(out, "  %-60s %s\n", sg.Goal.Name, checks[sg.Goal.Name])
			}
			fmt.Fprintln(out)
		}
	}
	if *goalName != "" && printed == 0 {
		return fmt.Errorf("no analysed goal matches %q", *goalName)
	}

	if *patterns {
		fmt.Fprintln(out, "Table 4.5: goal controllability and observability requirements for A => B")
		for _, t := range core.Table4_5() {
			fmt.Fprintln(out, t.Render())
		}
		fmt.Fprintln(out, "Appendix B: goal realizability patterns and alternative goals")
		for _, t := range core.AppendixBTables() {
			fmt.Fprintln(out, t.Render())
		}
	}

	if *hazards {
		tree := hazard.VehicleUnintendedAccelerationTree()
		fmt.Fprintln(out, tree.Render())
		fmt.Fprintf(out, "Top event probability (independent basic events): %.3e\n", tree.TopProbability())
		fmt.Fprintln(out, "Minimal cut sets:")
		for _, cs := range tree.MinimalCutSets() {
			fmt.Fprintf(out, "  %s\n", cs)
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, hazard.VehicleRadarFMEA().Render())
		fmt.Fprintln(out, hazard.VehiclePHA().Render())
	}

	if *lessons {
		fmt.Fprintln(out, "Lessons from applying ICPA to the semi-autonomous vehicle (§5.3.2, §6.1):")
		for _, l := range scenarios.LessonsFromICPA() {
			fmt.Fprintf(out, "  - %s\n", l)
		}
	}
	return nil
}

func elevatorAnalyses() []*core.Analysis {
	analyses := []*core.Analysis{elevator.DoorDriveICPA(), elevator.HoistwayICPA()}
	// The overweight goal is a single-responsibility analysis small enough
	// to build inline: it demonstrates the simplest coverage strategy.
	registry := elevator.Goals()
	model := elevator.Model()
	a := core.NewAnalysis(registry.MustGet(elevator.GoalDriveStoppedWhenOverweight), model)
	a.TracePaths(0)
	rel := a.AddRelationship(elevator.SigElevatorStopped, []string{"DriveController", "Drive"},
		goals.MustParse("", "", "prevfor[2s](DriveCommand == 'STOP') => ElevatorStopped").Formal,
		"A drive commanded STOP for the maximum stop delay will be stopped")
	a.SetCoverage(core.CoverageStrategy{
		Assignment:  core.SingleResponsibility,
		Scope:       core.Restrictive,
		Responsible: []string{"DriveController"},
		Note:        "The weight sensor is observable one state late; the subgoal reacts to the previous state's weight.",
	})
	a.AddElaboration("ew > wt => IsStopped(es)  covered by stopping the drive whenever the previous weight exceeded the threshold",
		core.TacticIntroduceActuation, []int{rel}, "")
	a.AddSubgoal(core.SubsystemGoal{
		Subsystem:   "DriveController",
		Goal:        registry.MustGet(elevator.SubgoalDriveStopOverweight),
		Controls:    []string{elevator.SigDriveCommand},
		Observes:    []string{elevator.SigElevatorWeight},
		Restrictive: true,
		MonitorAt:   "DriveController",
	})
	return append(analyses, a)
}
