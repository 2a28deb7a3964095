// Command elevator runs the Chapter 4 distributed-elevator scenarios with
// hierarchical safety-goal monitoring and prints the violations and their
// hit / false-positive / false-negative classification.
//
// Usage:
//
//	elevator [-scenario name] [-icpa] [-v]
//
// Without flags it runs every scenario.  With -icpa it additionally prints
// the ICPA tables of Maintain[DoorClosedOrElevatorStopped] (Tables 4.1–4.4)
// and Maintain[ElevatorBelowHoistwayUpperLimit].
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/elevator"
	"repro/internal/monitor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("elevator", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "", "run only the named scenario (default: all)")
	showICPA := fs.Bool("icpa", false, "print the elevator ICPA tables before running")
	verbose := fs.Bool("v", false, "print every detection, not just the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showICPA {
		fmt.Fprintln(w, elevator.DoorDriveICPA().Render())
		fmt.Fprintln(w, elevator.HoistwayICPA().Render())
	}

	ran := 0
	for _, sc := range elevator.Scenarios() {
		if *scenarioName != "" && sc.Name != *scenarioName {
			continue
		}
		ran++
		res := elevator.Run(sc)
		fmt.Fprintf(w, "=== Scenario %q: %s\n", sc.Name, sc.Description)
		fmt.Fprintf(w, "    simulated %d states; final position %.2f m, speed %.3f m/s\n",
			res.Trace.Len(),
			res.Trace.Last().Number(elevator.SigElevatorPosition),
			res.Trace.Last().Number(elevator.SigElevatorSpeed))
		fmt.Fprintf(w, "    classification: %s\n", res.Summary)
		for _, row := range res.Suite.Report() {
			fmt.Fprintf(w, "    %s\n", row)
		}
		if *verbose {
			writeDetections(w, res.Detections)
		}
		fmt.Fprintln(w)
	}
	if ran == 0 {
		return fmt.Errorf("no scenario named %q", *scenarioName)
	}
	return nil
}

// writeDetections prints every detection, goal by goal in sorted goal-name
// order, as scenarios.RenderClassificationDetail does, so the output never
// follows map order.
func writeDetections(w io.Writer, detections map[string][]monitor.Detection) {
	names := make([]string, 0, len(detections))
	for name := range detections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range detections[name] {
			fmt.Fprintf(w, "    [%s] %s at %s (%s)\n", d.Kind, name, d.Interval, d.Location)
		}
	}
}
