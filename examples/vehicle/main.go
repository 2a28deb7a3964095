// Vehicle: one evaluation scenario of Chapter 5 end to end.
//
// The example runs Scenario 2 — the driver engages Park Assist just after
// Collision Avoidance begins a hard braking action — with the full Table 5.3
// monitoring suite, prints the Appendix D violation table, the per-detection
// classification, and the time series behind Figure 5.4 (CA remains
// "selected" while the acceleration command follows Park Assist's request).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/scenarios"
	"repro/internal/vehicle"
)

func main() { run(os.Stdout) }

// run writes the violation table, the classification detail, the Figure 5.4
// extract and the design lessons to w.
func run(w io.Writer) {
	sc, ok := scenarios.ScenarioByNumber(2)
	if !ok {
		panic("scenario 2 missing")
	}
	result := scenarios.RunWithOptions(sc, scenarios.Options{})

	fmt.Fprintln(w, scenarios.RenderViolationTable(result))
	fmt.Fprintln(w, scenarios.RenderClassificationDetail(result))

	// Figure 5.4: the arbitration defect seen in the raw signals.
	var fig scenarios.Figure
	for _, f := range scenarios.Figures() {
		if f.ID == "5.4" {
			fig = f
		}
	}
	series := scenarios.FigureSeries(result, fig)
	fmt.Fprintln(w, "Figure 5.4 extract (1 s before the collision):")
	fmt.Fprintf(w, "%-10s %-18s %-18s %s\n", "time [s]", "AccelCommand", "CA request", "CA selected")
	n := result.Trace.Len()
	for i := n - 1000; i < n; i += 200 {
		if i < 0 {
			continue
		}
		fmt.Fprintf(w, "%-10.3f %-18.2f %-18.2f %.0f\n",
			series["time_s"][i],
			series[vehicle.SigAccelCommand][i],
			series[vehicle.SigAccelRequest(vehicle.SourceCA)][i],
			series[vehicle.SigSelected(vehicle.SourceCA)][i])
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Design lessons surfaced by the monitors (thesis §6.1):")
	for _, l := range scenarios.LessonsFromICPA() {
		fmt.Fprintf(w, "  - %s\n", l)
	}
}
