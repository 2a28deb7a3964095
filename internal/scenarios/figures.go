package scenarios

import (
	"fmt"
	"strings"

	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// Figure describes one of the thesis' scenario figures (Figures 5.2–5.15):
// the scenario it comes from and the signals it plots.
type Figure struct {
	// ID is the thesis figure number, e.g. "5.2".
	ID string
	// Title is the thesis caption (abridged).
	Title string
	// Scenario is the thesis scenario number the figure is taken from.
	Scenario int
	// Signals are the bus signals plotted over time.
	Signals []string
}

// Figures returns the catalogue of scenario figures and the signals that
// regenerate them.
func Figures() []Figure {
	return []Figure{
		{ID: "5.2", Title: "Scenario 1: CA begins a braking action, but cancels it briefly before beginning it again.",
			Scenario: 1, Signals: []string{vehicle.SigAccelRequest(vehicle.SourceCA), vehicle.SigActive(vehicle.SourceCA)}},
		{ID: "5.3", Title: "Scenario 1: PA requests acceleration without being enabled.",
			Scenario: 1, Signals: []string{vehicle.SigAccelRequest(vehicle.SourcePA), vehicle.SigPAEnabled}},
		{ID: "5.4", Title: "Scenario 2: CA is not the source of the acceleration command when PA is enabled, even though CA is selected.",
			Scenario: 2, Signals: []string{vehicle.SigAccelCommand, vehicle.SigAccelRequest(vehicle.SourceCA), vehicle.SigSelected(vehicle.SourceCA)}},
		{ID: "5.5", Title: "Scenario 3: CA engages to stop the host vehicle, but the braking action is intermittent and the vehicle is not stopped in time.",
			Scenario: 3, Signals: []string{vehicle.SigAccelRequest(vehicle.SourceCA), vehicle.SigVehicleSpeed, vehicle.SigObjectDistance}},
		{ID: "5.6", Title: "Scenario 3: ACC sends acceleration requests to control the vehicle to a set speed of 0 m/s even though ACC is not engaged.",
			Scenario: 3, Signals: []string{vehicle.SigAccelRequest(vehicle.SourceACC), vehicle.SigActive(vehicle.SourceACC)}},
		{ID: "5.7", Title: "Scenario 4: ACC acceleration request and jerk profile.",
			Scenario: 4, Signals: []string{vehicle.SigAccelRequest(vehicle.SourceACC), vehicle.SigRequestJerk(vehicle.SourceACC)}},
		{ID: "5.8", Title: "Scenario 4: ACC is engaged while the driver is applying the throttle pedal and briefly takes control of vehicle acceleration.",
			Scenario: 4, Signals: []string{vehicle.SigAccelSource, vehicle.SigThrottlePedal, vehicle.SigAccelCommand}},
		{ID: "5.9", Title: "Scenario 5: the driver releases the throttle pedal; control of acceleration is gained by ACC shortly afterwards.",
			Scenario: 5, Signals: []string{vehicle.SigThrottlePedal, vehicle.SigSelected(vehicle.SourceACC), vehicle.SigAccelSource}},
		{ID: "5.10", Title: "Scenario 6: LCA gains control of acceleration and steering, but the steering command remains unchanged.",
			Scenario: 6, Signals: []string{vehicle.SigSteerRequest(vehicle.SourceLCA), vehicle.SigSteerCommand, vehicle.SigSteerSource}},
		{ID: "5.11", Title: "Scenario 6: vehicle speed becomes negative while LCA and ACC are still active and selected.",
			Scenario: 6, Signals: []string{vehicle.SigVehicleSpeed, vehicle.SigActive(vehicle.SourceLCA), vehicle.SigActive(vehicle.SourceACC)}},
		{ID: "5.12", Title: "Scenario 7: RCA is enabled but never engages to stop the host vehicle before reaching the stopped vehicle behind it.",
			Scenario: 7, Signals: []string{vehicle.SigActive(vehicle.SourceRCA), vehicle.SigRearObjectDistance, vehicle.SigVehicleSpeed}},
		{ID: "5.13", Title: "Scenario 8: after ACC is engaged it is selected as the source of the acceleration command while the vehicle is in reverse.",
			Scenario: 8, Signals: []string{vehicle.SigSelected(vehicle.SourceACC), vehicle.SigVehicleSpeed, vehicle.SigAccelSource}},
		{ID: "5.14", Title: "Scenario 9: PA is selected as the source of the acceleration command, but the command is not equal to the PA request.",
			Scenario: 9, Signals: []string{vehicle.SigAccelRequest(vehicle.SourcePA), vehicle.SigAccelCommand, vehicle.SigSelected(vehicle.SourcePA)}},
		{ID: "5.15", Title: "Scenario 10: ACC does not become active or selected, but the vehicle begins to accelerate.",
			Scenario: 10, Signals: []string{vehicle.SigActive(vehicle.SourceACC), vehicle.SigVehicleSpeed, vehicle.SigVehicleAccel}},
	}
}

// FigureSeries extracts the numeric time series of a figure from a scenario
// result.  Boolean and string signals are encoded numerically (booleans as
// 0/1; source tags as the feature's arbitration priority index) so the
// output is directly plottable.
func FigureSeries(r Result, fig Figure) map[string][]float64 {
	out := make(map[string][]float64, len(fig.Signals)+1)
	n := r.Trace.Len()
	timeSeries := make([]float64, n)
	for i := 0; i < n; i++ {
		timeSeries[i] = float64(i) * Period.Seconds()
	}
	out["time_s"] = timeSeries
	series := make([][]float64, len(fig.Signals))
	for k := range series {
		series[k] = make([]float64, n)
	}
	r.Trace.Walk(func(i int, st temporal.State) {
		for k, sig := range fig.Signals {
			v := st.Get(sig)
			if v.Kind() == temporal.KindString {
				series[k][i] = sourceIndex(v.AsString())
			} else {
				series[k][i] = v.AsNumber()
			}
		}
	})
	for k, sig := range fig.Signals {
		out[sig] = sanitize(series[k])
	}
	return out
}

// sourceIndex maps an arbitration source tag to a stable numeric code for
// plotting: 0 none, 1 driver, 2.. the features in priority order.
func sourceIndex(source string) float64 {
	switch source {
	case vehicle.SourceNone, "":
		return 0
	case vehicle.SourceDriver:
		return 1
	}
	for i, f := range vehicle.FeatureNames {
		if f == source {
			return float64(i + 2)
		}
	}
	return -1
}

func sanitize(series []float64) []float64 {
	for i, v := range series {
		if v != v { // NaN
			series[i] = 0
		}
	}
	return series
}

// RenderFigureCSV renders a figure's series as CSV with a time column.
func RenderFigureCSV(r Result, fig Figure) string {
	series := FigureSeries(r, fig)
	cols := append([]string{"time_s"}, fig.Signals...)
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure %s: %s\n", fig.ID, fig.Title)
	fmt.Fprintln(&b, strings.Join(cols, ","))
	n := r.Trace.Len()
	// Down-sample to at most ~2000 rows to keep the CSV manageable.
	stride := n/2000 + 1
	for i := 0; i < n; i += stride {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = fmt.Sprintf("%.4f", series[c][i])
		}
		fmt.Fprintln(&b, strings.Join(row, ","))
	}
	return b.String()
}
