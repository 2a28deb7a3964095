package elevator

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
)

// referenceSuite instantiates the elevator plan as one reference monitor per
// goal: each evaluates its formula through the string-keyed
// temporal.Stepper, sharing no evaluation code with the compiled suite.
func referenceSuite(t *testing.T) *monitor.Suite {
	t.Helper()
	ref := func(g monitor.GoalAt) *monitor.Monitor {
		m, err := monitor.NewReference(g.Goal, g.Location, DefaultPeriod)
		if err != nil {
			t.Fatalf("reference monitor %q: %v", g.Goal.Name, err)
		}
		return m
	}
	suite := monitor.NewSuite()
	for _, h := range elevatorPlan() {
		children := make([]*monitor.Monitor, len(h.children))
		for i, c := range h.children {
			children[i] = ref(c)
		}
		suite.Add(monitor.NewHierarchy(ref(h.parent), matchTolerance, children...))
	}
	return suite
}

// TestCompiledSuiteMatchesPerMonitor replays each monitored run's trace
// through the per-monitor reference suite and requires the classifications to
// equal the ones the compiled-program suite produced live — the elevator's
// counterpart of the vehicle differential tests.
func TestCompiledSuiteMatchesPerMonitor(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(sc)

			plain := referenceSuite(t)
			for i := 0; i < res.Trace.Len(); i++ {
				plain.Observe(res.Trace.At(i))
			}
			plain.Finish()

			plainDetections, plainSummary := plain.ClassifyAll()
			if res.Summary != plainSummary {
				t.Errorf("compiled summary %v != per-monitor summary %v", res.Summary, plainSummary)
			}
			if !reflect.DeepEqual(res.Detections, plainDetections) {
				t.Errorf("compiled detections diverge from the per-monitor suite\ncompiled: %#v\nplain:    %#v",
					res.Detections, plainDetections)
			}
			if got, want := res.Suite.Report(), plain.Report(); !reflect.DeepEqual(got, want) {
				t.Errorf("compiled report diverges from the per-monitor suite")
			}
		})
	}
}
