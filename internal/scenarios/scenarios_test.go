package scenarios

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/monitor"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// resultCache runs each scenario at most once per test binary, because a
// full 20 s run at 1 ms resolution with ~45 monitors takes a noticeable
// fraction of a second.
var resultCache sync.Map

func cachedRun(t *testing.T, number int) Result {
	t.Helper()
	if r, ok := resultCache.Load(number); ok {
		return r.(Result)
	}
	sc, ok := ScenarioByNumber(number)
	if !ok {
		t.Fatalf("no scenario %d", number)
	}
	r := RunWithOptions(sc, Options{})
	resultCache.Store(number, r)
	return r
}

func violated(r Result, goalName string) bool {
	for _, m := range r.Suite.Monitors() {
		if m.Goal.Name == goalName && m.Violated() {
			return true
		}
	}
	return false
}

func violatedAt(r Result, goalName, location string) bool {
	for _, m := range r.Suite.Monitors() {
		if m.Goal.Name == goalName && m.Location == location && m.Violated() {
			return true
		}
	}
	return false
}

func hasDetection(r Result, parentGoal string, kind monitor.DetectionKind) bool {
	for _, d := range r.Detections[parentGoal] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

func TestVehicleSafetyGoals(t *testing.T) {
	r := VehicleGoals()
	if r.Len() != 9 {
		t.Fatalf("expected the nine goals of Tables 5.1/5.2, got %d", r.Len())
	}
	for _, name := range GoalNames {
		g, ok := r.Get(name)
		if !ok {
			t.Fatalf("missing goal %s", name)
		}
		if g.InformalDef == "" || g.Formal == nil {
			t.Errorf("goal %s must have informal and formal definitions", name)
		}
	}
	// All nine goals are monitorable at run time (past-time only).
	for _, g := range r.All() {
		cs := monitor.NewCompiledSuite(Period, nil)
		if err := cs.AddHierarchy(monitor.GoalAt{Goal: g, Location: "Vehicle"}, 0); err != nil {
			t.Errorf("goal %s is not monitorable: %v", g.Name, err)
		}
	}
}

func TestArbiterAndFeatureSubgoals(t *testing.T) {
	for _, name := range GoalNames {
		if _, ok := arbiterSubgoal(name); !ok {
			t.Errorf("goal %s should have an Arbiter-level subgoal", name)
		}
	}
	if _, ok := arbiterSubgoal("NoSuchGoal"); ok {
		t.Error("unknown goals must not produce subgoals")
	}
	// Feature subgoal coverage follows Table 5.3.
	if got := len(featureSubgoalAssignments(Goal1AutoAccel)); got != 5 {
		t.Errorf("goal 1 feature subgoals = %d, want 5", got)
	}
	if got := featureSubgoalAssignments(Goal8ForwardBlock); len(got) != 1 || got[0] != vehicle.SourceRCA {
		t.Errorf("goal 8 feature subgoals = %v, want [RCA]", got)
	}
	if got := len(featureSubgoalAssignments(Goal9BackwardBlock)); got != 3 {
		t.Errorf("goal 9 feature subgoals = %d, want 3 (CA, ACC, LCA)", got)
	}
	if featureSubgoalAssignments(Goal3Agreement) != nil {
		t.Error("goal 3 has no feature subgoals (single responsibility at the Arbiter)")
	}
	if _, ok := featureSubgoal(Goal3Agreement, vehicle.SourceCA); ok {
		t.Error("goal 3 should not produce feature subgoals")
	}
}

func TestTable5_3_MonitoringLocations(t *testing.T) {
	plan := MonitoringPlan()
	if len(plan) != 9 {
		t.Fatalf("monitoring plan should cover the nine goals, got %d", len(plan))
	}
	total := 0
	for _, spec := range plan {
		total += 1 + len(spec.Children)
		switch spec.GoalName {
		case Goal1AutoAccel, Goal2AutoJerk, Goal4NoAccelFromStop:
			if spec.Parent.Location != "Vehicle" {
				t.Errorf("%s should be monitored at the vehicle level", spec.GoalName)
			}
		default:
			if spec.Parent.Location != "Arbiter" {
				t.Errorf("%s should be monitored at the Arbiter level", spec.GoalName)
			}
		}
	}
	// 9 parents + 9 arbiter subgoals + 5+5+5+5+5+2+1+3 feature subgoals = 49.
	if total != 49 {
		t.Errorf("total monitors = %d, want 49", total)
	}

	rendered := RenderTable5_3()
	for _, want := range []string{
		"Goal/Subgoal", "Vehicle", "Arbiter", "PA",
		Goal1AutoAccel, "Achieve[AutoAccelCommandBelowThreshold]",
		"Maintain[AutoAccelRequestBelowThreshold]",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("Table 5.3 rendering missing %q", want)
		}
	}
}

func TestBuildSuiteMatchesPlan(t *testing.T) {
	suite := BuildSuiteWithSchema(Period, temporal.NewSchema()).Suite()
	if got := len(suite.Hierarchies()); got != 9 {
		t.Errorf("suite hierarchies = %d, want 9", got)
	}
	if got := len(suite.Monitors()); got != 49 {
		t.Errorf("suite monitors = %d, want 49", got)
	}
}

func TestScenarioCatalogue(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 10 {
		t.Fatalf("expected the ten scenarios of Section 5.4, got %d", len(scs))
	}
	for i, sc := range scs {
		if sc.Number != i+1 {
			t.Errorf("scenario %d has number %d", i+1, sc.Number)
		}
		if sc.Name == "" || sc.Description == "" || sc.Duration <= 0 {
			t.Errorf("scenario %d is missing metadata", sc.Number)
		}
	}
	if _, ok := ScenarioByNumber(11); ok {
		t.Error("ScenarioByNumber(11) should fail")
	}
	if sc, ok := ScenarioByNumber(7); !ok || sc.Gear != "R" {
		t.Error("scenario 7 should exist and be in reverse gear")
	}
}

// TestScenario1 reproduces the structure of Table D.1: the jerk goal is
// violated at the vehicle level during CA's braking episode, the defective
// Park Assist requests are flagged as subgoal violations (false positives),
// and the intermittent CA braking is visible in the CA jerk subgoal.
func TestScenario1(t *testing.T) {
	r := cachedRun(t, 1)
	if !violatedAt(r, Goal2AutoJerk, "Vehicle") {
		t.Error("goal 2 (jerk) should be violated at the vehicle level")
	}
	if !violatedAt(r, "Maintain[AutoJerkRequestBelowThreshold:CA]", "CA") {
		t.Error("CA's request-jerk subgoal should be violated by the cancel/re-apply defect")
	}
	if !violatedAt(r, "Maintain[AutoJerkRequestBelowThreshold:PA]", "PA") {
		t.Error("PA's spurious request profile should violate its jerk subgoal")
	}
	if violated(r, Goal9BackwardBlock) {
		t.Error("goal 9 should not be violated while driving forward")
	}
	if r.Summary.Hits == 0 {
		t.Error("scenario 1 should produce hits")
	}
	if r.Summary.FalsePositives == 0 {
		t.Error("scenario 1 should produce false positives (PA defect masked by arbitration)")
	}
}

// TestScenario2 reproduces Section 5.4.2: engaging PA during CA's braking
// action reroutes the acceleration command, violating goals 1-3, and the
// goal-1 violation has no corresponding subgoal violation (a false
// negative), because every request and command stays within bounds while
// the vehicle's dynamic response overshoots.
func TestScenario2(t *testing.T) {
	r := cachedRun(t, 2)
	if !r.Collision {
		t.Error("scenario 2 should terminate early in a collision")
	}
	for _, g := range []string{Goal1AutoAccel, Goal2AutoJerk, Goal3Agreement} {
		if !violated(r, g) {
			t.Errorf("%s should be violated in scenario 2", g)
		}
	}
	if !hasDetection(r, Goal1AutoAccel, monitor.FalseNegative) {
		t.Error("the goal-1 violation should be a false negative (no subgoal correspondence)")
	}
	if !hasDetection(r, Goal3Agreement, monitor.Hit) {
		t.Error("the agreement violation should be detected at the Arbiter (hit)")
	}
	// The arbitration defect: CA remains selected while the command follows
	// PA's request — visible in the Figure 5.4 series.
	if !violatedAt(r, Goal3Agreement, "Arbiter") {
		t.Error("goal 3 should be violated at the Arbiter")
	}
}

// TestScenario3 reproduces Section 5.4.3: the intermittent braking fails to
// stop the vehicle before the parked vehicle, and ACC emits requests while
// not engaged.
func TestScenario3(t *testing.T) {
	r := cachedRun(t, 3)
	if !violatedAt(r, Goal2AutoJerk, "Vehicle") {
		t.Error("goal 2 should be violated during the intermittent braking")
	}
	// ACC requests while not engaged (Figure 5.6): visible as request
	// activity, not necessarily as a subgoal violation because the requests
	// are decelerations.
	accRequesting := false
	for i := 0; i < r.Trace.Len(); i++ {
		if r.Trace.At(i).Bool(vehicle.SigRequestingAccel(vehicle.SourceACC)) &&
			!r.Trace.At(i).Bool(vehicle.SigActive(vehicle.SourceACC)) {
			accRequesting = true
			break
		}
	}
	if !accRequesting {
		t.Error("ACC should emit acceleration requests while not engaged (seeded defect)")
	}
}

// TestScenario6 reproduces Section 5.4.6: after LCA engages, the vehicle
// speed becomes negative while ACC and LCA remain active, violating goal 9,
// and the acceleration/steering agreement goal fails.
func TestScenario6(t *testing.T) {
	r := cachedRun(t, 6)
	if !violated(r, Goal9BackwardBlock) {
		t.Error("goal 9 should be violated when the speed becomes negative under ACC/LCA control")
	}
	if !violated(r, Goal3Agreement) {
		t.Error("goal 3 should be violated when LCA is granted steering but not acceleration")
	}
	wentNegative := false
	for _, v := range r.Trace.Series(vehicle.SigVehicleSpeed) {
		if v < -0.1 {
			wentNegative = true
		}
	}
	if !wentNegative {
		t.Error("the vehicle speed should become negative (Figure 5.11)")
	}
	// The steering command never follows LCA's request (Figure 5.10).
	for _, v := range r.Trace.Series(vehicle.SigSteerCommand) {
		if v != 0 {
			t.Error("the steering command should remain unchanged (seeded defect)")
			break
		}
	}
}

// TestScenario7 reproduces Section 5.4.7: RCA never engages, the host
// vehicle strikes the object behind it, and no system goal is violated —
// the hazard is invisible to the goal monitors (it is a missing-goal
// problem, not a goal-violation problem).
func TestScenario7(t *testing.T) {
	r := cachedRun(t, 7)
	if !r.Collision {
		t.Error("scenario 7 should end in a collision with the rear object")
	}
	for _, name := range GoalNames {
		if violatedAt(r, name, "Vehicle") || violatedAt(r, name, "Arbiter") {
			t.Errorf("no system goal should be violated in scenario 7, but %s was", name)
		}
	}
	for i := 0; i < r.Trace.Len(); i++ {
		if r.Trace.At(i).Bool(vehicle.SigActive(vehicle.SourceRCA)) {
			t.Fatal("RCA must never engage (seeded defect)")
		}
	}
}

// TestScenario8 reproduces Section 5.4.8: ACC accepts engagement in reverse
// and is selected as the acceleration source, violating goal 9 with a
// corresponding Arbiter subgoal violation (a hit).
func TestScenario8(t *testing.T) {
	r := cachedRun(t, 8)
	if !violated(r, Goal9BackwardBlock) {
		t.Error("goal 9 should be violated when ACC controls the vehicle in reverse")
	}
	if !hasDetection(r, Goal9BackwardBlock, monitor.Hit) {
		t.Error("the goal 9 violation should be matched by subgoal violations")
	}
}

// TestScenario9 reproduces Section 5.4.9: PA is selected as the acceleration
// source from a stop without a go confirmation (goal 4 violated and detected
// at both levels), and the acceleration command differs from PA's request
// (Figure 5.14).
func TestScenario9(t *testing.T) {
	r := cachedRun(t, 9)
	if !violatedAt(r, Goal4NoAccelFromStop, "Vehicle") {
		t.Error("goal 4 should be violated at the vehicle level")
	}
	if !hasDetection(r, Goal4NoAccelFromStop, monitor.Hit) {
		t.Error("the goal 4 violation should be matched by the Arbiter/PA subgoals")
	}
	mismatch := false
	for i := 0; i < r.Trace.Len(); i++ {
		st := r.Trace.At(i)
		if st.Bool(vehicle.SigSelected(vehicle.SourcePA)) {
			req := st.Number(vehicle.SigAccelRequest(vehicle.SourcePA))
			cmd := st.Number(vehicle.SigAccelCommand)
			if req != 0 && cmd != req {
				mismatch = true
				break
			}
		}
	}
	if !mismatch {
		t.Error("the acceleration command should not equal PA's request while PA is selected (Figure 5.14)")
	}
}

// TestScenario10 reproduces Section 5.4.10: the ACC engagement attempt at a
// standstill is rejected (ACC never becomes active or selected), yet the
// vehicle begins to accelerate — with no corresponding system-goal violation
// because the acceleration is not attributed to a subsystem.
func TestScenario10(t *testing.T) {
	r := cachedRun(t, 10)
	for i := 0; i < r.Trace.Len(); i++ {
		if r.Trace.At(i).Bool(vehicle.SigActive(vehicle.SourceACC)) {
			t.Fatal("ACC must not become active in scenario 10")
		}
		if r.Trace.At(i).Bool(vehicle.SigSelected(vehicle.SourceACC)) {
			t.Fatal("ACC must not be selected in scenario 10")
		}
	}
	accelerated := false
	for _, v := range r.Trace.Series(vehicle.SigVehicleSpeed) {
		if v > 0.5 {
			accelerated = true
		}
	}
	if !accelerated {
		t.Error("the vehicle should begin to accelerate after the brake is released (Figure 5.15)")
	}
	if violatedAt(r, Goal4NoAccelFromStop, "Vehicle") {
		t.Error("goal 4 should not be violated: the acceleration is not attributed to a subsystem")
	}
}

// TestHierarchicalMonitoringFindsPartialComposition aggregates all scenarios
// the tests already ran: across them the monitors must report hits, false
// positives and at least one false negative, which is the thesis' empirical
// evidence that the ICPA subgoals only partially compose the system goals.
func TestHierarchicalMonitoringFindsPartialComposition(t *testing.T) {
	var total monitor.Summary
	for _, n := range []int{1, 2, 3, 6, 7, 8, 9, 10} {
		total = total.Add(cachedRun(t, n).Summary)
	}
	if total.Hits == 0 {
		t.Error("expected hits across the scenario set")
	}
	if total.FalsePositives == 0 {
		t.Error("expected false positives across the scenario set")
	}
	if total.FalseNegatives == 0 {
		t.Error("expected false negatives across the scenario set")
	}
	if !strings.Contains(total.CompositionEvidence(), "partially compose") {
		t.Errorf("evidence = %q, want partial composability", total.CompositionEvidence())
	}
}

func TestRenderViolationTable(t *testing.T) {
	r := cachedRun(t, 2)
	out := RenderViolationTable(r)
	for _, want := range []string{"Scenario 2", "terminated early: collision", "Goal/Subgoal", "Classification:"} {
		if !strings.Contains(out, want) {
			t.Errorf("violation table missing %q", want)
		}
	}
	detail := RenderClassificationDetail(r)
	if !strings.Contains(detail, "hit:") || !strings.Contains(detail, "false") {
		t.Errorf("classification detail looks wrong:\n%s", detail)
	}
}

func TestRenderSummary(t *testing.T) {
	results := []Result{cachedRun(t, 1), cachedRun(t, 7)}
	out := RenderSummary(results)
	for _, want := range []string{"Scenario", "Overall:", "Interpretation:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	rows := Summarize(results)
	if len(rows) != 2 || rows[0].Scenario != 1 || rows[1].Scenario != 7 {
		t.Errorf("Summarize rows = %+v", rows)
	}
	if rows[1].Collision != true {
		t.Error("scenario 7 row should record the collision")
	}
}

func TestFigures(t *testing.T) {
	figs := Figures()
	if len(figs) != 14 {
		t.Fatalf("figure catalogue = %d entries, want 14 (Figures 5.2-5.15)", len(figs))
	}
	seen := make(map[int]bool)
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || len(f.Signals) == 0 {
			t.Errorf("figure %+v is incomplete", f)
		}
		if f.Scenario < 1 || f.Scenario > 10 {
			t.Errorf("figure %s references scenario %d", f.ID, f.Scenario)
		}
		seen[f.Scenario] = true
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		if !seen[n] {
			t.Errorf("no figure uses scenario %d", n)
		}
	}
}

func TestFigureSeriesAndCSV(t *testing.T) {
	r := cachedRun(t, 1)
	var fig52 Figure
	for _, f := range Figures() {
		if f.ID == "5.2" {
			fig52 = f
		}
	}
	series := FigureSeries(r, fig52)
	if len(series["time_s"]) != r.Trace.Len() {
		t.Fatalf("time series length = %d, want %d", len(series["time_s"]), r.Trace.Len())
	}
	// Figure 5.2 plots CA's braking request: it must reach the hard-braking
	// level during the scenario.
	sawBraking := false
	for _, v := range series[vehicle.SigAccelRequest(vehicle.SourceCA)] {
		if v == vehicle.CABrakeRequest {
			sawBraking = true
		}
	}
	if !sawBraking {
		t.Error("Figure 5.2 series should show the CA braking request")
	}
	csv := RenderFigureCSV(r, fig52)
	if !strings.HasPrefix(csv, "# Figure 5.2") || !strings.Contains(csv, "time_s,") {
		t.Errorf("CSV rendering looks wrong:\n%s", csv[:120])
	}
	lines := strings.Count(csv, "\n")
	if lines < 100 || lines > 2300 {
		t.Errorf("CSV should be down-sampled to a manageable number of rows, got %d", lines)
	}
}

func TestFigureSeriesEncodesSources(t *testing.T) {
	r := cachedRun(t, 8)
	var fig Figure
	for _, f := range Figures() {
		if f.ID == "5.13" {
			fig = f
		}
	}
	series := FigureSeries(r, fig)
	// The accel-source series is numerically encoded; ACC's code appears
	// after the engagement.
	accCode := sourceIndex(vehicle.SourceACC)
	sawACC := false
	for _, v := range series[vehicle.SigAccelSource] {
		if v == accCode {
			sawACC = true
		}
	}
	if !sawACC {
		t.Error("Figure 5.13 should show ACC as the acceleration source after engagement")
	}
	if sourceIndex("bogus") != -1 || sourceIndex(vehicle.SourceDriver) != 1 || sourceIndex("") != 0 {
		t.Error("sourceIndex encoding is wrong")
	}
}

func TestResultTerminatedEarly(t *testing.T) {
	if cachedRun(t, 1).TerminatedEarly() {
		t.Error("scenario 1 runs to completion")
	}
	if !cachedRun(t, 2).TerminatedEarly() {
		t.Error("scenario 2 terminates early")
	}
}
