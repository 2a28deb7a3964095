package hazard

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeverityString(t *testing.T) {
	for s, want := range map[Severity]string{
		SeverityNegligible: "negligible", SeverityMarginal: "marginal",
		SeverityCritical: "critical", SeverityCatastrophic: "catastrophic", Severity(0): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Severity.String() = %q, want %q", got, want)
		}
	}
}

func TestGateKindString(t *testing.T) {
	for g, want := range map[GateKind]string{
		GateBasic: "basic", GateAnd: "AND", GateOr: "OR", GateKind(0): "unknown",
	} {
		if got := g.String(); got != want {
			t.Errorf("GateKind.String() = %q, want %q", got, want)
		}
	}
}

func TestPHA(t *testing.T) {
	p := VehiclePHA()
	if len(p.Entries) != 5 {
		t.Fatalf("PHA entries = %d, want 5", len(p.Entries))
	}
	severe := 0
	for _, e := range p.Entries {
		if e.Severity == SeverityCatastrophic {
			severe++
		}
	}
	if severe != 3 {
		t.Errorf("catastrophic entries = %d, want 3", severe)
	}
	out := p.Render()
	for _, want := range []string{"Preliminary Hazard Analysis", "Unintended or sudden", "Achieve[AutoAccelBelowThreshold]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q", want)
		}
	}
}

func TestPHAAdd(t *testing.T) {
	p := &PHA{System: "test"}
	p.Add(PHAEntry{Hazard: "h1", Severity: SeverityMarginal})
	if len(p.Entries) != 1 {
		t.Fatal("Add failed")
	}
}

func TestFaultTreeFigure2_2(t *testing.T) {
	tree := VehicleUnintendedAccelerationTree()

	p := tree.TopProbability()
	if p <= 0 || p >= 1 {
		t.Fatalf("TopProbability() = %v, want a probability in (0,1)", p)
	}

	cuts := tree.MinimalCutSets()
	if len(cuts) == 0 {
		t.Fatal("expected minimal cut sets")
	}
	// The two driver/throttle basic events are single-point failures: each
	// is a minimal cut set by itself.
	var sp []string
	for _, cs := range cuts {
		if len(cs) == 1 {
			sp = append(sp, cs[0])
		}
	}
	sort.Strings(sp)
	wantSingle := []string{
		"Driver presses throttle pedal instead of brake",
		"Throttle accidentally applied instead of brake",
	}
	sort.Strings(wantSingle)
	if len(sp) != len(wantSingle) {
		t.Fatalf("single-point failures = %v", sp)
	}
	for i := range sp {
		if sp[i] != wantSingle[i] {
			t.Errorf("single point failure %d = %q, want %q", i, sp[i], wantSingle[i])
		}
	}
	// The autonomous-switch branch requires two events together (an AND
	// gate), so there must be a two-element cut set containing both.
	foundPair := false
	for _, cs := range cuts {
		if len(cs) == 2 && cs.String() == "{Higher priority subsystem aborts deceleration, Lower priority subsystem requests acceleration}" {
			foundPair = true
		}
	}
	if !foundPair {
		t.Errorf("expected the AND-gate pair cut set, got %v", cuts)
	}

	out := tree.Render()
	for _, want := range []string{"Unintended sudden acceleration", "[OR]", "[AND]", "p="} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q", want)
		}
	}
}

func TestFaultTreeProbabilityRules(t *testing.T) {
	and := AndGate("both", BasicEvent("a", 0.5), BasicEvent("b", 0.5))
	if got := (&FaultTree{Root: and}).TopProbability(); got != 0.25 {
		t.Errorf("AND probability = %v, want 0.25", got)
	}
	or := OrGate("either", BasicEvent("a", 0.5), BasicEvent("b", 0.5))
	if got := (&FaultTree{Root: or}).TopProbability(); got != 0.75 {
		t.Errorf("OR probability = %v, want 0.75", got)
	}
	empty := &FaultTree{}
	if got := empty.TopProbability(); got != 0 {
		t.Errorf("empty tree probability = %v", got)
	}
	if got := empty.MinimalCutSets(); got != nil {
		t.Errorf("empty tree cut sets = %v", got)
	}
	emptyAnd := &FaultTree{Root: AndGate("nothing")}
	if got := emptyAnd.TopProbability(); got != 0 {
		t.Errorf("empty AND gate probability = %v", got)
	}
	bad := &FaultTree{Root: &Event{Name: "broken", Gate: GateKind(42)}}
	if got := bad.TopProbability(); !math.IsNaN(got) {
		t.Errorf("unknown gate probability = %v, want NaN", got)
	}
	if got := cutSets(&Event{Gate: GateKind(42)}); got != nil {
		t.Errorf("unknown gate cut sets = %v", got)
	}
}

func TestMinimalCutSetsRemoveSupersets(t *testing.T) {
	// OR(a, AND(a, b)) has the single minimal cut set {a}.
	tree := &FaultTree{Root: OrGate("top",
		BasicEvent("a", 0.1),
		AndGate("redundant", BasicEvent("a", 0.1), BasicEvent("b", 0.1)),
	)}
	cuts := tree.MinimalCutSets()
	if len(cuts) != 1 || cuts[0].String() != "{a}" {
		t.Errorf("MinimalCutSets() = %v, want [{a}]", cuts)
	}
}

func TestPropOrProbabilityBounds(t *testing.T) {
	// The OR of independent events is at least the max and at most the sum
	// of the children probabilities, and always a valid probability.
	f := func(a, b, c uint16) bool {
		pa := float64(a%1000) / 1000
		pb := float64(b%1000) / 1000
		pc := float64(c%1000) / 1000
		tree := &FaultTree{Root: OrGate("top",
			BasicEvent("a", pa), BasicEvent("b", pb), BasicEvent("c", pc))}
		p := tree.TopProbability()
		maxP := math.Max(pa, math.Max(pb, pc))
		sum := pa + pb + pc
		return p >= maxP-1e-9 && p <= math.Min(sum, 1)+1e-9 && p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAndProbabilityBelowMin(t *testing.T) {
	f := func(a, b uint16) bool {
		pa := float64(a%1000) / 1000
		pb := float64(b%1000) / 1000
		tree := &FaultTree{Root: AndGate("top", BasicEvent("a", pa), BasicEvent("b", pb))}
		p := tree.TopProbability()
		return p <= math.Min(pa, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFMEAFigure2_3(t *testing.T) {
	f := VehicleRadarFMEA()
	if len(f.Rows) < 6 {
		t.Fatalf("FMEA rows = %d, want at least 6", len(f.Rows))
	}
	radar := 0
	for _, m := range f.Rows {
		if m.Component == "Long-range radar sensor" {
			radar++
		}
	}
	if radar != 2 {
		t.Fatalf("radar failure modes = %d, want 2 (false positive and false negative)", radar)
	}
	top := f.HighestRisk(1)
	if len(top) != 1 || top[0].Mode != "False positive" {
		t.Errorf("HighestRisk(1) = %+v", top)
	}
	if got := f.HighestRisk(100); len(got) != len(f.Rows) {
		t.Errorf("HighestRisk(100) should return all rows")
	}
	out := f.Render()
	for _, want := range []string{"FMEA", "Long-range radar sensor", "False negative", "Arbiter"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q", want)
		}
	}
}

func TestFMEAAdd(t *testing.T) {
	f := &FMEA{System: "x"}
	f.Add(FailureMode{Component: "c", Mode: "m"})
	if len(f.Rows) != 1 {
		t.Fatal("Add failed")
	}
}
