package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the report must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsMatchSpec pins the workload list to BENCHMARK.json.
func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	var got []string
	for _, w := range s.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, workloadNames)
	}
}

// TestQuickRuns runs every workload at minimal size, end to end and traced,
// and checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestQuickRuns(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 10 * time.Millisecond, trace: traced, quick: true, traceDir: t.TempDir()}
			var out bytes.Buffer
			rep, err := runBenchmark(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !strings.Contains(out.String(), `"record":"environment"`) {
				t.Errorf("%s trace=%v: no environment record in %q", name, traced, out.String())
			}
		}
	}
}

// tamperRunner corrupts the second output of every pass.
type tamperRunner struct{ runner }

func (r tamperRunner) pass(ctx context.Context, emit func([]byte)) ([]byte, error) {
	n := 0
	return r.runner.pass(ctx, func(b []byte) {
		if n++; n == 2 {
			b = append(bytes.TrimSuffix(bytes.Clone(b), []byte("\n")), " \n"...)
		}
		emit(b)
	})
}

// TestTamperedLineFails checks that the oracle catches one altered result
// line: failed counts it and correct_share drops below 1.
func TestTamperedLineFails(t *testing.T) {
	h, err := setup(wlDefects, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.runner.close()
	h.runner = tamperRunner{h.runner}
	rep := &report{Metrics: make(map[string]metric)}
	if err := endToEnd(config{seconds: time.Millisecond}, h, rep, &unadjusted{}); err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Metrics["correct_share"].Value >= 1 {
		t.Fatalf("tampered line not caught: failed=%d correct_share=%v", rep.Failed, rep.Metrics["correct_share"].Value)
	}
}

// TestRunRejectsBadInput checks that a bad invocation exits non-zero and
// prints no result line.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seed", "0", "--seconds", "1", "--trace", "0"},
		{"--workload", wlDefects, "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%q) = %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestSeedPerturbationKeepsShape checks that a seed changes the inputs but
// not the variant count, group widths or durations.
func TestSeedPerturbationKeepsShape(t *testing.T) {
	for _, name := range workloadNames {
		a, err := enumerate(name, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := enumerate(name, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := dynamicsGroups(a.jobs), dynamicsGroups(b.jobs)
		if len(a.jobs) != len(b.jobs) || len(ga) != len(gb) || a.duration() != b.duration() {
			t.Fatalf("%s: seed changed the shape: %d/%d jobs, %d/%d groups", name, len(a.jobs), len(b.jobs), len(ga), len(gb))
		}
		for i := range ga {
			if len(ga[i].jobs) != len(gb[i].jobs) {
				t.Fatalf("%s: group %d width %d vs %d", name, i, len(ga[i].jobs), len(gb[i].jobs))
			}
		}
		if a.jobs[0].Scenario.InitialSpeed == b.jobs[0].Scenario.InitialSpeed && a.jobs[0].Scenario.ObjectDistance == b.jobs[0].Scenario.ObjectDistance {
			t.Errorf("%s: seed 7 left the first variant unperturbed", name)
		}
		c, _ := enumerate(name, 7, false)
		if c.jobs[len(c.jobs)-1].DynamicsKey() != b.jobs[len(b.jobs)-1].DynamicsKey() {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
	}
}
