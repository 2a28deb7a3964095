package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunSweepSummaryOnly 	       5	 107483789 ns/op	  104883 B/op	    2008 allocs/op
BenchmarkBusCommit-8           	       3	       128.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSuiteObserve/PerMonitor         	       3	      4922 ns/op	    1162 B/op	       1 allocs/op
BenchmarkSuiteObserve/Program            	       3	      1415 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem 	      10	      50 ns/op
PASS
ok  	repro	0.844s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" {
		t.Errorf("environment header parsed wrong: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu header parsed wrong: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}

	sweep := rep.Benchmarks[0]
	if sweep.Name != "BenchmarkRunSweepSummaryOnly" || sweep.Iterations != 5 ||
		sweep.NsPerOp != 107483789 || sweep.BytesPerOp != 104883 || sweep.AllocsPerOp != 2008 {
		t.Errorf("sweep line parsed wrong: %+v", sweep)
	}

	commit := rep.Benchmarks[1]
	if commit.Name != "BenchmarkBusCommit" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", commit.Name)
	}
	if commit.NsPerOp != 128.0 || commit.AllocsPerOp != 0 {
		t.Errorf("commit line parsed wrong: %+v", commit)
	}

	if rep.Benchmarks[2].Name != "BenchmarkSuiteObserve/PerMonitor" ||
		rep.Benchmarks[3].Name != "BenchmarkSuiteObserve/Program" {
		t.Errorf("sub-benchmark names parsed wrong: %q, %q",
			rep.Benchmarks[2].Name, rep.Benchmarks[3].Name)
	}

	nomem := rep.Benchmarks[4]
	if nomem.NsPerOp != 50 || nomem.BytesPerOp != 0 || nomem.AllocsPerOp != 0 {
		t.Errorf("benchmem-less line parsed wrong: %+v", nomem)
	}
}

func TestParseBenchOutputKeepsFastestOfRepeats(t *testing.T) {
	out := `BenchmarkX 	 10	 200 ns/op	 8 B/op	 1 allocs/op
BenchmarkX 	 10	 100 ns/op	 8 B/op	 1 allocs/op
BenchmarkX 	 10	 150 ns/op	 8 B/op	 1 allocs/op
`
	rep, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1 deduplicated", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].NsPerOp != 100 {
		t.Errorf("kept %v ns/op, want the fastest repeat (100)", rep.Benchmarks[0].NsPerOp)
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"PASS", "ok  	repro	0.8s", "Benchmark", "BenchmarkX 10", "BenchmarkX abc 5 ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}

func TestReportRecordsEnvironment(t *testing.T) {
	rep, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	rep.stampEnv("3x", 5, true)
	if rep.GoVersion != runtime.Version() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("toolchain environment = %q, GOMAXPROCS %d; want %q, %d",
			rep.GoVersion, rep.GOMAXPROCS, runtime.Version(), runtime.GOMAXPROCS(0))
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"short":      true,
		"count":      float64(5),
		"benchtime":  "3x",
	} {
		if got, ok := back[key]; !ok || got != want {
			t.Errorf("JSON %q = %v (present %v), want %v", key, got, ok, want)
		}
	}

	// A run without -short still records the flag, as false.
	rep.stampEnv("1x", 1, false)
	doc, _ = json.Marshal(rep)
	if !strings.Contains(string(doc), `"short":false`) {
		t.Errorf("a run without -short must record \"short\":false: %s", doc)
	}
}
