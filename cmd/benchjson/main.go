// Command benchjson runs the repository's headline benchmarks with -benchmem
// and writes a machine-readable JSON document (BENCH_9.json by default) with
// ns/op, B/op and allocs/op per benchmark, so the performance trajectory of
// the evaluation hot path is recorded as data rather than prose: CI uploads
// the file as a build artifact and future PRs diff their numbers against it.
//
// The default benchmark set is the perf contract of the sweep hot path:
// BenchmarkRunSweepSummaryOnly (the end-to-end 40-variant summary-only
// sweep), BenchmarkToleranceSweepGrouped (the 60-variant K-tolerance sweep
// with dynamics-grouped execution versus per-variant simulation),
// BenchmarkDefectSweepLaned (the 120-variant defect sweep lane-batched
// versus scalar — the speedup of stepping four dynamics variants in
// lockstep), BenchmarkBusCommit (the per-step plane-memmove commit),
// BenchmarkSuiteObserve (the compiled monitoring plan against one state) and
// BenchmarkDistSweep (the 1296-variant huge sweep single-process versus
// through the distributed coordinator, recording the protocol-and-merge
// overhead of multi-worker execution) and BenchmarkStepLanes (the lane
// monitoring program on a replayed defect-sweep trajectory at widths 1 and
// 4, the evaluation layer of the lane batches).
//
// The document also records the environment the numbers depend on: the Go
// version, GOMAXPROCS, and the -short, -count and -benchtime the benchmarks
// ran with, so two documents are comparable only when these agree.
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_9.json] [-bench regex]
//	                       [-benchtime 3x] [-count 1] [-pkg .] [-short]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultBenchRegex selects the headline benchmarks of the perf contract.
const defaultBenchRegex = "BenchmarkRunSweepSummaryOnly$|BenchmarkToleranceSweepGrouped$|BenchmarkDefectSweepLaned$|BenchmarkBusCommit$|BenchmarkSuiteObserve$|BenchmarkDistSweep$|BenchmarkStepLanes$"

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the GOMAXPROCS suffix stripped
	// (e.g. "BenchmarkRunSweepSummaryOnly" or "BenchmarkSuiteObserve/Program").
	Name string `json:"name"`
	// Iterations is the measured iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock cost per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the allocated bytes per operation (-benchmem).
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is the allocation count per operation (-benchmem).
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Report is the written JSON document.
type Report struct {
	// Goos / Goarch / CPU / Pkg echo the benchmark environment header.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// GoVersion and GOMAXPROCS are the toolchain and parallelism the
	// benchmarks ran under (go test inherits both from this process).
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Short, Count and Benchtime echo the go test flags of the run.
	Short     bool   `json:"short"`
	Count     int    `json:"count"`
	Benchtime string `json:"benchtime"`
	// Benchmarks are the parsed results in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_9.json", "output file")
	bench := flag.String("bench", defaultBenchRegex, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value")
	pkg := flag.String("pkg", ".", "package to benchmark")
	short := flag.Bool("short", false, "pass -short to go test (benchmarks trim their heaviest sweeps)")
	flag.Parse()

	if err := run(*out, *bench, *benchtime, *count, *pkg, *short); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(out, bench, benchtime string, count int, pkg string, short bool) error {
	args := []string{"test", "-run=^$",
		"-bench=" + bench, "-benchmem", "-benchtime=" + benchtime,
		"-count=" + strconv.Itoa(count)}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("benchjson: go test: %w", err)
	}
	if _, err := os.Stdout.Write(raw); err != nil {
		return fmt.Errorf("benchjson: echoing bench output: %w", err)
	}

	report, err := ParseBenchOutput(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark results matched %q", bench)
	}
	report.stampEnv(benchtime, count, short)
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(report.Benchmarks), out)
	return nil
}

// stampEnv records the toolchain, GOMAXPROCS and go test flags of the run.
func (r *Report) stampEnv(benchtime string, count int, short bool) {
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Short, r.Count, r.Benchtime = short, count, benchtime
}

// ParseBenchOutput parses `go test -bench -benchmem` output.  When the same
// benchmark appears several times (-count > 1), the kept entry is the one
// with the lowest ns/op — the least-noise measurement.
func ParseBenchOutput(r io.Reader) (Report, error) {
	var rep Report
	index := make(map[string]int)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if i, seen := index[b.Name]; seen {
			if b.NsPerOp < rep.Benchmarks[i].NsPerOp {
				rep.Benchmarks[i] = b
			}
			continue
		}
		index[b.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, sc.Err()
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   5   204724782 ns/op   6265552 B/op   11954 allocs/op
//
// The B/op and allocs/op columns are optional (benchmarks that do not call
// ReportAllocs under a run without -benchmem).
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix, keeping sub-benchmark slashes intact.
	if i := strings.LastIndex(name, "-"); i > 0 && !strings.Contains(name[i:], "/") {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}
