package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// quick shrinks the workload to a few short variants (package test).
	quick bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// A run sets the workload up setupWarm+setupReps times.  The first setupWarm
// set-ups fill the allocator and code caches and are discarded; setup_s is the
// median of the rest, so one slow set-up (a GC, a page fault storm) does not
// move it.
const (
	setupWarm = 5
	setupReps = 100
)

// minPasses is the least number of measured passes a run makes, whatever
// --seconds says, so every median has samples behind it.
const minPasses = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "workload seed: 0 runs the presets as shipped, anything else perturbs their numeric axes")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: filepath.Join(".bench_build", "trace"),
	}
	rep, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric, mapping a non-finite value (an empty ratio) to 0 so
// the report stays valid JSON.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runBenchmark sets the workload up setupReps times, then runs either the
// end-to-end passes or the traced replay, and returns the report.  The
// environment record is written to out before anything is measured.
func runBenchmark(cfg config, out io.Writer) (*report, error) {
	var setups []float64
	var h *harness
	calBefore := calibrate()
	for i := 0; i < setupWarm+setupReps; i++ {
		if h != nil {
			h.runner.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		h, err = setup(cfg.workload, cfg.seed, cfg.quick)
		if err != nil {
			return nil, err
		}
		if i >= setupWarm {
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	defer h.runner.close()
	setupScale := scaleBetween(calBefore, calibrate())

	env := environment(cfg, h.w)
	if err := json.NewEncoder(out).Encode(env); err != nil {
		return nil, err
	}
	rep := &report{Metrics: make(map[string]metric)}
	var err error
	if cfg.trace {
		err = traced(cfg, h, env, rep)
	} else {
		raw := unadjusted{Record: "unadjusted", SetupS: median(setups), SetupScale: setupScale}
		rep.set("setup_s", raw.SetupS*setupScale, "s")
		if err = endToEnd(cfg, h, rep, &raw); err == nil {
			err = json.NewEncoder(out).Encode(raw)
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// passStats is one measured pass.
type passStats struct {
	wall, first, cpu time.Duration
	allocBytes       uint64
	allocs           uint64
}

// measurePass runs one pass and returns its outputs and measurements.
func measurePass(r runner) (outs [][]byte, trailer []byte, ps passStats, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	trailer, err = r.pass(context.Background(), func(b []byte) {
		if outs == nil {
			ps.first = time.Since(start)
		}
		outs = append(outs, bytes.Clone(b))
	})
	ps.wall = time.Since(start)
	ps.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ps.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ps.allocs = ms1.Mallocs - ms0.Mallocs
	return outs, trailer, ps, err
}

// unadjusted records the end-to-end time metrics as measured, before the
// host-speed adjustment (host.go), with the factors: the median over passes
// and the one applied to set-up.
type unadjusted struct {
	Record          string  `json:"record"`
	VariantsPerS    float64 `json:"variants_per_s"`
	FirstResultMS   float64 `json:"first_result_ms"`
	CPUMSPerVariant float64 `json:"cpu_ms_per_variant"`
	SetupS          float64 `json:"setup_s"`
	Scale           float64 `json:"scale"`
	SetupScale      float64 `json:"setup_scale"`
	Passes          int     `json:"passes"`
}

// endToEnd checks one warm-up pass, then measures closed-loop passes until
// cfg.seconds have passed (and at least minPasses), each checked against
// the oracle.  Allocation metrics are per-pass medians.  Time metrics are
// adjusted per pass to the reference host speed (host.go) and reported as
// the 10th percentile over passes: contention only ever slows a pass, and
// what the adjustment misses of a burst shorter than a pass the low decile
// discards, along with a stray fast pass.
func endToEnd(cfg config, h *harness, rep *report, raw *unadjusted) error {
	want, wantTrailer, err := oracle(h.w)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	n := len(h.w.jobs)
	outs, trailer, _, err := measurePass(h.runner)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	rep.Attempted += n
	rep.Failed += check(outs, trailer, want, wantTrailer)

	var wall, first, cpu, kb, allocs []float64
	var rawWall, rawFirst, rawCPU, scales []float64
	prev := calibrate()
	deadline := time.Now().Add(cfg.seconds)
	for len(wall) < minPasses || time.Now().Before(deadline) {
		outs, trailer, ps, err := measurePass(h.runner)
		cur := calibrate()
		sc := scaleBetween(prev, cur)
		prev = cur
		rep.Attempted += n
		if err != nil {
			rep.Failed += n
			continue
		}
		rep.Failed += check(outs, trailer, want, wantTrailer)
		v := float64(n)
		rawWall = append(rawWall, ps.wall.Seconds())
		rawFirst = append(rawFirst, float64(ps.first)/millis)
		rawCPU = append(rawCPU, float64(ps.cpu)/millis/v)
		scales = append(scales, sc)
		wall = append(wall, ps.wall.Seconds()*sc)
		first = append(first, float64(ps.first)/millis*sc)
		cpu = append(cpu, float64(ps.cpu)/millis/v*sc)
		kb = append(kb, float64(ps.allocBytes)/1024/v)
		allocs = append(allocs, float64(ps.allocs)/v)
	}
	raw.VariantsPerS = float64(n) / lowDecile(rawWall)
	raw.FirstResultMS = lowDecile(rawFirst)
	raw.CPUMSPerVariant = lowDecile(rawCPU)
	raw.Scale = median(scales)
	raw.Passes = len(wall)
	rep.set("variants_per_s", float64(n)/lowDecile(wall), "variants/s")
	rep.set("first_result_ms", lowDecile(first), "ms")
	rep.set("cpu_ms_per_variant", lowDecile(cpu), "ms")
	rep.set("alloc_kb_per_variant", median(kb), "KiB")
	rep.set("allocs_per_variant", median(allocs), "count")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	rep.set("correct_share", 1-float64(rep.Failed)/float64(rep.Attempted), "share")
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of a sample (0 for an empty one).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowDecile is the 10th percentile of a sample (0 for an empty one).
func lowDecile(xs []float64) float64 { return quantile(xs, 0.1) }

// quantile interpolates linearly between the closest ranks of the sorted
// sample (0 for an empty one).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
