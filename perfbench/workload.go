package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/scenarios"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlDefects   = "defects-lanes"
	wlTolerance = "tolerance-groups"
	wlThesis    = "thesis-traces"
	wlHuge      = "huge-http"
)

var workloadNames = []string{wlDefects, wlTolerance, wlThesis, wlHuge}

// hugeDuration is the scheduled duration every huge-http variant is trimmed
// to (20 ticks).  On a 2-core Xeon a pass then costs ~52 µs CPU per variant,
// of which RunReport encode, ParseResultLine and the coordinator merge take
// ~16 µs (a third) before counting the HTTP stack; at 100 ms it was an eighth.
const hugeDuration = 20 * time.Millisecond

// httpShards is the shard count of huge-http and of the HTTP probe: two
// shard requests to one in-process worker server with one engine worker
// each, so two connections and two simulation goroutines.
const httpShards = 2

// Quick mode shrinks every workload to a handful of short variants so the
// package test can run all four end to end in a few seconds.
const (
	quickDuration = 100 * time.Millisecond
	quickVariants = 8
	quickHuge     = 24
)

// Seeded perturbation bounds.  A non-zero seed moves each family's numeric
// axes by a small amount so runs on different seeds measure different inputs
// of the same shape: same variant count, group widths and durations.
const (
	maxSpeedOffset = 0.5  // m/s, added to initial speeds
	maxDistScale   = 0.05 // object distances scale by 1±this
	maxShiftMillis = 100  // driver schedules shift by 0..this many ms
)

// defaultTol is the hit-matching window Options.MatchTolerance 0 resolves to.
const defaultTol = 150

// HTTP client and worker-server timing.
const (
	healthTimeout  = 5 * time.Second
	healthPoll     = 5 * time.Millisecond
	connectTimeout = 2 * time.Second
	headerTimeout  = 10 * time.Second
)

// hugeWorkers is the engine pool of each worker-server request.
const hugeWorkers = 1

const millis = float64(time.Millisecond)

// workload is one named benchmark input: the perturbed job list and how it is
// executed.
type workload struct {
	name string
	jobs []scenarios.Job
	// keepTrace selects KeepTrace retention and rendered violation tables as
	// the output (thesis-traces); otherwise results are summary-only NDJSON.
	keepTrace bool
	// http routes the sweep through dist.Coordinator over loopback HTTP.
	http bool
	// workers is the engine pool size (per worker-server request for http).
	workers int
	// shards is the coordinator shard count (0 without a coordinator).
	shards int
}

// duration is the scheduled duration every variant of the workload runs.
func (w *workload) duration() time.Duration {
	d := w.jobs[0].Scenario.Duration
	if d <= 0 {
		d = scenarios.DefaultDuration
	}
	return d
}

// params are the workload parameters stamped on every record.
func (w *workload) params() map[string]any {
	return map[string]any{
		"variants":    len(w.jobs),
		"duration_ms": float64(w.duration()) / millis,
		"workers":     w.workers,
		"shards":      w.shards,
		"retention":   w.retention().String(),
	}
}

func (w *workload) retention() scenarios.Retention {
	if w.keepTrace {
		return scenarios.KeepTrace
	}
	return scenarios.SummaryOnly
}

// enumerate builds the workload's jobs for a seed: the preset sweep, its
// numeric axes perturbed when seed != 0, trimmed in quick mode.
func enumerate(name string, seed int64, quick bool) (*workload, error) {
	w := &workload{name: name, workers: runtime.NumCPU()}
	switch name {
	case wlDefects:
		w.jobs = perturbSweep(scenarios.DefectSweep(), seed).Jobs()
	case wlTolerance:
		w.jobs = perturbSweep(scenarios.ToleranceSweep(), seed).Jobs()
	case wlThesis:
		rng := rand.New(rand.NewSource(seed))
		for _, sc := range scenarios.Scenarios() {
			if seed != 0 {
				sc = perturbScenario(sc, draw(rng))
			}
			w.jobs = append(w.jobs, scenarios.Job{Scenario: sc})
		}
		w.keepTrace = true
	case wlHuge:
		w.jobs = perturbSweep(scenarios.HugeSweep(), seed).Jobs()
		w.jobs = withDuration(w.jobs, hugeDuration)
		w.http = true
		w.workers = hugeWorkers
		w.shards = httpShards
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if quick {
		n := quickVariants
		if w.http {
			n = quickHuge
		}
		if len(w.jobs) > n {
			w.jobs = w.jobs[:n]
		}
		w.jobs = withDuration(w.jobs, quickDuration)
	}
	return w, nil
}

// withDuration returns copies of the jobs scheduled for d.
func withDuration(jobs []scenarios.Job, d time.Duration) []scenarios.Job {
	out := make([]scenarios.Job, len(jobs))
	for i, j := range jobs {
		j.Scenario.Duration = d
		out[i] = j
	}
	return out
}

// perturbation is one family's seeded offset of its numeric axes.
type perturbation struct {
	speed float64       // added to every initial speed
	scale float64       // multiplies every object distance
	shift time.Duration // added to every driver action time
}

func draw(rng *rand.Rand) perturbation {
	return perturbation{
		speed: rng.Float64() * maxSpeedOffset,
		scale: 1 + (2*rng.Float64()-1)*maxDistScale,
		shift: time.Duration(rng.Intn(maxShiftMillis+1)) * time.Millisecond,
	}
}

func perturbScenario(sc scenarios.Scenario, p perturbation) scenarios.Scenario {
	sc.InitialSpeed += p.speed
	sc.ObjectDistance *= p.scale
	sc.Driver = scenarios.ShiftSchedule(sc.Driver, p.shift)
	return sc
}

// perturbSweep applies one seeded perturbation per family to the base and to
// every numeric axis derived from it.  Seed 0 returns the preset unchanged.
func perturbSweep(sw scenarios.Sweep, seed int64) scenarios.Sweep {
	if seed == 0 {
		return sw
	}
	rng := rand.New(rand.NewSource(seed))
	fams := make([]scenarios.Family, len(sw.Families))
	for i, f := range sw.Families {
		p := draw(rng)
		f.Base = perturbScenario(f.Base, p)
		f.InitialSpeeds = mapAxis(f.InitialSpeeds, func(v float64) float64 { return v + p.speed })
		f.ObjectDistances = mapAxis(f.ObjectDistances, func(v float64) float64 { return v * p.scale })
		f.Drivers = mapAxis(f.Drivers, func(d []vehicle.DriverAction) []vehicle.DriverAction {
			return scenarios.ShiftSchedule(d, p.shift)
		})
		fams[i] = f
	}
	return scenarios.Sweep{Families: fams}
}

// mapAxis returns a new axis with fn applied to every value; an empty axis
// (keep the base value) stays empty.
func mapAxis[T any](axis []T, fn func(T) T) []T {
	if len(axis) == 0 {
		return axis
	}
	out := make([]T, len(axis))
	for i, v := range axis {
		out[i] = fn(v)
	}
	return out
}

// tolerance resolves a job's effective hit-matching window.
func tolerance(o scenarios.Options) int {
	if o.MatchTolerance > 0 {
		return o.MatchTolerance
	}
	return defaultTol
}

// compilePlan compiles the vehicle monitoring plan into a compiled suite
// against a schema, at one matching tolerance.
func compilePlan(schema *temporal.Schema, tol int) *monitor.CompiledSuite {
	cs := monitor.NewCompiledSuite(scenarios.Period, schema)
	for _, spec := range scenarios.MonitoringPlan() {
		cs.MustAddHierarchy(spec.Parent, tol, spec.Children...)
	}
	return cs
}

// runner executes closed-loop passes over a workload: each pass submits the
// whole sweep and returns once its aggregate trailer is complete.
type runner interface {
	// pass runs the sweep once, handing each delivered variant's output to
	// emit in source order, and returns the aggregate trailer (nil for
	// rendered tables).
	pass(ctx context.Context, emit func(out []byte)) (trailer []byte, err error)
	// close releases what setup acquired.  It returns once every goroutine
	// the runner started has ended.
	close()
}

// harness is a set-up workload, ready for its first pass.
type harness struct {
	w      *workload
	runner runner
}

// setup gets a workload ready for its first pass; it is what setup_s times:
// sweep enumeration and keys, one monitoring-plan compile against a fresh
// NewSimulation bus, engine or coordinator construction, and for huge-http
// the loopback worker server up with /healthz answering.
func setup(name string, seed int64, quick bool) (*harness, error) {
	w, err := enumerate(name, seed, quick)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(w.jobs))
	for _, j := range w.jobs {
		key := j.Key()
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("workload %s: duplicate variant key %q", name, key)
		}
		seen[key] = struct{}{}
	}
	compilePlan(scenarios.NewSimulation(w.jobs[0].Scenario, w.jobs[0].Options).Bus.Schema(), tolerance(w.jobs[0].Options))

	h := &harness{w: w}
	if !w.http {
		h.runner = &engineRunner{
			engine:    scenarios.NewEngine(scenarios.WithWorkers(w.workers), scenarios.WithRetention(w.retention())),
			jobs:      w.jobs,
			keepTrace: w.keepTrace,
		}
		return h, nil
	}
	srv, err := startWorkerServer(w.jobs, w.workers)
	if err != nil {
		return nil, err
	}
	coord, err := dist.New(dist.Options{Workers: w.shards, Transport: srv.transport()})
	if err != nil {
		srv.close()
		return nil, err
	}
	h.runner = &coordRunner{srv: srv, coord: coord, jobs: w.jobs}
	return h, nil
}

// engineRunner runs passes on one in-process streaming Engine.
type engineRunner struct {
	engine    *scenarios.Engine
	jobs      []scenarios.Job
	keepTrace bool
}

func (r *engineRunner) pass(ctx context.Context, emit func([]byte)) ([]byte, error) {
	if r.keepTrace {
		err := r.engine.Stream(ctx, scenarios.SliceSource(r.jobs), scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
			emit([]byte(scenarios.RenderViolationTable(sr.Result)))
			return nil
		}))
		return nil, err
	}
	// NDJSON exactly as `cmd/scenarios -stream` writes it: one RunReport
	// line per result, then the aggregate trailer.
	var acc scenarios.Accumulator
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	err := r.engine.Stream(ctx, scenarios.SliceSource(r.jobs), scenarios.Tee(&acc, scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
		line.Reset()
		if err := enc.Encode(dist.NewRunReport(sr)); err != nil {
			return err
		}
		emit(line.Bytes())
		return nil
	})))
	if err != nil {
		return nil, err
	}
	line.Reset()
	if err := enc.Encode(dist.NewAggregateReport(&acc)); err != nil {
		return nil, err
	}
	return bytes.Clone(line.Bytes()), nil
}

func (r *engineRunner) close() {}

// coordRunner runs passes through dist.Coordinator over HTTP.
type coordRunner struct {
	srv   *workerServer
	coord *dist.Coordinator
	jobs  []scenarios.Job
}

func (r *coordRunner) pass(ctx context.Context, emit func([]byte)) ([]byte, error) {
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	out, err := r.coord.Run(ctx, scenarios.SliceSource(r.jobs), scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
		line.Reset()
		if err := enc.Encode(dist.NewRunReport(sr)); err != nil {
			return err
		}
		emit(line.Bytes())
		return nil
	}))
	if err != nil {
		return nil, err
	}
	line.Reset()
	if err := enc.Encode(out.Report()); err != nil {
		return nil, err
	}
	return bytes.Clone(line.Bytes()), nil
}

func (r *coordRunner) close() { r.srv.close() }

// workerServer is an in-process dist.WorkerServer on a loopback listener,
// plus the HTTP client the coordinator reaches it with.
type workerServer struct {
	addr   string
	srv    *http.Server
	client *http.Client
	done   chan struct{}
}

// startWorkerServer serves the jobs on 127.0.0.1 and returns once /healthz
// answers.
func startWorkerServer(jobs []scenarios.Job, workers int) (*workerServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("worker server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle(dist.DefaultShardPath, &dist.WorkerServer{
		Source:  func() scenarios.JobSource { return scenarios.SliceSource(jobs) },
		Workers: workers,
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ws := &workerServer{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: connectTimeout}).DialContext,
			ResponseHeaderTimeout: headerTimeout,
			MaxIdleConnsPerHost:   httpShards,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ws.done)
		_ = ws.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	if err := ws.waitHealthy(); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

func (ws *workerServer) waitHealthy() error {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ws.addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := ws.client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("worker server: /healthz did not answer")
		case <-time.After(healthPoll):
		}
	}
}

func (ws *workerServer) transport() *dist.HTTPTransport {
	return &dist.HTTPTransport{Hosts: []string{ws.addr}, Client: ws.client}
}

// close stops the server and waits for its serve loop to end.
func (ws *workerServer) close() {
	_ = ws.srv.Close() // closes the listener and every connection; nothing to report
	<-ws.done
	ws.client.CloseIdleConnections()
}

// oracle computes a workload's reference outputs for one seed with code that
// shares nothing with lane or group execution: summary-only workloads run on
// an engine with grouping and lanes off (one scalar arena run per variant),
// whose NDJSON stream is also the single-process stream huge-http's merged
// stream must equal; thesis-traces renders scenarios.RunWithOptions results.
func oracle(w *workload) (outs [][]byte, trailer []byte, err error) {
	if w.keepTrace {
		for _, j := range w.jobs {
			outs = append(outs, []byte(scenarios.RenderViolationTable(scenarios.RunWithOptions(j.Scenario, j.Options))))
		}
		return outs, nil, nil
	}
	ref := &engineRunner{
		engine: scenarios.NewEngine(
			scenarios.WithWorkers(runtime.NumCPU()),
			scenarios.WithRetention(scenarios.SummaryOnly),
			scenarios.WithGrouping(false),
			scenarios.WithLanes(1),
		),
		jobs: w.jobs,
	}
	trailer, err = ref.pass(context.Background(), func(b []byte) { outs = append(outs, bytes.Clone(b)) })
	return outs, trailer, err
}

// check compares one pass's outputs with the oracle and returns how many
// variants were not delivered or differ.  A wrong aggregate trailer with every
// line right still counts as one failed variant.
func check(outs [][]byte, trailer []byte, want [][]byte, wantTrailer []byte) int {
	failed := 0
	for i := range want {
		if i >= len(outs) || !bytes.Equal(outs[i], want[i]) {
			failed++
		}
	}
	if failed == 0 && !bytes.Equal(trailer, wantTrailer) {
		failed = 1
	}
	return failed
}
