package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/vehicle"
)

// Shares of --seconds the traced run spends on its phases.  The rest goes to
// the untraced reference pass.
const (
	scalarShare   = 0.30 // traced scalar replay
	overheadShare = 0.20 // paired traced/untraced replays
	laneShare     = 0.20 // recorded-trajectory lane replay
	probeShare    = 0.03 // each repeated probe (dispatch, encode, decode, merge)
	minProbe      = 3    // repetitions every probe makes at least
)

// laneWidth is the lane width the lane replay widens to, the engine's default.
const laneWidth = 4

// groupStride orders the replayed dynamics groups: co-prime with every
// workload's group count, so a replay cut short by its budget still samples
// every scenario family instead of only the first few.
const groupStride = 7

// enumWrites is the number of StringVar.Write calls one enum-write probe times.
const enumWrites = 1 << 20

// epoch anchors nanotime; set once at start-up.
var epoch = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one recorded interval, aggregated over the ticks of one variant:
// ID is the variant's Job.Key (the first lane's key for a lane batch), Layer
// names the timed public call, Parent the enclosing span's layer, NS the
// summed duration and N how many calls it covers.
type span struct {
	ID     string   `json:"id"`
	Layer  string   `json:"layer"`
	Parent string   `json:"parent,omitempty"`
	NS     int64    `json:"ns"`
	N      int      `json:"n"`
	Lanes  []string `json:"lanes,omitempty"`
}

// layerTotals sums the spans of one layer over a traced run.
type layerTotals map[string]struct {
	ns int64
	n  int
}

func (lt layerTotals) add(layer string, ns int64, n int) {
	t := lt[layer]
	t.ns += ns
	t.n += n
	lt[layer] = t
}

// per returns the layer's summed time divided by d, in the given unit.
func (lt layerTotals) per(layer string, d int, unit time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return float64(lt[layer].ns) / float64(unit) / float64(d)
}

// group is one run of consecutive jobs sharing a DynamicsKey: the unit the
// engine simulates once.
type group struct {
	first int // source index of the first job
	jobs  []scenarios.Job
}

func dynamicsGroups(jobs []scenarios.Job) []group {
	var gs []group
	for i, j := range jobs {
		if n := len(gs); n > 0 && gs[n-1].jobs[0].DynamicsKey() == j.DynamicsKey() {
			gs[n-1].jobs = append(gs[n-1].jobs, j)
			continue
		}
		gs = append(gs, group{first: i, jobs: []scenarios.Job{j}})
	}
	return gs
}

// tracer holds one traced run's spans and per-layer totals.
type tracer struct {
	w      *workload
	spans  []span
	totals layerTotals
	// failed marks source indices whose replayed output disagreed with
	// another path; attempted counts the replayed variants.
	failed    map[int]bool
	attempted int
	// suites caches compiled suites per tolerance for summary-only replay,
	// as the engine's workers do.
	suites map[int]*monitor.CompiledSuite
}

func (t *tracer) record(id, layer, parent string, ns int64, n int) {
	t.spans = append(t.spans, span{ID: id, Layer: layer, Parent: parent, NS: ns, N: n})
	t.totals.add(layer, ns, n)
}

// tickClock times the phases of each scalar simulation tick.  The kernel
// steps the components, then the marker component, commits, calls the
// observers and then the stop predicate, so component stepping runs from the
// previous tick's stop predicate to the marker, commit from the marker to the
// observer, and monitoring is the observer call itself.
type tickClock struct {
	on     bool
	suite  *monitor.CompiledSuite
	begin  int64
	marked int64
	// summed nanoseconds per phase, and ticks observed
	vehicle, commit, observe int64
	ticks                    int
}

func (c *tickClock) start() {
	if c.on {
		c.begin = nanotime()
	}
}

func (c *tickClock) mark(time.Duration, *sim.Bus) {
	if c.on {
		c.marked = nanotime()
	}
}

// Observe implements sim.StateObserver around the compiled suite.
func (c *tickClock) Observe(st temporal.State) {
	if !c.on {
		c.suite.Observe(st)
		return
	}
	t := nanotime()
	c.vehicle += c.marked - c.begin
	c.commit += t - c.marked
	c.suite.Observe(st)
	c.observe += nanotime() - t
	c.ticks++
}

// replayed is one scalar-replayed group's outcome.
type replayed struct {
	g       group
	results []scenarios.StreamResult // summary projection, one per job
	outs    [][]byte                 // one output per job, as the workload's pass emits it
	cpu     time.Duration
	spans   []span // the replay's spans when timed
}

// scalarGroup replays one dynamics group on the scalar path through public
// calls: NewSimulation, RunDiscard (Run under KeepTrace) observed by the
// compiled suite, then FastSummaryAt per job and ClassifyAll.  With timed
// set every call is timed and returned as a span under the variant's key.
func (t *tracer) scalarGroup(g group, timed bool) replayed {
	lead := g.jobs[0]
	id := lead.Key()
	cpu0 := cpuTime()
	begin := nanotime()

	t0 := nanotime()
	s := scenarios.NewSimulation(lead.Scenario, lead.Options)
	newSim := nanotime() - t0

	t0 = nanotime()
	tol := tolerance(lead.Options)
	cs := t.suites[tol]
	if cs == nil || t.w.keepTrace {
		// KeepTrace results own their suite, so the engine compiles one per
		// job; summary-only workers compile once per tolerance and Reset.
		cs = compilePlan(s.Bus.Schema(), tol)
		if !t.w.keepTrace {
			t.suites[tol] = cs
		}
	} else {
		cs.Reset()
	}
	compile := nanotime() - t0

	clk := &tickClock{on: timed, suite: cs}
	s.Add(sim.StepFunc{ComponentName: "perfbench.marker", Fn: clk.mark})
	s.Observe(clk)
	collision := s.Bus.Schema().Intern(vehicle.SigCollision)
	s.StopWhen(func(_ time.Duration, st temporal.State) bool {
		hit := st.Slot(collision).AsBool()
		clk.start()
		return hit
	})
	sc := lead.Scenario
	if sc.Duration <= 0 {
		sc.Duration = scenarios.DefaultDuration
	}
	var (
		trace *temporal.Trace
		steps int
		last  temporal.State
	)
	clk.start()
	if t.w.keepTrace {
		trace = s.Run(sc.Duration)
		steps, last = trace.Len(), trace.Last()
	} else {
		steps, last = s.RunDiscard(sc.Duration)
	}
	t0 = nanotime()
	cs.Finish()
	finish := nanotime() - t0

	sums := make([]monitor.Summary, len(g.jobs))
	t0 = nanotime()
	for i, j := range g.jobs {
		sums[i] = cs.FastSummaryAt(tolerance(j.Options))
	}
	fast := nanotime() - t0
	t0 = nanotime()
	detections, summary := cs.ClassifyAll()
	classify := nanotime() - t0
	total := nanotime() - begin
	cpu := cpuTime() - cpu0

	collided := last != nil && last.Bool(vehicle.SigCollision)
	r := replayed{g: g, cpu: cpu}
	if timed {
		const parent = "scenarios.variant"
		r.spans = []span{
			{ID: id, Layer: parent, NS: total, N: 1},
			{ID: id, Layer: "scenarios.new_simulation", Parent: parent, NS: newSim, N: 1},
			{ID: id, Layer: "monitor.compile", Parent: parent, NS: compile, N: 1},
			{ID: id, Layer: "vehicle.step", Parent: parent, NS: clk.vehicle, N: clk.ticks},
			{ID: id, Layer: "sim.commit", Parent: parent, NS: clk.commit, N: clk.ticks},
			{ID: id, Layer: "monitor.observe", Parent: parent, NS: clk.observe, N: clk.ticks},
			{ID: id, Layer: "monitor.finish", Parent: parent, NS: finish, N: 1},
			{ID: id, Layer: "monitor.fast_summary_at", Parent: parent, NS: fast, N: len(g.jobs)},
			{ID: id, Layer: "monitor.classify_all", Parent: parent, NS: classify, N: 1},
		}
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	for i, j := range g.jobs {
		jsc := j.Scenario
		if jsc.Duration <= 0 {
			jsc.Duration = scenarios.DefaultDuration
		}
		res := scenarios.Result{Scenario: jsc, Steps: steps, Summary: sums[i], Collision: collided}
		sr := scenarios.StreamResult{Index: g.first + i, Job: j, Result: res}
		r.results = append(r.results, sr)
		if t.w.keepTrace {
			res.Trace, res.Suite, res.Detections, res.Summary = trace, cs.Suite(), detections, summary
			r.outs = append(r.outs, []byte(scenarios.RenderViolationTable(res)))
			continue
		}
		line.Reset()
		_ = enc.Encode(dist.NewRunReport(sr)) // encoding a RunReport into a buffer cannot fail
		r.outs = append(r.outs, bytes.Clone(line.Bytes()))
	}
	return r
}

// traced runs one untraced end-to-end pass as the reference, the traced
// scalar replay, paired traced and untraced replays (the tracing overhead),
// the lane replay of recorded trajectories and the layer probes, then writes
// the spans and reports the per-layer metrics.
func traced(cfg config, h *harness, env envRecord, rep *report) error {
	w := h.w
	passOuts, _, _, err := measurePass(h.runner)
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	t := &tracer{w: w, totals: make(layerTotals), failed: make(map[int]bool), suites: make(map[int]*monitor.CompiledSuite)}

	// Traced scalar replay, groups in strided order until its budget ends.
	groups := dynamicsGroups(w.jobs)
	deadline := time.Now().Add(time.Duration(scalarShare * float64(cfg.seconds)))
	var done []replayed
	for k := 0; k < len(groups); k++ {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		r := t.scalarGroup(groups[k*groupStride%len(groups)], true)
		for _, sp := range r.spans {
			t.record(sp.ID, sp.Layer, sp.Parent, sp.NS, sp.N)
		}
		for i, out := range r.outs {
			t.attempted++
			if idx := r.g.first + i; idx >= len(passOuts) || !bytes.Equal(out, passOuts[idx]) {
				t.failed[idx] = true
			}
		}
		done = append(done, r)
	}
	var passCPU time.Duration
	for _, r := range done {
		passCPU += r.cpu
	}
	var attributed int64
	for layer, tot := range t.totals {
		if layer != "scenarios.variant" {
			attributed += tot.ns
		}
	}
	ticks := t.totals["vehicle.step"].n
	variants := 0
	for _, r := range done {
		variants += len(r.g.jobs)
	}
	rep.set("vehicle.step_ns_per_tick", t.totals.per("vehicle.step", ticks, time.Nanosecond), "ns")
	rep.set("sim.commit_ns_per_tick", t.totals.per("sim.commit", ticks, time.Nanosecond), "ns")
	rep.set("monitor.observe_ns_per_tick", t.totals.per("monitor.observe", ticks, time.Nanosecond), "ns")
	rep.set("monitor.fast_summary_at_us", t.totals.per("monitor.fast_summary_at", variants, time.Microsecond), "us")
	rep.set("monitor.classify_all_us", t.totals.per("monitor.classify_all", len(done), time.Microsecond), "us")
	rep.set("scenarios.new_simulation_us", t.totals.per("scenarios.new_simulation", len(done), time.Microsecond), "us")
	rep.set("scenarios.unattributed_share", (float64(passCPU)-float64(attributed))/float64(passCPU), "share")

	// Tracing overhead: replayed groups again, untraced and traced back to
	// back in alternating order so host drift hits both sides alike, CPU
	// against CPU.
	var tracedCPU, plainCPU time.Duration
	deadline = time.Now().Add(time.Duration(overheadShare * float64(cfg.seconds)))
	for k, r := range done {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		if k%2 == 0 {
			plainCPU += t.scalarGroup(r.g, false).cpu
			tracedCPU += t.scalarGroup(r.g, true).cpu
		} else {
			tracedCPU += t.scalarGroup(r.g, true).cpu
			plainCPU += t.scalarGroup(r.g, false).cpu
		}
	}
	rep.set("trace.overhead_share", float64(tracedCPU)/float64(plainCPU)-1, "share")

	if err := t.laneReplay(cfg, done, rep); err != nil {
		return err
	}
	if err := t.probes(cfg, done, rep); err != nil {
		return err
	}
	rep.Attempted = t.attempted
	rep.Failed = len(t.failed)
	return writeSpans(cfg, env, t.spans)
}

// laneHandles binds one signal on one lane view, one handle per value kind.
type laneHandles struct {
	n sim.NumVar
	b sim.BoolVar
	s sim.StringVar
}

// laneBench is the lane replay's fixture: a 4-lane bus feeding a LaneSuite
// and a standalone lane Program, a 1-lane bus feeding a 1-lane Program, and
// a scalar Program, all compiled from the vehicle monitoring plan.
type laneBench struct {
	lb4, lb1 *sim.LaneBus
	h4       [][]laneHandles
	h1       [][]laneHandles
	suite    *monitor.LaneSuite
	prog4    *temporal.Program
	prog1    *temporal.Program
	scalar   *temporal.Program
}

// planProgram compiles every goal and subgoal formula of the monitoring plan
// into one standalone Program.
func planProgram(schema *temporal.Schema) *temporal.Program {
	p := temporal.NewProgram(scenarios.Period, schema)
	for _, spec := range scenarios.MonitoringPlan() {
		p.MustAdd(spec.Parent.Goal.Formal)
		for _, c := range spec.Children {
			p.MustAdd(c.Goal.Formal)
		}
	}
	return p
}

// bindLanes interns the vocabulary into a lane bus and resolves one handle
// triple per signal per lane.
func bindLanes(lb *sim.LaneBus, vocab []string) [][]laneHandles {
	hs := make([][]laneHandles, lb.Lanes())
	for l := range hs {
		view := lb.Lane(l)
		for _, name := range vocab {
			hs[l] = append(hs[l], laneHandles{n: view.NumVar(name), b: view.BoolVar(name), s: view.StringVar(name)})
		}
	}
	return hs
}

func newLaneBench(vocab *temporal.Schema) (*laneBench, error) {
	names := vocab.Names()
	b := &laneBench{lb4: sim.NewLaneBus(laneWidth), lb1: sim.NewLaneBus(1)}
	b.h4 = bindLanes(b.lb4, names)
	b.h1 = bindLanes(b.lb1, names)
	b.suite = monitor.NewLaneSuite(scenarios.Period, b.lb4.Schema(), laneWidth)
	for _, spec := range scenarios.MonitoringPlan() {
		b.suite.MustAddHierarchy(spec.Parent, defaultTol, spec.Children...)
	}
	if err := b.suite.Seal(); err != nil {
		return nil, err
	}
	b.prog4 = planProgram(b.lb4.Schema())
	if err := b.prog4.SetLanes(laneWidth); err != nil {
		return nil, err
	}
	b.prog1 = planProgram(b.lb1.Schema())
	if err := b.prog1.SetLanes(1); err != nil {
		return nil, err
	}
	b.scalar = planProgram(vocab)
	return b, nil
}

// slotMap maps a recorded trajectory's slots to the lane buses' vocabulary
// indices (-1 for a signal the vocabulary lacks).
func slotMap(from *temporal.Schema, to *temporal.Schema) []int {
	m := make([]int, from.Len())
	for i := range m {
		j, ok := to.Lookup(from.Name(i))
		if !ok {
			j = -1
		}
		m[i] = j
	}
	return m
}

// writeState replays one recorded state into a lane view's pending buffer.
func writeState(hs []laneHandles, m []int, st temporal.State) {
	for i, j := range m {
		if j < 0 || j >= len(hs) {
			continue
		}
		switch st.SlotKind(i) {
		case temporal.KindNumber:
			hs[j].n.Write(st.SlotNumber(i))
		case temporal.KindBool:
			hs[j].b.Write(st.SlotBool(i))
		case temporal.KindString:
			hs[j].s.Write(st.SlotString(i))
		}
	}
}

// recordTrajectory runs a group's simulation with no observer and returns
// its committed states.
func recordTrajectory(g group) *temporal.Trace {
	lead := g.jobs[0]
	s := scenarios.NewSimulation(lead.Scenario, lead.Options)
	collision := s.Bus.Schema().Intern(vehicle.SigCollision)
	s.StopWhen(func(_ time.Duration, st temporal.State) bool { return st.Slot(collision).AsBool() })
	d := lead.Scenario.Duration
	if d <= 0 {
		d = scenarios.DefaultDuration
	}
	return s.Run(d)
}

// laneReplay replays the scalar-replayed groups' recorded trajectories four
// at a time (untimed writes) and times LaneBus.Commit, LaneSuite.ObserveLanes
// and Program.StepLanes at 4 lanes, LaneBus.Commit and Program.StepLanes at
// 1 lane, and the scalar Program.Step.  Each lane's FastSummaryAt must equal
// the scalar replay's summary for the same job.
func (t *tracer) laneReplay(cfg config, done []replayed, rep *report) error {
	deadline := time.Now().Add(time.Duration(laneShare * float64(cfg.seconds)))
	var b *laneBench
	var commit4, observe4, step4, ticks4 int64
	var commit1, step1, scalarStep, ticks1 int64
	for start := 0; start < len(done); start += laneWidth {
		if start > 0 && time.Now().After(deadline) {
			break
		}
		batch := done[start:min(start+laneWidth, len(done))]
		trajs := make([]*temporal.Trace, len(batch))
		for l, r := range batch {
			trajs[l] = recordTrajectory(r.g)
		}
		if b == nil {
			var err error
			if b, err = newLaneBench(trajs[0].At(0).Schema()); err != nil {
				return err
			}
		}
		maps := make([][]int, len(batch))
		keys := make([]string, len(batch))
		collided := make([]bool, len(batch))
		maxLen := 0
		for l, tr := range trajs {
			maps[l] = slotMap(tr.At(0).Schema(), b.lb4.Schema())
			keys[l] = batch[l].g.jobs[0].Key()
			collided[l] = tr.Last().Bool(vehicle.SigCollision)
			maxLen = max(maxLen, tr.Len())
		}

		// 1 lane and scalar, trajectory by trajectory.
		for l, tr := range trajs {
			b.lb1.Reset()
			b.prog1.Reset()
			b.scalar.Reset()
			var c, s, sc int64
			for i := 0; i < tr.Len(); i++ {
				st := tr.At(i)
				writeState(b.h1[0], maps[l], st)
				t0 := nanotime()
				b.lb1.Commit()
				t1 := nanotime()
				b.prog1.StepLanes(b.lb1.State())
				t2 := nanotime()
				b.scalar.Step(st)
				t3 := nanotime()
				c += t1 - t0
				s += t2 - t1
				sc += t3 - t2
			}
			n := tr.Len()
			t.record(keys[l], "sim.lane_commit.l1", "", c, n)
			t.record(keys[l], "temporal.step_lanes.l1", "", s, n)
			t.record(keys[l], "temporal.step", "", sc, n)
			commit1 += c
			step1 += s
			scalarStep += sc
			ticks1 += int64(n)
		}

		// 4 lanes in lockstep.
		b.lb4.Reset()
		b.suite.Reset(len(batch))
		b.prog4.Reset()
		var c, o, s int64
		for i := 0; i < maxLen; i++ {
			for l, tr := range trajs {
				if i < tr.Len() {
					writeState(b.h4[l], maps[l], tr.At(i))
				}
			}
			t0 := nanotime()
			b.lb4.Commit()
			t1 := nanotime()
			b.suite.ObserveLanes(b.lb4.State())
			t2 := nanotime()
			b.prog4.StepLanes(b.lb4.State())
			t3 := nanotime()
			c += t1 - t0
			o += t2 - t1
			s += t3 - t2
			for l, tr := range trajs {
				if i == tr.Len()-1 && collided[l] {
					b.suite.LaneStopped(l)
				}
			}
		}
		b.suite.Finish()
		t.spans = append(t.spans,
			span{ID: keys[0], Layer: "sim.lane_commit.l4", NS: c, N: maxLen, Lanes: keys},
			span{ID: keys[0], Layer: "monitor.observe_lanes.l4", NS: o, N: maxLen, Lanes: keys},
			span{ID: keys[0], Layer: "temporal.step_lanes.l4", NS: s, N: maxLen, Lanes: keys})
		commit4 += c
		observe4 += o
		step4 += s
		ticks4 += int64(maxLen)

		for l, r := range batch {
			for i, j := range r.g.jobs {
				if b.suite.FastSummaryAt(l, tolerance(j.Options)) != r.results[i].Result.Summary {
					t.failed[r.g.first+i] = true
				}
			}
		}
	}
	if b == nil {
		return fmt.Errorf("lane replay: nothing replayed")
	}
	ns := func(total, ticks int64) float64 { return float64(total) / float64(ticks) }
	rep.set("sim.lane_commit_ns_per_tick.l1", ns(commit1, ticks1), "ns")
	rep.set("sim.lane_commit_ns_per_tick.l4", ns(commit4, ticks4), "ns")
	rep.set("temporal.step_ns_per_tick", ns(scalarStep, ticks1), "ns")
	rep.set("temporal.step_lanes_ns_per_tick.l1", ns(step1, ticks1), "ns")
	rep.set("temporal.step_lanes_ns_per_tick.l4", ns(step4, ticks4), "ns")
	rep.set("monitor.observe_lanes_ns_per_tick.l4", ns(observe4-step4, ticks4), "ns")
	rep.set("temporal.program_nodes", float64(b.scalar.Stats().Nodes), "count")
	return nil
}

// repeat calls fn at least minProbe times and until budget has passed, and
// returns the median of its results.
func repeat(budget time.Duration, fn func() (float64, error)) (float64, error) {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < minProbe || time.Now().Before(deadline) {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// probes runs the fixed-input layer probes: enum writes, engine dispatch over
// one-tick jobs, the HTTP shard path over one-tick jobs, and wire encode,
// decode and coordinator merge over the replayed results.
func (t *tracer) probes(cfg config, done []replayed, rep *report) error {
	w := t.w
	budget := time.Duration(probeShare * float64(cfg.seconds))

	// sim.enum_write_ns: StringVar.Write of enum values on a vehicle bus.
	s := scenarios.NewSimulation(w.jobs[0].Scenario, w.jobs[0].Options)
	source := s.Bus.StringVar(vehicle.SigAccelSource)
	enums := [4]string{vehicle.SourceNone, vehicle.SourceCA, vehicle.SourceACC, vehicle.SourceDriver}
	v, _ := repeat(budget, func() (float64, error) {
		t0 := nanotime()
		for i := 0; i < enumWrites; i++ {
			source.Write(enums[i&3])
		}
		return float64(nanotime()-t0) / enumWrites, nil
	})
	rep.set("sim.enum_write_ns", v, "ns")

	// scenarios.dispatch_us_per_job and the engine's grouping and lane
	// counters, over the workload's jobs trimmed to one tick.
	oneTick := withDuration(w.jobs, scenarios.Period)
	var gs scenarios.GroupStats
	var ls scenarios.LaneStats
	v, err := repeat(budget, func() (float64, error) {
		gs, ls = scenarios.GroupStats{}, scenarios.LaneStats{}
		start := time.Now()
		for shard := 0; shard < max(w.shards, 1); shard++ {
			var src scenarios.JobSource = scenarios.SliceSource(oneTick)
			opts := []scenarios.EngineOption{scenarios.WithWorkers(w.workers), scenarios.WithRetention(w.retention())}
			if w.http {
				// The worker server's engine: one per shard request.
				src = scenarios.ShardSource(src, shard, w.shards)
				opts = append(opts, scenarios.WithResultCache())
			}
			e := scenarios.NewEngine(opts...)
			if err := e.Stream(context.Background(), src, scenarios.SinkFunc(func(scenarios.StreamResult) error { return nil })); err != nil {
				return 0, err
			}
			g, l := e.GroupStats(), e.LaneStats()
			gs.Groups, gs.Jobs, gs.Sims = gs.Groups+g.Groups, gs.Jobs+g.Jobs, gs.Sims+g.Sims
			ls.Batches, ls.Lanes, ls.Ragged = ls.Batches+l.Batches, ls.Lanes+l.Lanes, ls.Ragged+l.Ragged
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(len(oneTick)), nil
	})
	if err != nil {
		return fmt.Errorf("dispatch probe: %w", err)
	}
	rep.set("scenarios.dispatch_us_per_job", v, "us")
	rep.set("scenarios.sims_per_job", float64(gs.Sims)/float64(gs.Jobs), "count")
	rep.set("scenarios.lane_fill", ls.MeanWidth(), "lanes")
	rep.set("scenarios.ragged_share", float64(ls.Ragged)/float64(ls.Batches+ls.Ragged), "share")

	if err := t.httpProbe(oneTick, rep); err != nil {
		return fmt.Errorf("http probe: %w", err)
	}
	return t.wireProbes(budget, done, rep)
}

// httpProbe runs the one-tick jobs through the coordinator over a counting
// HTTPTransport to a loopback worker server, three times.
func (t *tracer) httpProbe(jobs []scenarios.Job, rep *report) error {
	srv, err := startWorkerServer(jobs, hugeWorkers)
	if err != nil {
		return err
	}
	defer srv.close()
	var firsts []float64
	var starts, shards int
	for i := 0; i < minProbe; i++ {
		ct := &countingTransport{inner: srv.transport()}
		coord, err := dist.New(dist.Options{Workers: httpShards, Transport: ct})
		if err != nil {
			return err
		}
		if _, err := coord.Run(context.Background(), scenarios.SliceSource(jobs), scenarios.SinkFunc(func(scenarios.StreamResult) error { return nil })); err != nil {
			return err
		}
		firsts = append(firsts, ct.firstLines()...)
		starts += ct.startCount()
		shards += httpShards
	}
	rep.set("dist.shard_first_line_ms", median(firsts), "ms")
	rep.set("dist.attempts_per_shard", float64(starts)/float64(shards), "count")
	return nil
}

// wireProbes times RunReport encode and ParseResultLine over the replayed
// results, and Coordinator.Run over a canned transport that serves the same
// lines, with no simulation.
func (t *tracer) wireProbes(budget time.Duration, done []replayed, rep *report) error {
	var srs []scenarios.StreamResult
	for _, r := range done {
		srs = append(srs, r.results...)
	}
	sort.Slice(srs, func(i, j int) bool { return srs[i].Index < srs[j].Index })
	n := float64(len(srs))
	lines := make([][]byte, len(srs))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	v, err := repeat(budget, func() (float64, error) {
		t0 := nanotime()
		for i, sr := range srs {
			buf.Reset()
			if err := enc.Encode(dist.NewRunReport(sr)); err != nil {
				return 0, err
			}
			lines[i] = bytes.Clone(buf.Bytes())
		}
		return float64(nanotime()-t0) / 1e3 / n, nil
	})
	if err != nil {
		return err
	}
	rep.set("dist.encode_us_per_result", v, "us")

	v, err = repeat(budget, func() (float64, error) {
		t0 := nanotime()
		for _, line := range lines {
			if _, ok, err := dist.ParseResultLine(line); err != nil || !ok {
				return 0, fmt.Errorf("decoding %q: ok=%v err=%v", line, ok, err)
			}
		}
		return float64(nanotime()-t0) / 1e3 / n, nil
	})
	if err != nil {
		return err
	}
	rep.set("dist.decode_us_per_result", v, "us")

	// Canned shard streams: each shard's lines in source order, then its
	// aggregate trailer, as a worker would send them.
	jobs := make([]scenarios.Job, len(srs))
	shardBytes := make([][]byte, httpShards)
	accs := make([]scenarios.Accumulator, httpShards)
	for i, sr := range srs {
		jobs[i] = sr.Job
		k := sr.Job.Shard(httpShards)
		shardBytes[k] = append(shardBytes[k], lines[i]...)
		accs[k].Add(sr.Result)
	}
	for k := range shardBytes {
		buf.Reset()
		if err := enc.Encode(dist.NewAggregateReport(&accs[k])); err != nil {
			return err
		}
		shardBytes[k] = append(shardBytes[k], buf.Bytes()...)
	}
	var wireBytes int64
	merged := make([]scenarios.StreamResult, 0, len(srs))
	v, err = repeat(budget, func() (float64, error) {
		ct := &countingTransport{inner: cannedTransport(shardBytes)}
		coord, err := dist.New(dist.Options{Workers: httpShards, Transport: ct})
		if err != nil {
			return 0, err
		}
		merged = merged[:0]
		t0 := nanotime()
		if _, err := coord.Run(context.Background(), scenarios.SliceSource(jobs), scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
			merged = append(merged, sr)
			return nil
		})); err != nil {
			return 0, err
		}
		wireBytes = ct.byteCount()
		return float64(nanotime()-t0) / 1e3 / n, nil
	})
	if err != nil {
		return err
	}
	rep.set("dist.merge_us_per_result", v, "us")
	rep.set("dist.wire_bytes_per_result", float64(wireBytes)/n, "bytes")
	for i, sr := range srs {
		buf.Reset()
		if i >= len(merged) || enc.Encode(dist.NewRunReport(merged[i])) != nil || !bytes.Equal(buf.Bytes(), lines[i]) {
			t.failed[sr.Index] = true
		}
	}
	return nil
}

// cannedTransport serves fixed NDJSON bytes per shard: a worker with no
// simulation behind it.
type cannedTransport [][]byte

func (c cannedTransport) Start(_ context.Context, spec dist.ShardSpec) (dist.Worker, error) {
	return cannedWorker{bytes.NewReader(c[spec.Index])}, nil
}

type cannedWorker struct{ r *bytes.Reader }

func (w cannedWorker) Output() io.Reader { return w.r }
func (w cannedWorker) Wait() error       { return nil }
func (w cannedWorker) Kill() error       { return nil }

// countingTransport wraps a transport and counts attempts, bytes read from
// every worker's output, and each worker's time from Start to its first
// output byte.
type countingTransport struct {
	inner dist.Transport

	mu     sync.Mutex
	starts int
	bytes  int64
	firsts []float64 // ms
}

func (c *countingTransport) Start(ctx context.Context, spec dist.ShardSpec) (dist.Worker, error) {
	begin := time.Now()
	w, err := c.inner.Start(ctx, spec)
	c.mu.Lock()
	c.starts++
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &countingWorker{Worker: w, t: c, begin: begin}, nil
}

func (c *countingTransport) startCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.starts
}

func (c *countingTransport) byteCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *countingTransport) firstLines() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.firsts...)
}

type countingWorker struct {
	dist.Worker
	t     *countingTransport
	begin time.Time
	seen  bool // only the coordinator's reader goroutine touches it
}

func (w *countingWorker) Output() io.Reader { return w }

// Read implements io.Reader over the wrapped worker's output.
func (w *countingWorker) Read(p []byte) (int, error) {
	n, err := w.Worker.Output().Read(p)
	if n > 0 {
		w.t.mu.Lock()
		w.t.bytes += int64(n)
		if !w.seen {
			w.seen = true
			w.t.firsts = append(w.t.firsts, float64(time.Since(w.begin))/millis)
		}
		w.t.mu.Unlock()
	}
	return n, err
}

// writeSpans writes the environment record and every span, one JSON object
// per line, to the run's span file.
func writeSpans(cfg config, env envRecord, spans []span) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
