package scenarios

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/vehicle"
)

// Family derives parameterized variants of a base scenario.  Each non-empty
// axis replaces the corresponding base field; the variants are the cartesian
// product of all axes.  An empty axis keeps the base value, so the zero
// Family yields exactly the base scenario under default options.
//
// Families widen the thesis' ten fixed scenarios into a scenario space: the
// same defect set and driver schedule evaluated across a grid of initial
// conditions, which is the kind of evidence an emergent-safety claim needs —
// behaviour across many interconnected configurations, not one.
type Family struct {
	// Base is the scenario the variants are derived from.
	Base Scenario
	// InitialSpeeds enumerates host start speeds in m/s.
	InitialSpeeds []float64
	// ObjectDistances enumerates target-vehicle placements in m (negative
	// for objects behind the host).
	ObjectDistances []float64
	// ObjectSpeeds enumerates target-vehicle speeds in m/s.
	ObjectSpeeds []float64
	// Gears enumerates transmission gears ("D" or "R").
	Gears []string
	// OptionSets enumerates run options (e.g. seeded defects in place
	// versus the corrected ablation).
	OptionSets []Options
	// Tolerances enumerates hit-matching windows in states (see
	// Options.MatchTolerance; 0 selects the default of 150).  The axis
	// cross-products with OptionSets, overriding each option set's
	// MatchTolerance, so one sweep can measure how the hit /
	// false-negative / false-positive classification shifts with the
	// assumed inter-level observation and actuation delays.
	Tolerances []int
	// DefectSets enumerates per-feature defect-correction subsets (see
	// Options.Defects).  Like Tolerances it cross-products with OptionSets,
	// overriding each option set's Defects, so one sweep can attribute the
	// violation structure to individual subsystems rather than only the
	// all-or-nothing CorrectDefects ablation.
	DefectSets []DefectSet
	// Drivers enumerates driver/HMI input schedules replacing the base
	// scenario's Driver — e.g. time-shifted or pruned perturbations of the
	// original schedule (see ShiftSchedule).
	Drivers [][]vehicle.DriverAction
}

// Size returns the number of variants the family generates.
func (f Family) Size() int {
	n := 1
	for _, axis := range []int{
		len(f.InitialSpeeds), len(f.ObjectDistances), len(f.ObjectSpeeds),
		len(f.Gears), len(f.OptionSets), len(f.Tolerances),
		len(f.DefectSets), len(f.Drivers),
	} {
		if axis > 0 {
			n *= axis
		}
	}
	return n
}

// familyAxes is the resolved form of a Family: every axis substituted with
// its effective values, placeholders standing in for empty axes.
type familyAxes struct {
	speeds, distances, objSpeeds []float64
	gears                        []string
	optionSets                   []Options
	tolerances                   []int
	// defectSets entries override the option set's Defects; a nil entry (the
	// empty-axis placeholder) keeps it.  A pointer is needed because the zero
	// DefectSet is itself meaningful ("correct nothing").
	defectSets []*DefectSet
	// drivers holds indices into Family.Drivers; -1 (the empty-axis
	// placeholder) keeps the base schedule.
	drivers []int
}

// axes resolves every axis to its effective values, substituting the base
// value for empty axes.
func (f Family) axes() familyAxes {
	a := familyAxes{
		speeds:     f.InitialSpeeds,
		distances:  f.ObjectDistances,
		objSpeeds:  f.ObjectSpeeds,
		gears:      f.Gears,
		optionSets: f.OptionSets,
		tolerances: f.Tolerances,
	}
	if len(a.speeds) == 0 {
		a.speeds = []float64{f.Base.InitialSpeed}
	}
	if len(a.distances) == 0 {
		a.distances = []float64{f.Base.ObjectDistance}
	}
	if len(a.objSpeeds) == 0 {
		a.objSpeeds = []float64{f.Base.ObjectSpeed}
	}
	if len(a.gears) == 0 {
		a.gears = []string{f.Base.Gear}
	}
	if len(a.optionSets) == 0 {
		a.optionSets = []Options{{}}
	}
	if len(a.tolerances) == 0 {
		a.tolerances = []int{0}
	}
	if len(f.DefectSets) == 0 {
		a.defectSets = []*DefectSet{nil}
	} else {
		a.defectSets = make([]*DefectSet, len(f.DefectSets))
		for i := range f.DefectSets {
			a.defectSets[i] = &f.DefectSets[i]
		}
	}
	if len(f.Drivers) == 0 {
		a.drivers = []int{-1}
	} else {
		a.drivers = make([]int, len(f.Drivers))
		for i := range a.drivers {
			a.drivers[i] = i
		}
	}
	return a
}

// variantName builds the variant identifier for one parameter assignment.
// It runs once per variant in the sweep-setup hot path, so it is built with
// strconv and a strings.Builder rather than fmt.  The options label covers
// every Options field, so option sets differing in any field never collide;
// the driver-schedule index appears only when the family sweeps schedules.
func variantName(base string, speed, dist, objSpeed float64, gear string, driver int, opts Options) string {
	var b strings.Builder
	b.Grow(len(base) + len(gear) + 80)
	b.WriteString(base)
	b.WriteString("/speed=")
	b.WriteString(strconv.FormatFloat(speed, 'g', -1, 64))
	b.WriteString(",dist=")
	b.WriteString(strconv.FormatFloat(dist, 'g', -1, 64))
	b.WriteString(",objspeed=")
	b.WriteString(strconv.FormatFloat(objSpeed, 'g', -1, 64))
	b.WriteString(",gear=")
	b.WriteString(gear)
	if driver >= 0 {
		b.WriteString(",driver=")
		b.WriteString(strconv.Itoa(driver))
	}
	b.WriteByte(',')
	b.WriteString(opts.Label())
	return b.String()
}

// variantAt materializes the variant for one axis-index assignment.  A
// positive tolerance overrides the option set's MatchTolerance; zero (the
// placeholder of an empty Tolerances axis) keeps it.  A non-nil defect set
// overrides the option set's Defects, and a non-negative driver index
// replaces the base driver schedule.
func (f Family) variantAt(speed, dist, objSpeed float64, gear string, opts Options, tol int, defects *DefectSet, driver int) Job {
	if tol > 0 {
		opts.MatchTolerance = tol
	}
	if defects != nil {
		opts.Defects = *defects
	}
	sc := f.Base
	sc.InitialSpeed = speed
	sc.ObjectDistance = dist
	sc.ObjectSpeed = objSpeed
	sc.Gear = gear
	if driver >= 0 {
		sc.Driver = f.Drivers[driver]
	}
	sc.Name = variantName(f.Base.Name, speed, dist, objSpeed, gear, driver, opts)
	return Job{Scenario: sc, Options: opts}
}

// Variants expands the family into concrete jobs.  Variant names extend the
// base name with the parameter assignment so every job in a sweep is
// identifiable in reports and JSON output.  Large grids should prefer
// Source, which yields the same jobs in the same order without materializing
// the slice.
func (f Family) Variants() []Job {
	jobs := make([]Job, 0, f.Size())
	src := f.Source()
	for {
		j, ok := src.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// Source returns a lazy generator over the family's cartesian product,
// yielding the same jobs in the same order as Variants.  Each variant is
// built on demand — an odometer over the axis indices — so a sweep of any
// size holds O(1) jobs in memory.
func (f Family) Source() JobSource {
	a := f.axes()
	// idx is the odometer, least-significant axis last (matching the
	// nesting order of the original expansion loop).
	var idx [8]int
	dims := [8]int{
		len(a.speeds), len(a.distances), len(a.objSpeeds), len(a.gears),
		len(a.optionSets), len(a.tolerances), len(a.defectSets), len(a.drivers),
	}
	done := false
	return SourceFunc(func() (Job, bool) {
		if done {
			return Job{}, false
		}
		j := f.variantAt(
			a.speeds[idx[0]], a.distances[idx[1]], a.objSpeeds[idx[2]],
			a.gears[idx[3]], a.optionSets[idx[4]], a.tolerances[idx[5]],
			a.defectSets[idx[6]], a.drivers[idx[7]],
		)
		for axis := len(idx) - 1; ; axis-- {
			idx[axis]++
			if idx[axis] < dims[axis] {
				break
			}
			idx[axis] = 0
			if axis == 0 {
				done = true
				break
			}
		}
		return j, true
	})
}

// Sweep is a batch of families evaluated together.
type Sweep struct {
	// Families are the scenario families to expand.
	Families []Family
}

// Size returns the total number of variants across all families.  The count
// is exact: Size() == len(Jobs()) and Source yields exactly Size() jobs,
// whatever mix of empty and partial axes the families use.
func (s Sweep) Size() int {
	n := 0
	for _, f := range s.Families {
		n += f.Size()
	}
	return n
}

// Jobs expands every family, in family order.  Large sweeps should prefer
// Source, which yields the same jobs in the same order lazily.
func (s Sweep) Jobs() []Job {
	jobs := make([]Job, 0, s.Size())
	for _, f := range s.Families {
		jobs = append(jobs, f.Variants()...)
	}
	return jobs
}

// Source returns a lazy generator over every family, in family order,
// yielding the same jobs in the same order as Jobs without materializing
// them.
func (s Sweep) Source() JobSource {
	srcs := make([]JobSource, len(s.Families))
	for i, f := range s.Families {
		srcs[i] = f.Source()
	}
	return ConcatSources(srcs...)
}

// SweepResult is the cross-variant aggregate outcome of one sweep.
type SweepResult struct {
	// Aggregate is the hit / false-negative / false-positive classification
	// summed over every variant — the sweep-level empirical estimate of the
	// residual emergence X and Y of thesis §3.4.
	Aggregate monitor.Summary
	// Collisions counts variants that terminated early on a collision.
	Collisions int
	// EarlyTerminations counts variants that stopped before their
	// scheduled duration.
	EarlyTerminations int
}

// DefaultSweep derives the standard evaluation sweep from the ten thesis
// scenarios: for each base scenario a grid of three initial speeds, two
// object distances and both defect configurations — 120 monitored runs that
// bracket the thesis' ten.
//
// Speed offsets are additive so reverse-gear scenarios (which start at rest)
// stay meaningful; distances are scaled so objects stay on the same side of
// the host.
func DefaultSweep() Sweep {
	bases := Scenarios()
	families := make([]Family, 0, len(bases))
	for _, base := range bases {
		families = append(families, Family{
			Base: base,
			InitialSpeeds: []float64{
				base.InitialSpeed,
				base.InitialSpeed + 1,
				base.InitialSpeed + 2,
			},
			ObjectDistances: []float64{
				base.ObjectDistance,
				base.ObjectDistance * 0.8,
			},
			OptionSets: []Options{{}, {CorrectDefects: true}},
		})
	}
	return Sweep{Families: families}
}

// WideSweep widens DefaultSweep with an object-speed axis: each base
// scenario's object is also evaluated moving away from and toward the host —
// 360 variants.
func WideSweep() Sweep {
	sw := DefaultSweep()
	for i := range sw.Families {
		base := sw.Families[i].Base
		sw.Families[i].ObjectSpeeds = []float64{
			base.ObjectSpeed,
			base.ObjectSpeed + 1,
			base.ObjectSpeed - 1,
		}
	}
	return sw
}

// HugeSweep widens WideSweep further with a fourth initial speed, a third
// object distance and — where it is meaningful — the gear axis: 4×3×3×2
// variants per base scenario, doubled to 144 for scenarios whose driver
// schedule does not immediately override the starting gear (the reverse
// scenarios select "R" at t=0, so a gear axis there would only duplicate
// runs).  1296 variants in total.  It exists to exercise the streaming
// Engine at a scale where materializing jobs or retaining traces would be
// prohibitive; run it with Sweep.Source and SummaryOnly retention.
func HugeSweep() Sweep {
	sw := WideSweep()
	for i := range sw.Families {
		base := sw.Families[i].Base
		sw.Families[i].InitialSpeeds = append(sw.Families[i].InitialSpeeds, base.InitialSpeed+4)
		sw.Families[i].ObjectDistances = append(sw.Families[i].ObjectDistances, base.ObjectDistance*1.2)
		if !setsGearAtStart(base) {
			sw.Families[i].Gears = []string{"D", "R"}
		}
	}
	return sw
}

// setsGearAtStart reports whether the scenario's driver schedule selects a
// gear at t=0, which would override any value a Gears axis assigns.
func setsGearAtStart(sc Scenario) bool {
	for _, a := range sc.Driver {
		if a.At == 0 && a.Gear != nil {
			return true
		}
	}
	return false
}

// ToleranceSweep varies the hit-matching window across the ten thesis
// scenarios: the seeded-defect configuration evaluated at a tight (50
// states), the default (150) and a loose (450) matching tolerance — 30
// variants probing how sensitive the hit / false-negative / false-positive
// classification is to the assumed observation and actuation delays between
// hierarchy levels.
func ToleranceSweep() Sweep {
	bases := Scenarios()
	families := make([]Family, 0, len(bases))
	for _, base := range bases {
		families = append(families, Family{
			Base:       base,
			Tolerances: []int{50, matchTolerance, 450},
		})
	}
	return Sweep{Families: families}
}

// ShiftSchedule returns a copy of a driver schedule with every action time
// shifted by delta (clamped at zero), for building driver-perturbation axes:
// the same inputs arriving earlier or later probe how sensitive the observed
// violation structure is to input timing relative to the seeded defects.
func ShiftSchedule(schedule []vehicle.DriverAction, delta time.Duration) []vehicle.DriverAction {
	out := make([]vehicle.DriverAction, len(schedule))
	copy(out, schedule)
	for i := range out {
		out[i].At += delta
		if out[i].At < 0 {
			out[i].At = 0
		}
	}
	return out
}

// DefectSweep evaluates per-feature defect subsets across the ten thesis
// scenarios: each scenario runs with all defects seeded and with each
// subsystem's defects corrected in isolation (CA, RCA, ACC, PA, Arbiter),
// under both the original driver schedule and a 250 ms-delayed perturbation
// of it — 120 variants attributing the hit / false-negative / false-positive
// structure to individual subsystems rather than the all-or-nothing
// CorrectDefects ablation.
func DefectSweep() Sweep {
	sets := []DefectSet{
		{},
		{CorrectCA: true},
		{CorrectRCA: true},
		{CorrectACC: true},
		{CorrectPA: true},
		{CorrectArbiter: true},
	}
	bases := Scenarios()
	families := make([]Family, 0, len(bases))
	for _, base := range bases {
		families = append(families, Family{
			Base:       base,
			DefectSets: sets,
			Drivers: [][]vehicle.DriverAction{
				base.Driver,
				ShiftSchedule(base.Driver, 250*time.Millisecond),
			},
		})
	}
	return Sweep{Families: families}
}

// SweepBySize returns the named sweep preset: "default" (120 variants),
// "wide" (360), "huge" (1296), "tolerance" (30, varying the hit-matching
// window) or "defects" (120, per-feature defect subsets under perturbed
// driver schedules).
func SweepBySize(name string) (Sweep, error) {
	switch name {
	case "", "default":
		return DefaultSweep(), nil
	case "wide":
		return WideSweep(), nil
	case "huge":
		return HugeSweep(), nil
	case "tolerance":
		return ToleranceSweep(), nil
	case "defects":
		return DefectSweep(), nil
	default:
		return Sweep{}, fmt.Errorf("unknown sweep size %q (want default, wide, huge, tolerance or defects)", name)
	}
}

// SweepSourceFor resolves the shared CLI sweep selection — a preset size,
// an optional single-family narrowing by thesis scenario number, and the
// optional corrected-only ablation — into a re-enumerable job source.
// cmd/scenarios, cmd/sweepd and cmd/sweepworker all build their grids
// through this one function: a distributed coordinator and its workers
// agree on the job stream exactly because they run the same selection
// through the same code, with no coordination protocol.
func SweepSourceFor(size string, number int, corrected bool) (func() JobSource, error) {
	sw, err := SweepBySize(size)
	if err != nil {
		return nil, err
	}
	if corrected {
		// Narrow to the ablation configuration instead of the preset's
		// seeded+corrected pairing.  CorrectDefects overrides every defect
		// subset, so a defect axis would only repeat the same evaluation.
		for i := range sw.Families {
			sw.Families[i].OptionSets = []Options{{CorrectDefects: true}}
			sw.Families[i].DefectSets = nil
		}
	}
	if number != 0 {
		var kept []Family
		for _, f := range sw.Families {
			if f.Base.Number == number {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("no scenario numbered %d", number)
		}
		sw.Families = kept
	}
	return sw.Source, nil
}
