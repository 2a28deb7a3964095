package scenarios

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vehicle"
)

// flipField mutates one reflect-addressable field to a distinct value,
// returning false for kinds the table does not cover.  Slices (the driver
// schedule) grow by one zero element, which adds an action to their key
// encoding.
func flipField(fv reflect.Value) bool {
	switch fv.Kind() {
	case reflect.Bool:
		fv.SetBool(!fv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fv.SetInt(fv.Int() + 1)
	case reflect.Float32, reflect.Float64:
		fv.SetFloat(fv.Float() + 1)
	case reflect.String:
		fv.SetString(fv.String() + "x")
	case reflect.Slice:
		fv.Set(reflect.Append(fv, reflect.Zero(fv.Type().Elem())))
	default:
		return false
	}
	return true
}

// checkKeys asserts how a mutated job's keys moved relative to the base job
// for the declared field class: dynamics fields must change DynamicsKey and
// leave MonitorKey alone, monitor fields the inverse, identity fields
// neither.
func checkKeys(t *testing.T, where string, class fieldClass, base, mod Job) {
	t.Helper()
	dynChanged := mod.DynamicsKey() != base.DynamicsKey()
	monChanged := mod.MonitorKey() != base.MonitorKey()
	switch class {
	case dynamicsField:
		if !dynChanged {
			t.Errorf("%s: classified dynamics but DynamicsKey ignores it (key %q)", where, base.DynamicsKey())
		}
		if monChanged {
			t.Errorf("%s: classified dynamics but flipping it changed MonitorKey", where)
		}
	case monitorField:
		if dynChanged {
			t.Errorf("%s: classified monitor-only but flipping it changed DynamicsKey", where)
		}
		if !monChanged {
			t.Errorf("%s: classified monitor-only but MonitorKey ignores it (key %q)", where, base.MonitorKey())
		}
	case identityField:
		if dynChanged || monChanged {
			t.Errorf("%s: classified identity/metadata but flipping it changed a key (dynamics %v, monitor %v)",
				where, dynChanged, monChanged)
		}
	default:
		t.Errorf("%s: unknown field class %d", where, class)
	}
}

// TestScenarioFieldsClassified walks every Scenario field by reflection and
// asserts it is classified in scenarioFieldClass AND that the keys respect
// the classification.  A scenario parameter added without a classification —
// or classified dynamics but forgotten in DynamicsKey — fails here instead of
// silently grouping jobs whose trajectories differ.
func TestScenarioFieldsClassified(t *testing.T) {
	base := Job{Scenario: Scenario{
		Number:       7,
		Name:         "base",
		Duration:     2 * time.Second,
		InitialSpeed: 8,
		Gear:         "D",
		Driver:       []vehicle.DriverAction{{At: time.Second}},
	}}
	rt := reflect.TypeOf(base.Scenario)
	if len(scenarioFieldClass) != rt.NumField() {
		t.Errorf("scenarioFieldClass has %d entries for %d Scenario fields: remove stale entries",
			len(scenarioFieldClass), rt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		class, ok := scenarioFieldClass[name]
		if !ok {
			t.Errorf("Scenario field %s is not classified in scenarioFieldClass: decide whether it affects the simulated trajectory", name)
			continue
		}
		mod := base
		fv := reflect.ValueOf(&mod.Scenario).Elem().Field(i)
		if !flipField(fv) {
			t.Fatalf("Scenario field %s has kind %s: extend flipField", name, fv.Kind())
		}
		checkKeys(t, "Scenario."+name, class, base, mod)
	}
}

// TestOptionsFieldsClassified is the Options counterpart: every field must be
// classified dynamics vs monitor-only, and the keys must respect the split.
// Struct-valued options (Defects) are flipped per leaf field.
func TestOptionsFieldsClassified(t *testing.T) {
	base := Job{Scenario: Scenario{Name: "base", Duration: 2 * time.Second}}
	rt := reflect.TypeOf(base.Options)
	if len(optionsFieldClass) != rt.NumField() {
		t.Errorf("optionsFieldClass has %d entries for %d Options fields: remove stale entries",
			len(optionsFieldClass), rt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		class, ok := optionsFieldClass[name]
		if !ok {
			t.Errorf("Options field %s is not classified in optionsFieldClass: decide whether it affects the simulated trajectory", name)
			continue
		}
		mod := base
		fv := reflect.ValueOf(&mod.Options).Elem().Field(i)
		if fv.Kind() == reflect.Struct {
			for j := 0; j < fv.NumField(); j++ {
				sub := base
				sv := reflect.ValueOf(&sub.Options).Elem().Field(i).Field(j)
				if !flipField(sv) {
					t.Fatalf("Options field %s.%s has kind %s: extend flipField",
						name, fv.Type().Field(j).Name, sv.Kind())
				}
				checkKeys(t, "Options."+name+"."+fv.Type().Field(j).Name, class, base, sub)
			}
			continue
		}
		if !flipField(fv) {
			t.Fatalf("Options field %s has kind %s: extend flipField", name, fv.Kind())
		}
		checkKeys(t, "Options."+name, class, base, mod)
	}
}

// TestDynamicsKeyCanonical pins the canonicalizations DynamicsKey promises:
// naming metadata is excluded, a zero duration equals the default duration
// explicitly spelled out, and CorrectDefects equals the equivalent explicit
// DefectSet.
func TestDynamicsKeyCanonical(t *testing.T) {
	sc, ok := ScenarioByNumber(7)
	if !ok {
		t.Fatal("scenario 7 missing")
	}
	base := Job{Scenario: sc}

	renamed := base
	renamed.Scenario.Name = "renamed"
	renamed.Scenario.Number = 99
	renamed.Scenario.Description = "different words"
	if renamed.DynamicsKey() != base.DynamicsKey() {
		t.Error("scenario naming metadata leaked into DynamicsKey")
	}

	zero, def := base, base
	zero.Scenario.Duration = 0
	def.Scenario.Duration = DefaultDuration
	if zero.DynamicsKey() != def.DynamicsKey() {
		t.Errorf("zero duration and DefaultDuration produce different DynamicsKeys:\n%q\n%q",
			zero.DynamicsKey(), def.DynamicsKey())
	}

	flag, explicit := base, base
	flag.Options.CorrectDefects = true
	explicit.Options.Defects = AllDefectsCorrected
	if flag.DynamicsKey() != explicit.DynamicsKey() {
		t.Error("CorrectDefects and the equivalent explicit DefectSet produce different DynamicsKeys")
	}

	zeroTol, defTol := base, base
	zeroTol.Options.MatchTolerance = 0
	defTol.Options.MatchTolerance = matchTolerance
	if zeroTol.MonitorKey() != defTol.MonitorKey() {
		t.Errorf("zero MatchTolerance and the explicit default produce different MonitorKeys: %q vs %q",
			zeroTol.MonitorKey(), defTol.MonitorKey())
	}
}

// TestToleranceVariantsShareDynamics asserts the identity split on the sweep
// the grouped path exists for: every tolerance-axis variant of one family
// shares its siblings' DynamicsKey while keeping a distinct MonitorKey and a
// distinct Job.Key — groupable for simulation, still individually identified
// for sharding, caching and dedup.
func TestToleranceVariantsShareDynamics(t *testing.T) {
	for _, f := range ToleranceSweep().Families {
		jobs := f.Variants()
		if len(jobs) != 3 {
			t.Fatalf("family %q: %d variants, want 3", f.Base.Name, len(jobs))
		}
		seenMon := make(map[string]bool)
		seenKey := make(map[string]bool)
		for _, j := range jobs {
			if got, want := j.DynamicsKey(), jobs[0].DynamicsKey(); got != want {
				t.Errorf("family %q: tolerance variant split the DynamicsKey:\n%q\n%q", f.Base.Name, got, want)
			}
			if seenMon[j.MonitorKey()] {
				t.Errorf("family %q: duplicate MonitorKey %q", f.Base.Name, j.MonitorKey())
			}
			seenMon[j.MonitorKey()] = true
			if seenKey[j.Key()] {
				t.Errorf("family %q: duplicate Job.Key %q", f.Base.Name, j.Key())
			}
			seenKey[j.Key()] = true
		}
	}
}

// TestDriverActionFieldsKeyed is the DriverAction counterpart of
// TestScenarioFieldsClassified: DynamicsKey encodes the schedule by hand, so
// a field added to vehicle.DriverAction and left out of appendDriverAction
// would silently group jobs whose trajectories differ.  Every field, set on
// its own, must change the key, and a set pointer field must change it again
// when its value changes; the single-field keys must all differ, so no two
// fields share an encoding.
func TestDriverActionFieldsKeyed(t *testing.T) {
	withAction := func(a vehicle.DriverAction) Job {
		return Job{Scenario: Scenario{Name: "base", Gear: "D", Driver: []vehicle.DriverAction{a}}}
	}
	base := withAction(vehicle.DriverAction{}).DynamicsKey()
	seen := map[string]string{base: "no field"}
	rt := reflect.TypeOf(vehicle.DriverAction{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		var a vehicle.DriverAction
		fv := reflect.ValueOf(&a).Elem().Field(i)
		if fv.Kind() == reflect.Pointer {
			fv.Set(reflect.New(fv.Type().Elem()))
			set := withAction(a).DynamicsKey()
			if prev, dup := seen[set]; dup {
				t.Errorf("DriverAction.%s set to its zero value keys like %s: %q", name, prev, set)
			}
			seen[set] = name
			fv = fv.Elem()
			name += " (value)"
		}
		if !flipField(fv) {
			t.Fatalf("DriverAction.%s has kind %s: extend flipField", name, fv.Kind())
		}
		key := withAction(a).DynamicsKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("DriverAction.%s keys like %s: %q", name, prev, key)
		}
		seen[key] = name
	}
}

// jsonDynamicsKey is the reference DynamicsKey: the encoding the key had
// before the schedule was hand-encoded, with the schedule embedded as its
// encoding/json form.  It cannot key a non-finite schedule value.
func jsonDynamicsKey(t *testing.T, j Job) string {
	t.Helper()
	sc := j.Scenario
	sched, err := json.Marshal(sc.Driver)
	if err != nil {
		t.Fatal(err)
	}
	return "dur=" + strconv.FormatInt(int64(sc.ScheduledDuration()), 10) +
		"|speed=" + strconv.FormatFloat(sc.InitialSpeed, 'g', -1, 64) +
		"|gear=" + sc.Gear +
		"|objdist=" + strconv.FormatFloat(sc.ObjectDistance, 'g', -1, 64) +
		"|objspeed=" + strconv.FormatFloat(sc.ObjectSpeed, 'g', -1, 64) +
		"|acccheck=" + strconv.FormatBool(sc.ACCDirectionCheck) +
		"|fixed=" + string(j.Options.defects().appendLabel(nil)) +
		"|driver=" + string(sched)
}

// TestDynamicsKeyMatchesJSONReference checks the hand-written key against
// the encoding/json reference over every sweep preset plus copies of the
// default sweep with shifted schedules (clamping at zero makes some shifts
// collide): two jobs share the hand-written key exactly when they share the
// reference key, so grouping is unchanged.
func TestDynamicsKeyMatchesJSONReference(t *testing.T) {
	var jobs []Job
	for _, sw := range []Sweep{DefaultSweep(), WideSweep(), HugeSweep(), DefectSweep(), ToleranceSweep()} {
		jobs = append(jobs, sw.Jobs()...)
	}
	for _, j := range DefaultSweep().Jobs() {
		for _, d := range []time.Duration{-3 * time.Second, -time.Nanosecond, time.Nanosecond, 250 * time.Millisecond} {
			j.Scenario.Driver = ShiftSchedule(j.Scenario.Driver, d)
			jobs = append(jobs, j)
		}
	}
	byRef := make(map[string]string)
	byKey := make(map[string]string)
	for _, j := range jobs {
		ref, key := jsonDynamicsKey(t, j), j.DynamicsKey()
		if k, ok := byRef[ref]; ok && k != key {
			t.Fatalf("jobs sharing reference key %q split into %q and %q", ref, k, key)
		}
		if r, ok := byKey[key]; ok && r != ref {
			t.Fatalf("jobs with reference keys %q and %q share key %q", r, ref, key)
		}
		byRef[ref], byKey[key] = key, ref
	}
	if len(byKey) < 2 {
		t.Fatalf("only %d distinct keys over %d jobs", len(byKey), len(jobs))
	}
}

// TestNonFiniteScheduleGroups runs grouped jobs whose schedule commands a
// NaN or infinite level.  The key used to embed the schedule's encoding/json
// form, which fails on such values, and the panic in the dispatcher
// goroutine killed the process; the hand encoding keys them like any value.
func TestNonFiniteScheduleGroups(t *testing.T) {
	sc, ok := ScenarioByNumber(1)
	if !ok {
		t.Fatal("scenario 1 missing")
	}
	sc.Duration = 20 * time.Millisecond
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc.Driver = []vehicle.DriverAction{{Throttle: vehicle.Level(v)}}
		a, b := Job{Scenario: sc}, Job{Scenario: sc, Options: Options{MatchTolerance: 50}}
		if a.DynamicsKey() != b.DynamicsKey() || !strings.Contains(a.DynamicsKey(), "@0T") {
			t.Errorf("throttle %v: keys %q and %q, want one key with the throttle", v, a.DynamicsKey(), b.DynamicsKey())
		}
		e := NewEngine(WithWorkers(1), WithRetention(SummaryOnly))
		acc, err := e.Accumulate(context.Background(), SliceSource([]Job{a, b}))
		if err != nil || acc.Runs() != 2 {
			t.Fatalf("throttle %v: %v", v, err)
		}
		if gs := e.GroupStats(); gs.Jobs != 2 || gs.Sims != 1 {
			t.Errorf("throttle %v: group stats %+v, want 2 jobs in 1 simulation", v, gs)
		}
	}
}
