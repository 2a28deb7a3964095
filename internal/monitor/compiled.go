package monitor

import (
	"time"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// GoalAt pairs a goal with the hierarchy location it is monitored at — the
// cell coordinates of the thesis' Table 5.3 monitoring matrix.
type GoalAt struct {
	// Goal is the monitored goal.
	Goal goals.Goal
	// Location is the monitoring location (e.g. "Vehicle", "Arbiter", "CA").
	Location string
}

// CompiledSuite is a monitor suite whose goal formulas are all compiled into
// one shared temporal.Program: every state is evaluated in a single pass over
// the program's hash-consed node array (each shared atom and subformula read
// once), and the per-formula verdicts feed the same interval recorders,
// Hierarchy matching and Classify machinery a per-monitor Suite uses.  The
// detections, summaries and reports are identical to a Suite built from
// individual NewReference monitors over the same plan; only the evaluation
// cost per state changes.
//
// It is a LaneSuite of width 1 observing scalar states: one evaluator and one
// interval recorder serve both.  The plan is lowered to its lane tables on
// the first Observe or Reset, so building a suite costs only the formula
// compilation; AddHierarchy after that is an error.
//
// A CompiledSuite is reusable: Reset clears the program's operator state and
// every recorder, so a sweep worker compiles the suite once and monitors run
// after run with it instead of rebuilding 30+ evaluators per variant.  Like
// the monitors it replaces, it is not safe for concurrent use.
type CompiledSuite struct {
	lanes *LaneSuite
}

// NewCompiledSuite returns an empty compiled suite.  The period converts
// bounded-past operator durations (non-positive defaults to 1 ms); a non-nil
// schema resolves every goal atom to its register slot at compile time.  A
// nil schema (or a state over another schema) rebinds the atoms on the
// first observation of that schema, so per-state NewState schemas work too.
func NewCompiledSuite(period time.Duration, schema *temporal.Schema) *CompiledSuite {
	return &CompiledSuite{lanes: NewLaneSuite(period, schema, 1)}
}

// AddHierarchy compiles a parent goal and its subgoals into the shared
// program and registers the hierarchy with the given matching tolerance.  On
// error nothing is registered: every goal is validated before any of them is
// compiled into the shared program, so a rejected hierarchy leaves no orphan
// nodes behind.  It fails once the suite has observed a state or been Reset.
func (cs *CompiledSuite) AddHierarchy(parent GoalAt, tolerance int, children ...GoalAt) error {
	return cs.lanes.AddHierarchy(parent, tolerance, children...)
}

// MustAddHierarchy is like AddHierarchy but panics on error; for statically
// known monitoring plans.
func (cs *CompiledSuite) MustAddHierarchy(parent GoalAt, tolerance int, children ...GoalAt) {
	if err := cs.AddHierarchy(parent, tolerance, children...); err != nil {
		panic(err)
	}
}

// seal lowers the plan to width 1 on the first Observe or Reset.
//
//lint:allocok one-time width-1 lowering of the plan on the suite's first observation; later observations reuse its tables
func (cs *CompiledSuite) seal() {
	if err := cs.lanes.Seal(); err != nil {
		panic(err) // width 1 lane-steps every plan
	}
}

// Observe evaluates the shared program once against the state and records
// each goal's verdict.
func (cs *CompiledSuite) Observe(st temporal.State) {
	if !cs.lanes.sealed {
		cs.seal()
	}
	cs.lanes.ObserveLanes(st)
}

// Finish closes any open violation interval on every monitor.
func (cs *CompiledSuite) Finish() { cs.lanes.Finish() }

// Reset clears the program's temporal operator state and every monitor's
// recorded intervals, making the suite ready to observe a new run.  Atoms
// re-resolve their register slots against the next run's schema on the first
// observation, so one compiled suite serves many scenario variants.
func (cs *CompiledSuite) Reset() {
	if !cs.lanes.sealed {
		cs.seal()
	}
	cs.lanes.Reset(1)
}

// ClassifyAll classifies every hierarchy exactly once and returns the
// detections keyed by parent goal name together with the aggregate summary.
func (cs *CompiledSuite) ClassifyAll() (map[string][]Detection, Summary) {
	return cs.Suite().ClassifyAll()
}

// FastSummaryAt computes the classification summary with the hit-matching
// tolerance overridden per call; see Suite.FastSummaryAt.  The recorded
// violation intervals are read, never modified, so one observed run can be
// classified at any number of tolerances in sequence.
func (cs *CompiledSuite) FastSummaryAt(tolerance int) Summary {
	return cs.lanes.FastSummaryAt(0, tolerance)
}

// Suite returns the underlying hierarchy suite, for consumers of the
// classification and reporting API (Classify, Report, Monitors, tables,
// figures).  Its monitors are program-fed: calling Observe on them (or on
// the returned suite) panics, because their verdicts come from the shared
// program.
func (cs *CompiledSuite) Suite() *Suite { return cs.lanes.LaneSuiteOf(0) }

// Program returns the shared evaluation program, exposing its sharing
// statistics.
func (cs *CompiledSuite) Program() *temporal.Program { return cs.lanes.Program() }
