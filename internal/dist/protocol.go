package dist

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/monitor"
	"repro/internal/scenarios"
)

// The worker protocol is NDJSON over the worker's stdout, and it is exactly
// the streaming output of `cmd/scenarios -stream`: one RunReport line per
// completed variant in the worker's shard order, then one AggregateReport
// trailer covering the worker's own runs.  The coordinator consumes run
// lines and ignores trailers (a re-queued shard would double-count them);
// everything in the protocol round-trips through encoding/json
// byte-identically, so parse → re-emit is diff-stable.

// RunReport is the machine-readable record of one monitored run — the
// per-run NDJSON line shared by cmd/scenarios, the distributed workers and
// the coordinator's merged re-emission.
type RunReport struct {
	Name            string  `json:"name"`
	Scenario        int     `json:"scenario"`
	InitialSpeed    float64 `json:"initial_speed"`
	ObjectDistance  float64 `json:"object_distance"`
	ObjectSpeed     float64 `json:"object_speed"`
	Gear            string  `json:"gear"`
	Corrected       bool    `json:"corrected"`
	Steps           int     `json:"steps"`
	Collision       bool    `json:"collision"`
	TerminatedEarly bool    `json:"terminated_early"`
	Hits            int     `json:"hits"`
	FalseNegatives  int     `json:"false_negatives"`
	FalsePositives  int     `json:"false_positives"`
}

// NewRunReport builds the report for one completed run.
func NewRunReport(sr scenarios.StreamResult) RunReport {
	r := sr.Result
	return RunReport{
		Name:            r.Scenario.Name,
		Scenario:        r.Scenario.Number,
		InitialSpeed:    r.Scenario.InitialSpeed,
		ObjectDistance:  r.Scenario.ObjectDistance,
		ObjectSpeed:     r.Scenario.ObjectSpeed,
		Gear:            r.Scenario.Gear,
		Corrected:       sr.Job.Options.CorrectDefects,
		Steps:           r.Steps,
		Collision:       r.Collision,
		TerminatedEarly: r.TerminatedEarly(),
		Hits:            r.Summary.Hits,
		FalseNegatives:  r.Summary.FalseNegatives,
		FalsePositives:  r.Summary.FalsePositives,
	}
}

// Result rebuilds the summary-only scenarios.Result this report describes,
// using the coordinator's own enumeration of the job for the scenario
// configuration (the report carries only the run outcome).  The rebuilt
// result is indistinguishable from the one the worker held: NewRunReport of
// the rebuilt StreamResult re-marshals byte-identically.
func (r RunReport) Result(job scenarios.Job) scenarios.Result {
	sc := job.Scenario
	sc.Duration = sc.ScheduledDuration()
	return scenarios.Result{
		Scenario:  sc,
		Steps:     r.Steps,
		Collision: r.Collision,
		Summary: monitor.Summary{
			Hits:           r.Hits,
			FalseNegatives: r.FalseNegatives,
			FalsePositives: r.FalsePositives,
		},
	}
}

// AggregateReport is the batch/stream trailer: the cross-variant aggregate of
// one evaluation.  In NDJSON streams it is the final line, without per-run
// Results; the batch -json document embeds them.
type AggregateReport struct {
	Runs              int             `json:"runs"`
	Collisions        int             `json:"collisions"`
	EarlyTerminations int             `json:"early_terminations"`
	Aggregate         monitor.Summary `json:"aggregate"`
	FalseNegativeRate float64         `json:"false_negative_rate"`
	FalsePositiveRate float64         `json:"false_positive_rate"`
	// Partial marks an aggregate that covers only part of the sweep: a
	// coordinator running with AllowPartial retired at least one shard.
	// Both fields are omitted when the sweep is complete, so a complete
	// distributed aggregate stays byte-identical to the single-process one.
	Partial bool `json:"partial,omitempty"`
	// Completion maps shard index (as a decimal string, for JSON) to that
	// shard's delivery record; the retired shards are exactly those with
	// Complete == false.
	Completion map[string]ShardCompletion `json:"completion,omitempty"`
	Results    []RunReport                `json:"results,omitempty"`
}

// NewAggregateReport snapshots an accumulator as the aggregate trailer.
func NewAggregateReport(acc *scenarios.Accumulator) AggregateReport {
	sum := acc.Summary()
	return AggregateReport{
		Runs:              acc.Runs(),
		Collisions:        acc.Collisions(),
		EarlyTerminations: acc.EarlyTerminations(),
		Aggregate:         sum,
		FalseNegativeRate: sum.FalseNegativeRate(),
		FalsePositiveRate: sum.FalsePositiveRate(),
	}
}

// ParseResultLine classifies one NDJSON line of the worker protocol.  It
// returns the run report with ok=true for a per-run line, ok=false for an
// aggregate trailer or blank line, and an error for anything else — a
// corrupted stream should surface as a worker failure, not be silently
// skipped.
func ParseResultLine(line []byte) (RunReport, bool, error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return RunReport{}, false, nil
	}
	// One decode: the outer Name shadows the embedded RunReport's, so its
	// presence alone marks a run line.
	var probe struct {
		RunReport
		Name *string `json:"name"`
		Runs *int    `json:"runs"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return RunReport{}, false, fmt.Errorf("dist: malformed result line %q: %w", truncateForError(line), err)
	}
	switch {
	case probe.Name != nil:
		probe.RunReport.Name = *probe.Name
		return probe.RunReport, true, nil
	case probe.Runs != nil:
		return RunReport{}, false, nil // aggregate trailer
	default:
		return RunReport{}, false, fmt.Errorf("dist: unrecognized result line %q", truncateForError(line))
	}
}

// truncateForError bounds a protocol line quoted in an error message.
func truncateForError(line []byte) string {
	const max = 120
	if len(line) <= max {
		return string(line)
	}
	return string(line[:max]) + "..."
}

// ProvedResult is one memoized variant on the wire: the run options together
// with the summary-only result, which between them carry the full variant
// key (scenario name, effective duration, options label).  ShardSpec.Seed
// carries them to a re-queued worker, which loads them into its engine's
// result cache so already-proved variants replay without simulation.
type ProvedResult struct {
	Options scenarios.Options `json:"options"`
	Result  scenarios.Result  `json:"result"`
}

// Job reassembles the job this proved result answers, the handle under which
// it is seeded into an Engine's result cache.
func (p ProvedResult) Job() scenarios.Job {
	return scenarios.Job{Scenario: p.Result.Scenario, Options: p.Options}
}

// maxLineBytes bounds one protocol line.  Run reports are a few hundred
// bytes; a megabyte of headroom means a malformed stream fails with a parse
// error rather than a scanner overflow.
const maxLineBytes = 1 << 20
