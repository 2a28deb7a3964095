package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/monitor"
	"repro/internal/scenarios"
)

// The worker protocol is NDJSON over the worker's stdout, and it is exactly
// the streaming output of `cmd/scenarios -stream`: one RunReport line per
// completed variant in the worker's shard order, then one AggregateReport
// trailer covering the worker's own runs.  The coordinator consumes run
// lines and ignores trailers (a re-queued shard would double-count them).
//
// Run lines, the bulk of the traffic, never go through reflection.  One
// hand-written writer, RunReport.AppendJSON, produces them, and the fuzz
// test FuzzRunReportAppendJSON proves it byte-identical to
// json.Encoder.Encode.  ParseResultLine decodes exactly that canonical
// layout with a strict cursor and hands every other line (trailers,
// reordered or spaced keys, escaped strings, numbers strconv rejects) to
// encoding/json, the reference decoder, so parse → re-emit stays
// diff-stable.  RunReport deliberately does not implement json.Marshaler:
// encoding/json stays an independent oracle for both directions.

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
// skipped.  A line in exactly the layout AppendJSON writes is decoded
// without encoding/json; every other line goes to encoding/json, which
// would decode a canonical line to the same report (FuzzParseResultLine).
func ParseResultLine(line []byte) (RunReport, bool, error) {
	if rep, ok := decodeRunLine(line); ok {
		return rep, true, nil
	}
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

// AppendJSON appends the report's run line to b: exactly the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included — float
// fields in encoding/json's 'f'/'e' form, strings HTML-escaped — without
// reflection.  Like encoding/json it fails on a NaN or infinite field,
// returning b unchanged.
func (r *RunReport) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{r.InitialSpeed, r.ObjectDistance, r.ObjectSpeed} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("dist: run report %q has unsupported value %v", r.Name, f)
		}
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, r.Name)
	b = append(b, `,"scenario":`...)
	b = strconv.AppendInt(b, int64(r.Scenario), 10)
	b = append(b, `,"initial_speed":`...)
	b = appendJSONFloat(b, r.InitialSpeed)
	b = append(b, `,"object_distance":`...)
	b = appendJSONFloat(b, r.ObjectDistance)
	b = append(b, `,"object_speed":`...)
	b = appendJSONFloat(b, r.ObjectSpeed)
	b = append(b, `,"gear":`...)
	b = appendJSONString(b, r.Gear)
	b = append(b, `,"corrected":`...)
	b = strconv.AppendBool(b, r.Corrected)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(r.Steps), 10)
	b = append(b, `,"collision":`...)
	b = strconv.AppendBool(b, r.Collision)
	b = append(b, `,"terminated_early":`...)
	b = strconv.AppendBool(b, r.TerminatedEarly)
	b = append(b, `,"hits":`...)
	b = strconv.AppendInt(b, int64(r.Hits), 10)
	b = append(b, `,"false_negatives":`...)
	b = strconv.AppendInt(b, int64(r.FalseNegatives), 10)
	b = append(b, `,"false_positives":`...)
	b = strconv.AppendInt(b, int64(r.FalsePositives), 10)
	return append(b, "}\n"...), nil
}

// RunLineSink returns a sink that writes every result to w as its run line
// (NewRunReport, AppendJSON), in one Write per line: the run lines of the
// worker protocol and of the -stream outputs.
func RunLineSink(w io.Writer) scenarios.ResultSink {
	var line []byte
	return scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
		rep := NewRunReport(sr)
		var err error
		if line, err = rep.AppendJSON(line[:0]); err != nil {
			return err
		}
		_, err = w.Write(line)
		return err
	})
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent unpadded.  f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping on: '"' and '\\' escaped, control characters as \b, \f, \n, \r,
// \t or \u00XX, '<', '>' and '&' as \u003c, \u003e and \u0026, invalid
// UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeRunLine decodes a run line in exactly the layout AppendJSON writes,
// its trailing newline optional.  It reports false for any other line —
// another key order, whitespace, an escaped or invalid-UTF-8 string, a
// number strconv rejects — which ParseResultLine hands to encoding/json.
func decodeRunLine(line []byte) (r RunReport, ok bool) {
	c := cursor{b: line}
	name := c.str(`{"name":"`)
	r.Scenario = c.int(`,"scenario":`)
	r.InitialSpeed = c.float(`,"initial_speed":`)
	r.ObjectDistance = c.float(`,"object_distance":`)
	r.ObjectSpeed = c.float(`,"object_speed":`)
	gear := c.str(`,"gear":"`)
	r.Corrected = c.bool(`,"corrected":`)
	r.Steps = c.int(`,"steps":`)
	r.Collision = c.bool(`,"collision":`)
	r.TerminatedEarly = c.bool(`,"terminated_early":`)
	r.Hits = c.int(`,"hits":`)
	r.FalseNegatives = c.int(`,"false_negatives":`)
	r.FalsePositives = c.int(`,"false_positives":`)
	c.lit("}")
	if !c.bad && len(line)-c.i == 1 && line[c.i] == '\n' {
		c.i++
	}
	if c.bad || c.i != len(line) {
		return RunReport{}, false
	}
	r.Name = string(name)
	r.Gear = gearString(gear)
	return r, true
}

// gearString returns a decoded gear, allocating only for a gear other than
// the "D" and "R" every sweep schedules.
func gearString(g []byte) string {
	switch string(g) {
	case "D":
		return "D"
	case "R":
		return "R"
	}
	return string(g)
}

// cursor reads the canonical run line left to right.  Each read expects a
// literal key prefix and then one value; the first mismatch sets bad, after
// which every read is a no-op.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes the literal s.
func (c *cursor) lit(s string) {
	if c.bad {
		return
	}
	if end := c.i + len(s); end <= len(c.b) && string(c.b[c.i:end]) == s {
		c.i = end
		return
	}
	c.bad = true
}

// str consumes key, which ends in the opening quote, and the rest of a
// string holding no escape, no control character and only valid UTF-8,
// which decodes to its bytes as they stand.
func (c *cursor) str(key string) []byte {
	c.lit(key)
	if c.bad {
		return nil
	}
	start, ascii := c.i, true
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			s := c.b[start:c.i]
			c.i++
			if !ascii && !utf8.Valid(s) {
				c.bad = true
			}
			return s
		case ch < 0x20 || ch == '\\':
			c.bad = true
			return nil
		case ch >= utf8.RuneSelf:
			ascii = false
		}
	}
	c.bad = true
	return nil
}

// bool consumes key and true or false.
func (c *cursor) bool(key string) bool {
	c.lit(key)
	if c.bad {
		return false
	}
	if rest := c.b[c.i:]; len(rest) >= 4 && string(rest[:4]) == "true" {
		c.i += 4
		return true
	}
	c.lit("false")
	return false
}

// number consumes one JSON number token, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and reports whether it has neither fraction nor exponent.
func (c *cursor) number() (tok []byte, integer bool) {
	b, start := c.b, c.i
	i := start
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		c.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if !digits() {
			c.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			c.bad = true
			return nil, false
		}
	}
	c.i = i
	return b[start:i], integer
}

// int consumes key and an integer of at most 18 digits, which cannot
// overflow; a longer one is left to encoding/json's range check.
func (c *cursor) int(key string) int {
	c.lit(key)
	if c.bad {
		return 0
	}
	tok, integer := c.number()
	if c.bad || !integer || len(tok) > 18 {
		c.bad = true
		return 0
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	n := 0
	for _, d := range tok {
		n = n*10 + int(d-'0')
	}
	if neg {
		return -n
	}
	return n
}

// float consumes key and a number strconv.ParseFloat accepts, as
// encoding/json decodes a float64.
func (c *cursor) float(key string) float64 {
	c.lit(key)
	if c.bad {
		return 0
	}
	tok, _ := c.number()
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.bad = true
	}
	return f
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
