package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenarios"
)

// runScenario7 evaluates the fixed scenario 7 once with the given retention
// and returns the StreamResult.
func runScenario7(t *testing.T, retention scenarios.Retention) scenarios.StreamResult {
	t.Helper()
	sc, ok := scenarios.ScenarioByNumber(7)
	if !ok {
		t.Fatal("scenario 7 missing")
	}
	engine := scenarios.NewEngine(scenarios.WithRetention(retention))
	var got scenarios.StreamResult
	err := engine.Stream(context.Background(),
		scenarios.SliceSource([]scenarios.Job{{Scenario: sc}}),
		scenarios.SinkFunc(func(sr scenarios.StreamResult) error {
			got = sr
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestResultJSONRoundTrip is the NDJSON wire-contract test: a marshalled
// Result survives unmarshal → marshal byte-identically (field order, float
// formatting), and the trace-bearing fields never leak into the JSON even
// when the in-memory Result retains them.
func TestResultJSONRoundTrip(t *testing.T) {
	sr := runScenario7(t, scenarios.KeepTrace)
	if sr.Result.Trace == nil {
		t.Fatal("KeepTrace run should retain the trace; the leak check below would be vacuous")
	}

	first, err := json.Marshal(sr.Result)
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"trace", "suite", "detections", "Trace", "Suite", "Detections"} {
		if bytes.Contains(first, []byte(`"`+leak+`"`)) {
			t.Errorf("marshalled Result leaks retention-dependent field %q: %s", leak, first)
		}
	}

	var back scenarios.Result
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("Result does not round-trip byte-identically:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestRunReportRoundTrip checks the per-run protocol line round-trips
// byte-identically and that Result() is NewRunReport's inverse: the rebuilt
// result re-marshals to the same line the worker emitted.
func TestRunReportRoundTrip(t *testing.T) {
	sr := runScenario7(t, scenarios.SummaryOnly)
	rep := NewRunReport(sr)

	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("RunReport does not round-trip byte-identically:\nfirst:  %s\nsecond: %s", first, second)
	}

	rebuilt := back.Result(sr.Job)
	again := NewRunReport(scenarios.StreamResult{Index: sr.Index, Job: sr.Job, Result: rebuilt})
	if again != rep {
		t.Errorf("rebuilt result reports differently:\noriginal: %+v\nrebuilt:  %+v", rep, again)
	}
}

// TestParseResultLine checks stream-line classification: run lines parse with
// ok=true, aggregate trailers and blanks are skipped, garbage is an error.
func TestParseResultLine(t *testing.T) {
	sr := runScenario7(t, scenarios.SummaryOnly)
	runLine, _ := json.Marshal(NewRunReport(sr))
	var acc scenarios.Accumulator
	acc.Add(sr.Result)
	trailer, _ := json.Marshal(NewAggregateReport(&acc))

	rep, ok, err := ParseResultLine(runLine)
	if err != nil || !ok {
		t.Fatalf("run line: ok=%v err=%v", ok, err)
	}
	if rep.Name != sr.Job.Scenario.Name {
		t.Errorf("run line parsed name %q, want %q", rep.Name, sr.Job.Scenario.Name)
	}
	if _, ok, err := ParseResultLine(trailer); err != nil || ok {
		t.Errorf("trailer: ok=%v err=%v, want skipped", ok, err)
	}
	if _, ok, err := ParseResultLine([]byte("  \n")); err != nil || ok {
		t.Errorf("blank line: ok=%v err=%v, want skipped", ok, err)
	}
	if _, _, err := ParseResultLine([]byte("not json at all")); err == nil {
		t.Error("garbage must be an error")
	}
	if _, _, err := ParseResultLine([]byte(`{"neither":"run nor trailer"}`)); err == nil {
		t.Error("unrecognized JSON must be an error")
	}

	// A present name marks a run line, whatever else the line holds; a null
	// one does not; a run field of the wrong type is an error, also on a line
	// that would otherwise be a trailer.
	for _, c := range []struct {
		line    string
		ok, bad bool
		want    RunReport
	}{
		{line: `{"name":"x","runs":3,"steps":7}`, ok: true, want: RunReport{Name: "x", Steps: 7}},
		{line: `{"name":""}`, ok: true},
		{line: `{"name":null}`, bad: true},
		{line: `{"name":"x","hits":"x"}`, bad: true},
		{line: `{"runs":1,"hits":"x"}`, bad: true},
	} {
		rep, ok, err := ParseResultLine([]byte(c.line))
		if ok != c.ok || (err != nil) != c.bad || rep != c.want {
			t.Errorf("%s: got %+v ok=%v err=%v, want %+v ok=%v error=%v", c.line, rep, ok, err, c.want, c.ok, c.bad)
		}
	}
}

// TestParseResultLineHardening pins satellite guarantees of the protocol
// decoder: no input panics, every rejection quotes the offending line, and
// the quote is bounded so a megabyte of garbage does not become a megabyte of
// error message.
func TestParseResultLineHardening(t *testing.T) {
	hostile := [][]byte{
		[]byte("null"),
		[]byte("true"),
		[]byte("42"),
		[]byte(`"just a string"`),
		[]byte(`[1,2,3]`),
		[]byte(`{}`),
		[]byte(`{"name":null,"runs":null}`),
		[]byte(`{"name":7}`),                        // wrong type for the discriminator
		[]byte(`{"name":"x","steps":"not an int"}`), // run line with a mistyped field
		[]byte(`{"runs":"not an int"}`),             // trailer with a mistyped field
		[]byte(`{"name":"veh`),                      // truncated mid-string
		[]byte(`{"name":"x"`),                       // truncated mid-object
		bytes.Repeat([]byte("x"), 4096),
	}
	for _, line := range hostile {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ParseResultLine(%.40q) panicked: %v", line, r)
				}
			}()
			rep, ok, err := ParseResultLine(line)
			if err == nil && ok {
				t.Errorf("hostile line %.40q was accepted as run report %+v", line, rep)
			}
		}()
	}

	// A rejected line is quoted in the error so the operator can see what the
	// worker actually sent...
	_, _, err := ParseResultLine([]byte(`{"name":"veh`))
	if err == nil || !strings.Contains(err.Error(), "malformed result line") || !strings.Contains(err.Error(), "veh") {
		t.Errorf("the offending line should be quoted in the error, got: %v", err)
	}
	// ...but bounded: a huge line must not be quoted whole.
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte("A"), 1<<16)...)
	_, _, err = ParseResultLine(huge)
	if err == nil {
		t.Fatal("an unterminated huge line must be rejected")
	}
	if len(err.Error()) > 512 {
		t.Errorf("error quoting a %d-byte line is %d bytes long; the quote must be truncated", len(huge), len(err.Error()))
	}
}

// TestCanonicalDecodeTakesEveryRunLine requires the canonical decode to
// accept every run line of the huge sweep's canned worker streams (written
// by encoding/json, which AppendJSON matches byte for byte) and to agree with
// the encoding/json reference on each, so the coordinator never hands a
// worker's run line to the fallback.
func TestCanonicalDecodeTakesEveryRunLine(t *testing.T) {
	jobs, streams := cannedHugeStream(t, 2)
	runs := 0
	for _, stream := range streams {
		for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
			want, isRun, err := referenceParseResultLine(line)
			if err != nil || !isRun {
				continue // the aggregate trailer, or the empty tail
			}
			runs++
			if got, ok := decodeRunLine(line); !ok || !sameReport(got, want) {
				t.Fatalf("canonical decode of %q: %+v (ok=%v), want %+v", line, got, ok, want)
			}
		}
	}
	if runs != len(jobs) {
		t.Errorf("decoded %d run lines, want %d", runs, len(jobs))
	}
}
