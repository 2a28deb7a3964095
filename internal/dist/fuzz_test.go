package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/scenarios"
)

// Fuzz seeds: real worker-protocol lines.
const (
	fuzzRunLine     = `{"name":"s7-reverse-rca","scenario":7,"initial_speed":0,"object_distance":-12,"object_speed":0,"gear":"R","corrected":false,"steps":6271,"collision":true,"terminated_early":true,"hits":0,"false_negatives":0,"false_positives":2}`
	fuzzTrailerLine = `{"runs":1,"collisions":1,"early_terminations":1,"aggregate":{"hits":0,"false_negatives":0,"false_positives":2},"false_negative_rate":0,"false_positive_rate":1}`
)

// FuzzDecodeShardSpec feeds arbitrary bytes to the worker's input decoder.
// It must never panic, and a spec it accepts must re-encode to JSON that
// decodes to an equal spec.
func FuzzDecodeShardSpec(f *testing.F) {
	sc, _ := scenarios.ScenarioByNumber(7)
	seeded, err := json.Marshal(ShardSpec{Index: 1, Total: 3, Seed: []ProvedResult{{
		Options: scenarios.Options{CorrectDefects: true},
		Result:  scenarios.Result{Scenario: sc, Steps: 6271, Collision: true},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"index":0,"total":3}`))
	f.Add(seeded)
	f.Add(seeded[:len(seeded)/2])
	f.Add([]byte(`{"index":3,"total":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeShardSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-encode: %v", spec, err)
		}
		back, err := DecodeShardSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if back.Index != spec.Index || back.Total != spec.Total || len(back.Seed) != len(spec.Seed) || !bytes.Equal(enc, again) {
			t.Errorf("spec changed across a round trip:\n%s\n%s", enc, again)
		}
	})
}

// referenceParseResultLine is ParseResultLine as it was before the
// canonical decode: every line through encoding/json.  FuzzParseResultLine
// requires the two to agree on every input.
func referenceParseResultLine(line []byte) (RunReport, bool, error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return RunReport{}, false, nil
	}
	var probe struct {
		RunReport
		Name *string `json:"name"`
		Runs *int    `json:"runs"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return RunReport{}, false, err
	}
	switch {
	case probe.Name != nil:
		probe.RunReport.Name = *probe.Name
		return probe.RunReport, true, nil
	case probe.Runs != nil:
		return RunReport{}, false, nil
	default:
		return RunReport{}, false, errors.New("unrecognized result line")
	}
}

// sameReport is report equality with floats compared by their bits, so a
// decode that turns -0 into 0 is a difference.
func sameReport(a, b RunReport) bool {
	bits := func(r RunReport) [3]uint64 {
		return [3]uint64{math.Float64bits(r.InitialSpeed), math.Float64bits(r.ObjectDistance), math.Float64bits(r.ObjectSpeed)}
	}
	return a == b && bits(a) == bits(b)
}

// FuzzParseResultLine feeds arbitrary lines to the coordinator's protocol
// parser, seeded with the shapes FaultTransport produces and with canonical
// lines the canonical decode must accept or hand on.  It must never panic,
// it must agree with the encoding/json reference decode on the report, on
// ok and on whether the line is an error, and a line it accepts as a run
// must re-parse identically after being re-encoded the way workers emit run
// lines.
func FuzzParseResultLine(f *testing.F) {
	half := fuzzRunLine[:len(fuzzRunLine)/2]
	f.Add([]byte(fuzzRunLine))
	f.Add([]byte(fuzzRunLine + "\n"))
	f.Add([]byte(fuzzRunLine + "\r\n"))
	f.Add([]byte(" " + fuzzRunLine))
	f.Add([]byte(fuzzTrailerLine))
	f.Add([]byte(half + "<<<fault: corrupted bytes>>>\n")) // FaultCorrupt
	f.Add([]byte(half))                                    // FaultTruncate
	f.Add([]byte(fuzzRunLine + "\n" + fuzzRunLine + "\n")) // FaultDuplicate, unsplit
	for _, edit := range [][2]string{
		{`"name":"s7-reverse-rca"`, `"name":"s7\u003c\n\ufffd"`},
		{`"name":"s7-reverse-rca"`, "\"name\":\"s7\xff\u2028\""},
		{`"object_distance":-12`, `"object_distance":-0`},
		{`"object_distance":-12`, `"object_distance":1e400`},
		{`"object_distance":-12`, `"object_distance":1.5E-7`},
		{`"object_distance":-12`, `"object_distance":012`},
		{`"steps":6271`, `"steps":6271.0`},
		{`"steps":6271`, `"steps":99999999999999999999`},
		{`"steps":6271`, `"steps":-0`},
		{`"gear":"R"`, `"gear":"N"`},
		{`"corrected":false`, `"corrected":true`},
		{`{"name"`, `{ "name"`},
		{`"hits":0,`, ``},
	} {
		f.Add([]byte(strings.Replace(fuzzRunLine, edit[0], edit[1], 1)))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		rep, ok, err := ParseResultLine(line)
		want, wantOK, wantErr := referenceParseResultLine(line)
		if !sameReport(rep, want) || ok != wantOK || (err != nil) != (wantErr != nil) {
			t.Fatalf("line %q parsed as %+v (ok=%v, err=%v), the reference as %+v (ok=%v, err=%v)",
				line, rep, ok, err, want, wantOK, wantErr)
		}
		if err != nil || !ok {
			return
		}
		enc, err := rep.AppendJSON(nil)
		if err != nil {
			t.Fatalf("accepted run %+v does not re-encode: %v", rep, err)
		}
		back, ok, err := ParseResultLine(enc)
		if err != nil || !ok || !sameReport(back, rep) {
			t.Errorf("run line %q re-parsed as %+v (ok=%v, err=%v), want %+v", enc, back, ok, err, rep)
		}
	})
}

// FuzzRunReportAppendJSON requires the hand-written run line writer to equal
// json.Encoder.Encode byte for byte, trailing newline included, on
// fuzzer-chosen reports: float formatting at the 'f'/'e' cutoffs, -0 and
// subnormals, HTML escaping, control characters, invalid UTF-8 and the
// U+2028/U+2029 escapes.  A NaN or infinite field must make both fail.
func FuzzRunReportAppendJSON(f *testing.F) {
	f.Add("s7-reverse-rca", "R", 0.0, -12.0, 0.0, 7, 6271, 0, 0, 2, uint8(5))
	f.Add("<a href=\"x\">&amp;</a>", "D", math.Copysign(0, -1), 1e-7, 1e21, -1, 0, 1, 2, 3, uint8(0))
	f.Add("ctl\x00\x01\x1f\x7f\b\f\n\r\t\\\"", "", 5e-324, 2.2250738585072014e-308, 1e-6, 0, 1, 0, 0, 0, uint8(7))
	f.Add("bad\xff\xfe\xc3(utf8\u2028\u2029é", "\u2029", 999999999999999999999.0, 9.999999999999999e20, 123456789.125, 1, 2, 3, 4, 5, uint8(2))
	f.Add("nan", "D", math.NaN(), 0.0, 0.0, 0, 0, 0, 0, 0, uint8(0))
	f.Add("inf", "D", 0.0, math.Inf(1), math.Inf(-1), 0, 0, 0, 0, 0, uint8(0))
	f.Fuzz(func(t *testing.T, name, gear string, speed, dist, objSpeed float64, scenario, steps, hits, fn, fp int, flags uint8) {
		r := RunReport{
			Name: name, Scenario: scenario, InitialSpeed: speed, ObjectDistance: dist, ObjectSpeed: objSpeed,
			Gear: gear, Corrected: flags&1 != 0, Steps: steps, Collision: flags&2 != 0, TerminatedEarly: flags&4 != 0,
			Hits: hits, FalseNegatives: fn, FalsePositives: fp,
		}
		prefix := []byte("prefix")
		got, err := r.AppendJSON(prefix)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: AppendJSON error %v, encoding/json error %v", r, err, wantErr)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("AppendJSON lost its prefix: %q", got)
		}
		if err != nil {
			if len(got) != len(prefix) {
				t.Fatalf("a failed AppendJSON appended %q", got[len(prefix):])
			}
			return
		}
		if got := got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON wrote\n%q\nencoding/json wrote\n%q", got, want.Bytes())
		}
	})
}
