package dist

import (
	"bytes"
	"encoding/json"
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

// FuzzParseResultLine feeds arbitrary lines to the coordinator's protocol
// parser, seeded with the shapes FaultTransport produces.  It must never
// panic, and a line it accepts as a run must re-parse identically after
// being re-encoded the way workers emit run lines.
func FuzzParseResultLine(f *testing.F) {
	half := fuzzRunLine[:len(fuzzRunLine)/2]
	f.Add([]byte(fuzzRunLine))
	f.Add([]byte(fuzzTrailerLine))
	f.Add([]byte(half + "<<<fault: corrupted bytes>>>\n")) // FaultCorrupt
	f.Add([]byte(half))                                    // FaultTruncate
	f.Add([]byte(fuzzRunLine + "\n" + fuzzRunLine + "\n")) // FaultDuplicate, unsplit
	f.Fuzz(func(t *testing.T, line []byte) {
		rep, ok, err := ParseResultLine(line)
		if err != nil || !ok {
			return
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(rep); err != nil {
			t.Fatalf("accepted run %+v does not re-encode: %v", rep, err)
		}
		back, ok, err := ParseResultLine(buf.Bytes())
		if err != nil || !ok || back != rep {
			t.Errorf("run line %q re-parsed as %+v (ok=%v, err=%v), want %+v", buf.Bytes(), back, ok, err, rep)
		}
	})
}
