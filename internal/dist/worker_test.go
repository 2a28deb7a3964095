package dist

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestDecodeShardSpec pins the one decoder of worker input: valid specs
// decode, malformed JSON, out-of-range shards and negative skips are
// rejected, and String names the shard as i/n.
func TestDecodeShardSpec(t *testing.T) {
	spec, err := DecodeShardSpec(strings.NewReader(`{"index":2,"total":5}`))
	if err != nil || spec.Index != 2 || spec.Total != 5 || spec.Skip != 0 {
		t.Errorf("DecodeShardSpec(2/5) = %+v, %v", spec, err)
	}
	if got := spec.String(); got != "2/5" {
		t.Errorf("ShardSpec.String() = %q, want 2/5", got)
	}
	if spec, err := DecodeShardSpec(strings.NewReader(`{"index":0,"total":1,"skip":3}`)); err != nil || spec.Skip != 3 {
		t.Errorf("DecodeShardSpec(skip 3) = %+v, %v", spec, err)
	}
	for _, bad := range []string{
		"", "not json", `{"index":5,"total":5}`, `{"index":-1,"total":5}`,
		`{"index":0,"total":0}`, `{"index":1,"total":-3}`, `{"index":"a","total":2}`,
		`{"index":0,"total":1,"skip":-1}`,
	} {
		if _, err := DecodeShardSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeShardSpec(%q) should fail", bad)
		}
	}
}

// TestServeRejectsInvalidSpec checks that Serve validates the spec before
// it writes anything: an out-of-range shard or a negative skip yields an
// error and an empty stream, never a partial one.
func TestServeRejectsInvalidSpec(t *testing.T) {
	srv := &WorkerServer{Source: testSweep(t).Source}
	for _, spec := range []ShardSpec{{Index: 3, Total: 3}, {Index: -1, Total: 2}, {Index: 0, Total: 0}, {Index: 0, Total: 1, Skip: -1}} {
		var out bytes.Buffer
		if err := srv.Serve(context.Background(), spec, &out); err == nil {
			t.Errorf("Serve(%s) should fail", spec)
		}
		if out.Len() != 0 {
			t.Errorf("Serve(%s) wrote %d bytes before rejecting the spec", spec, out.Len())
		}
	}
	var out bytes.Buffer
	if err := (&WorkerServer{}).Serve(context.Background(), ShardSpec{Total: 1}, &out); err == nil || out.Len() != 0 {
		t.Errorf("Serve without a Source = %v after %d bytes, want an error and no output", err, out.Len())
	}
}
