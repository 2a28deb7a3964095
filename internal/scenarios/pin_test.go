package scenarios

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/elevator"
	"repro/internal/temporal"
)

// The rendered goldens (tables, figures, NDJSON) see only what the monitors
// and extractors read.  These pins hash every signal the components write,
// tick by tick, so a change to component stepping that moves any signal by
// one bit fails here even when no rendered output changes.

// trajectoryHash returns the SHA-256 over a trace's signals: per tick, every
// signal in name order as its kind and its value (math.Float64bits for
// numbers, 0/1 for booleans, the length-prefixed bytes for strings).  The
// step-period plumbing signal is skipped so the hash covers only what the
// components compute.
func trajectoryHash(tr *temporal.Trace) string {
	h := sha256.New()
	var (
		schema *temporal.Schema
		slots  []int
		buf    [9]byte
	)
	tr.Walk(func(_ int, st temporal.State) {
		if sc := st.Schema(); sc != schema {
			schema = sc
			names := make(map[int]string, sc.Len())
			slots = slots[:0]
			for i := 0; i < sc.Len(); i++ {
				if name := sc.Name(i); name != "SimPeriodSeconds" {
					names[i] = name
					slots = append(slots, i)
				}
			}
			sort.Slice(slots, func(a, b int) bool { return names[slots[a]] < names[slots[b]] })
		}
		for _, i := range slots {
			v := st.Slot(i)
			buf[0] = byte(v.Kind())
			var bits uint64
			switch v.Kind() {
			case temporal.KindNumber:
				bits = math.Float64bits(v.AsNumber())
			case temporal.KindBool:
				if v.AsBool() {
					bits = 1
				}
			case temporal.KindString:
				bits = uint64(len(v.AsString()))
			}
			binary.LittleEndian.PutUint64(buf[1:], bits)
			h.Write(buf[:])
			if v.Kind() == temporal.KindString {
				h.Write([]byte(v.AsString()))
			}
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestComponentTrajectoriesPinned pins the full signal trajectory of every
// thesis scenario, with the seeded defects and with CorrectDefects.
func TestComponentTrajectoriesPinned(t *testing.T) {
	want := map[string]string{
		"1/corrected=false":  "5b5fd3c7c3512684e993643f7d4092310fd969b1d2619f7ed9ee7ae1cd003dad",
		"1/corrected=true":   "fe425714e3df2b5b30337d6b935323e9c82efbe4208935b573a6fd03f2e002b2",
		"2/corrected=false":  "cd4c5937f46590d0a6030cb60e0e20c4e73d918f57861fb693ba006c2904e084",
		"2/corrected=true":   "d39cc98583ac49c1fb2b90e471467f78aea33f2eff1d82de33a1d33cbff2b7b6",
		"3/corrected=false":  "d49e3233e677a78c063fc34e9a75cab970b8e18df5615c75586de9f94c152bd0",
		"3/corrected=true":   "9fa7182c1d360a067dfe974ad7838895e244157e512f8118ed68aa843fee2152",
		"4/corrected=false":  "86f59de0c2083c31df4a9c8e74c39a43a8f9235eb48003965906bb0d1e6c3d05",
		"4/corrected=true":   "41d89c8a104f0220009e3ae0b45512fc5c6c2b8ba628ed340b9abd6cfdf05a49",
		"5/corrected=false":  "0e11e5b9142ab70602212d3de753815f5be2e5da672c367dc6066eda073c0d0f",
		"5/corrected=true":   "9e9940f9751955e86814e79627b0f9876a65c7457f36d2eb8e46cccb126c14ad",
		"6/corrected=false":  "bee8090d7093efb202a484f899cddac08c5d0bc38cef307e85ee052b1750c5bd",
		"6/corrected=true":   "73ecf37ffbaba6342c027bdfb2f9a4628ee14f5839017ae7c6f333f5098e7d80",
		"7/corrected=false":  "2e4ce30f15c86643f20ea1b5ee2b2de3dcc426ff6cafd32e030a995c498bb522",
		"7/corrected=true":   "cd553f0af7150204ad1967528b754f231d97f624b075dc05e34f450f0ddae4fe",
		"8/corrected=false":  "7801ac6b7580e47dbccd8fd40072f7bab17295f187992afebf07275670a6b0e1",
		"8/corrected=true":   "17645469aa46f3bbbebe7f354d6b7b07ed998512c843c468d35b0e1ba99c8fc7",
		"9/corrected=false":  "b3365b15109cf266792073338a7ea4b04e62ed9a530cbfb70226920dfda77234",
		"9/corrected=true":   "5ef379f0e4c3aa97883b2af610b661a20a3072f942767a8280644b58407e6340",
		"10/corrected=false": "8714305ebd28a7c829f44dd0fec7c2cd9c6540d3466849d53983af088aa9a519",
		"10/corrected=true":  "6cac78f8a08bb72b4d2fbb1675e5d441378905f050a31f8e520b53197fe226da",
	}
	for _, sc := range Scenarios() {
		for _, corrected := range []bool{false, true} {
			key := fmt.Sprintf("%d/corrected=%t", sc.Number, corrected)
			res := RunWithOptions(sc, Options{CorrectDefects: corrected})
			if got := trajectoryHash(res.Trace); got != want[key] {
				t.Errorf("scenario %s: trajectory hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestElevatorTrajectoriesPinned is the elevator twin: the full signal
// trajectory of every standard elevator scenario.
func TestElevatorTrajectoriesPinned(t *testing.T) {
	want := map[string]string{
		"nominal":              "be53c9d4918b9741743325811a3b9710f8a5699593a0a93ce39c73a38ce98a75",
		"door-defect":          "2cbef83211dcbd45016655c7997625b7fb480ad13892a2400cbba88bca2dc8b7",
		"overweight":           "8f16ea08f4491555c1e45f8b0e85e1842559dbd97c44edb1803e4295918d6025",
		"hoistway-defect":      "c3cd61913b173406cc0018e3f10b0fc4df60c617a1f0d07303088b905ad17041",
		"hoistway-unprotected": "23b35279ba33b0825fa5f11a76d458869ce00d8ec2fd09a77bf3d837cdad6e35",
	}
	for _, sc := range elevator.Scenarios() {
		res := elevator.Run(sc)
		if got := trajectoryHash(res.Trace); got != want[sc.Name] {
			t.Errorf("elevator scenario %s: trajectory hash %s, want %s", sc.Name, got, want[sc.Name])
		}
	}
}
