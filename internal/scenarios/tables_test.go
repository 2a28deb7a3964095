package scenarios

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestAppendDurationMatchesString pins the violation table's duration
// writer to time.Duration.String: every millisecond up to 100 s (the
// durations a 1 ms trace produces), random nanosecond counts across every
// unit, and the edges of each unit.
func TestAppendDurationMatchesString(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := string(appendDuration(nil, d)), d.String(); got != want {
			t.Fatalf("appendDuration(%d) = %q, want %q", int64(d), got, want)
		}
	}
	for ms := 0; ms <= 100000; ms++ {
		check(time.Duration(ms) * time.Millisecond)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(time.Duration(r.Int63n(int64(1) << uint(1+r.Intn(62)))))
	}
	for _, d := range []time.Duration{
		1, 999, time.Microsecond, 1500, time.Millisecond - 1, time.Millisecond + 1,
		time.Second - 1, time.Second, 59*time.Second + 1, time.Minute, time.Hour,
		time.Hour + time.Millisecond, 100*time.Hour + time.Nanosecond,
		math.MaxInt64, -time.Millisecond, math.MinInt64,
	} {
		check(d)
	}
}
