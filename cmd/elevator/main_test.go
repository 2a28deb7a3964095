package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/monitor"
)

// TestVerboseGolden pins the full -v output — violation rows and every
// classified detection of every scenario — byte for byte, so a change to the
// monitoring path that moves one interval fails here.
func TestVerboseGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-v"}, &got); err != nil {
		t.Fatalf("run(-v): %v", err)
	}
	want, err := os.ReadFile("testdata/verbose.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("elevator -v output differs from testdata/verbose.golden\ngot:\n%s", got.Bytes())
	}
}

// TestWriteDetectionsSortsGoals renders detections under two goals: the
// goals print in sorted name order whatever the map order, and each goal's
// detections keep their own order.  None of the five scenarios detects
// under two goals today, so the golden alone would not notice map order.
func TestWriteDetectionsSortsGoals(t *testing.T) {
	detections := map[string][]monitor.Detection{
		"Maintain[Zeta]": {
			{Kind: monitor.Hit, Location: "drive", Interval: monitor.Interval{Start: 4, End: 6}},
		},
		"Maintain[Alpha]": {
			{Kind: monitor.FalseNegative, Location: "door", Interval: monitor.Interval{Start: 9, End: 12}},
			{Kind: monitor.Hit, Location: "door", Interval: monitor.Interval{Start: 1, End: 2}},
		},
	}
	const want = "    [false negative] Maintain[Alpha] at [9,12) (door)\n" +
		"    [hit] Maintain[Alpha] at [1,2) (door)\n" +
		"    [hit] Maintain[Zeta] at [4,6) (drive)\n"
	for i := 0; i < 20; i++ {
		var got bytes.Buffer
		writeDetections(&got, detections)
		if got.String() != want {
			t.Fatalf("detections printed as\n%swant\n%s", got.String(), want)
		}
	}
}

func TestRunSingleScenario(t *testing.T) {
	if err := run([]string{"-scenario", "nominal", "-v"}, io.Discard); err != nil {
		t.Fatalf("run(nominal): %v", err)
	}
}

func TestRunWithICPA(t *testing.T) {
	if err := run([]string{"-scenario", "door-defect", "-icpa"}, io.Discard); err != nil {
		t.Fatalf("run(door-defect, -icpa): %v", err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "does-not-exist"}, io.Discard); err == nil {
		t.Fatal("unknown scenario should be an error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("bad flags should be an error")
	}
}
