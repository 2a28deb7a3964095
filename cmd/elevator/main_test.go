package main

import (
	"bytes"
	"io"
	"os"
	"testing"
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
