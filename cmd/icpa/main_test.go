package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// runGolden runs the command and compares its output byte for byte with a
// golden file.  The goldens were captured from the command before run took
// a writer; -verify then printed its rows in map order, and its golden is
// one of those runs whose rows came out in declaration order, the order the
// command now always prints.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var got bytes.Buffer
	if err := run(args, &got); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	want, err := os.ReadFile("testdata/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("icpa %v output differs from testdata/%s\ngot:\n%s", args, golden, got.Bytes())
	}
}

func TestRunElevatorAnalyses(t *testing.T) {
	runGolden(t, "elevator-verify-lessons.golden", "-system", "elevator", "-verify", "-lessons")
}

func TestRunVehicleAnalyses(t *testing.T) {
	runGolden(t, "vehicle-autoaccel.golden", "-system", "vehicle", "-goal", "AutoAccel")
}

// TestRunVehicleVerify pins all nine vehicle analyses with their subgoal
// realizability rows, including every unrealizable row and its causes.
func TestRunVehicleVerify(t *testing.T) {
	runGolden(t, "vehicle-verify.golden", "-system", "vehicle", "-verify")
}

func TestRunPatternsAndHazards(t *testing.T) {
	runGolden(t, "elevator-patterns-hazard.golden", "-system", "elevator", "-patterns", "-hazard")
}

func TestRunUnknownSystem(t *testing.T) {
	if err := run([]string{"-system", "spaceship"}, io.Discard); err == nil {
		t.Fatal("unknown system should be an error")
	}
}

func TestRunUnknownGoal(t *testing.T) {
	if err := run([]string{"-system", "elevator", "-goal", "NoSuchGoal"}, io.Discard); err == nil {
		t.Fatal("unknown goal filter should be an error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("bad flags should be an error")
	}
}
