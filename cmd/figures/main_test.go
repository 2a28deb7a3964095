package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// figuresSHA256 is the SHA-256 of the full figures output (every figure's
// CSV, ~680 KB), too large to commit as a golden file.
const figuresSHA256 = "9117ce6d4734cf6aebb3846f5457845b704e2d5a859fcbdefb373fde27140516"

// TestAllFiguresGolden pins every regenerated time series byte for byte
// through its digest.
func TestAllFiguresGolden(t *testing.T) {
	h := sha256.New()
	if err := run(nil, h); err != nil {
		t.Fatalf("run(): %v", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != figuresSHA256 {
		t.Errorf("figures output SHA-256 = %s, want %s", got, figuresSHA256)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
}

func TestRunSingleFigureToDir(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-id", "5.12", "-dir", dir}, io.Discard); err != nil {
		t.Fatalf("run(-id 5.12): %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure-5_12.csv"))
	if err != nil {
		t.Fatalf("expected the figure CSV to be written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("figure CSV is empty")
	}
}

func TestRunSingleFigureToStdout(t *testing.T) {
	if err := run([]string{"-id", "5.12"}, io.Discard); err != nil {
		t.Fatalf("run(-id 5.12 to stdout): %v", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-id", "99.9"}, io.Discard); err == nil {
		t.Fatal("unknown figure id should be an error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Fatal("bad flags should be an error")
	}
}
