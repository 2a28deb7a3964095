package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden pins the example's whole output byte for byte.
func TestStdoutGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("elevator output differs from testdata/stdout.golden\ngot:\n%s", got.Bytes())
	}
}
