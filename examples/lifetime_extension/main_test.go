package main

import (
	"testing"

	"repro/internal/golden"
)

// TestOutput runs the example and pins its stdout.
func TestOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("ages seven techniques over three seeds; the full run checks it")
	}
	golden.Check(t, "testdata/stdout.golden", golden.Stdout(t, main))
}
