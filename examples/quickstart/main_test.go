package main

import (
	"testing"

	"repro/internal/golden"
)

// TestOutput runs the example and pins its stdout.
func TestOutput(t *testing.T) {
	golden.Check(t, "testdata/stdout.golden", golden.Stdout(t, main))
}
