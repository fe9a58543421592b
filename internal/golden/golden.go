// Package golden compares test output with files committed under
// testdata/. Running the tests with -update rewrites every checked file
// from the current output instead:
//
//	go test ./internal/experiments ./internal/campaign ./examples/... -update
//
// It registers the -update flag, so only _test.go files import it.
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Updating reports whether the test binary runs with -update.
func Updating() bool { return *update }

// Check compares got with the golden file at path and reports the first
// differing line. Under -update it writes got to path instead.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if got == string(blob) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(blob), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of output>"
	}
	t.Errorf("%s: output differs at line %d (re-record with -update if intended)\n got %q\nwant %q",
		path, i+1, line(g), line(w))
}

// Stdout runs fn and returns what it wrote to os.Stdout. Nothing else
// may write to os.Stdout while fn runs.
func Stdout(t testing.TB, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out bytes.Buffer
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(&out, r)
		copied <- err
	}()
	saved := os.Stdout
	os.Stdout = w
	func() {
		defer func() {
			os.Stdout = saved
			w.Close()
		}()
		fn()
	}()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	return out.String()
}
