// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md. Every
// driver is deterministic given (mode, seed) and returns a Result that
// renders as an aligned text table or CSV; cmd/vccrepro exposes them all
// and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/linecache"
)

// Mode scales experiment size.
type Mode int

const (
	// Quick runs in seconds on a laptop; shapes and orderings are
	// stable, absolute counts are smaller than the paper's.
	Quick Mode = iota
	// Full runs the larger calibrated configuration (minutes).
	Full
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Full {
		return "full"
	}
	return "quick"
}

// Result is a rendered experiment.
type Result struct {
	ID     string
	Title  string
	Notes  []string // provenance, substitutions, expectations
	Header []string
	Rows   [][]string
}

// Table renders an aligned text table with title and notes.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result as comma-separated values (quotes are not
// needed: no cell produced by this package contains commas).
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Opts carries the knobs a driver may consult. Mode and Seed are
// meaningful to every experiment; the rest only to the sharded-replay
// drivers (plain drivers ignore them).
type Opts struct {
	Mode Mode
	Seed uint64
	// Shards is the shard count for drivers built on the sharded engine
	// (0 and 1 both mean the sequential single-shard configuration).
	Shards int
	// CacheLines fronts each shard of sharded drivers that honor it
	// (workload-sweep) with a decoded-line cache of this capacity; 0
	// (the default) runs uncached. cache-sweep sweeps its own cache
	// dimension and ignores this.
	CacheLines int
	// CachePolicy selects the cache write policy for CacheLines > 0.
	CachePolicy linecache.Policy
}

// Runner produces a Result from (mode, seed) — the signature of every
// paper-figure driver, which are deterministic in exactly those two
// inputs.
type Runner func(mode Mode, seed uint64) *Result

// OptRunner is a driver that also consults the sharded-engine knobs of
// Opts.
type OptRunner func(o Opts) *Result

// entry pairs a runner with its description.
type entry struct {
	run  OptRunner
	desc string
}

var registry = map[string]entry{}

// register is called from each driver file's init.
func register(id, desc string, run Runner) {
	registerOpts(id, desc, func(o Opts) *Result { return run(o.Mode, o.Seed) })
}

// registerOpts registers a driver that consumes the full option set.
func registerOpts(id, desc string, run OptRunner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = entry{run: run, desc: desc}
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string { return registry[id].desc }

// Run executes one experiment by id with default options.
func Run(id string, mode Mode, seed uint64) (*Result, error) {
	return RunOpts(id, Opts{Mode: mode, Seed: seed})
}

// RunOpts executes one experiment by id.
func RunOpts(id string, o Opts) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.run(o), nil
}

// RunMany executes the given experiments over a bounded worker pool and
// returns their results in ids order. Drivers are independent and
// deterministic in their options, so parallel execution returns exactly
// what sequential Run calls would; the first unknown id aborts the
// whole batch before anything runs.
func RunMany(ids []string, o Opts, workers int) ([]*Result, error) {
	entries := make([]entry, len(ids))
	for i, id := range ids {
		e, ok := registry[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
		entries[i] = e
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	results := make([]*Result, len(ids))
	if workers <= 1 {
		for i, e := range entries {
			results[i] = e.run(o)
		}
		return results, nil
	}
	ch := make(chan int, len(ids))
	for i := range ids {
		ch <- i
	}
	close(ch)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i] = entries[i].run(o)
			}
		}()
	}
	wg.Wait()
	return results, nil
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// fmtPct formats a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// fmtI formats an integer cell.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }
