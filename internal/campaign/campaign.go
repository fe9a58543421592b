// Package campaign implements long-horizon scenario campaigns over the
// sharded engine: named end-to-end runs in which stuck-at cells
// accumulate under the wear model, the fault-repair remapping decorator
// relocates failing lines onto spares, Start-Gap wear leveling rotates
// hot lines, and a simulated power loss drops the volatile cache layer
// mid-stream. Where the experiments package reproduces individual paper
// figures from steady-state statistics, a campaign exercises the
// *trajectory*: how the system degrades, repairs and recovers over many
// writes, checkpointed against internal/analytic's closed-form model
// where one exists.
//
// Scenarios are registered by name in an init-time registry and are
// deterministic in their Params; cmd/vccrepro exposes them via
// -campaign <name>, and the table-driven tests in campaign_test.go run
// every registered scenario at reduced horizon under the race detector.
package campaign

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// Params configures one campaign run. Every scenario is deterministic
// in its Params: same Params, same Result.
type Params struct {
	// Seed drives all stochastic state (cell endurance, data, streams).
	Seed uint64
	// Shards is the engine shard count; 0 defaults to 1.
	Shards int
	// Lines is the logical line capacity; 0 lets the scenario choose.
	Lines int
	// Horizon is the op budget (row writes for aging scenarios, total
	// ops otherwise); 0 lets the scenario choose. The CI smoke step and
	// the unit tests pass reduced horizons through this knob.
	Horizon int64
	// Checkpoints is the number of curve points aging scenarios report;
	// 0 lets the scenario choose.
	Checkpoints int
}

// DefaultParams returns the laptop-scale defaults scenarios assume when
// a Params field is zero.
func DefaultParams(seed uint64) Params {
	return Params{Seed: seed, Shards: 1}
}

// Result is one finished campaign, rendered like an experiments.Result
// (aligned table plus notes) with an additional machine-readable
// summary for tests and smoke checks.
type Result struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Summary carries the scenario's headline scalars (e.g. the final
	// model relative error, lines repaired, lines verified) keyed by
	// stable names, so tests assert outcomes without parsing table text.
	Summary map[string]float64
}

// Table renders the rows through experiments.Result.Table under a
// "== campaign <name>: <title> ==" heading, then the summary (sorted by
// key) and the notes.
func (r *Result) Table() string {
	var b strings.Builder
	table := experiments.Result{ID: "campaign " + r.Name, Title: r.Title, Header: r.Header, Rows: r.Rows}
	b.WriteString(table.Table())
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "summary: %s = %.6g\n", k, r.Summary[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner executes one scenario.
type Runner func(p Params) *Result

// Info describes one registered scenario.
type Info struct {
	Name  string
	Title string
}

type entry struct {
	title string
	run   Runner
}

var registry = map[string]entry{}

// Register adds a named scenario; it panics on an empty name, nil
// runner, or duplicate registration (scenario files register from init,
// so a duplicate is a programming error, not a runtime condition).
func Register(name, title string, run Runner) {
	if name == "" {
		panic("campaign: empty scenario name")
	}
	if run == nil {
		panic("campaign: nil runner for " + name)
	}
	if _, dup := registry[name]; dup {
		panic("campaign: duplicate scenario " + name)
	}
	registry[name] = entry{title: title, run: run}
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns all registered scenarios sorted by name.
func List() []Info {
	infos := make([]Info, 0, len(registry))
	for _, n := range Names() {
		infos = append(infos, Info{Name: n, Title: registry[n].title})
	}
	return infos
}

// Describe returns a scenario's one-line title ("" if unknown).
func Describe(name string) string { return registry[name].title }

// Run executes one scenario by name. An unknown name returns an error
// listing the registered scenarios.
func Run(name string, p Params) (*Result, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scenario %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return e.run(p), nil
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// fmtI formats an integer cell.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }
