// Command bench is the repository benchmark. One invocation runs one
// workload in one process and prints its metrics as JSON:
//
//	bash bench/run.sh --workload write-uniform-energy --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it measures the per-layer metrics from span logs and a
// timed replay of one shard's store stack. The last line of standard
// output is {"correct", "attempted", "failed", "metrics"}; the line
// before it is the full report (workload, seed, host fingerprint and
// detail). The exit status is nonzero when any output check fails.
//
//	bash bench/run.sh --agree setA.jsonl setB.jsonl
//
// compares two sets of reports, recorded with --record, against the
// bounds in BENCHMARK.json. See bench/README.md for the workloads, the
// metrics and what each one is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"energy_pj_per_write", "pJ"},
	{"write_amplification", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"loadgen.gen_us_per_req", "us"},
	{"server.wire_bytes_per_op", "bytes"},
	{"server.overhead_us_per_req", "us"},
	{"shard.submit_block_us_per_req", "us"},
	{"shard.imbalance", "ratio"},
	{"shard.error_retries", "count"},
	{"linecache.hit_frac", "ratio"},
	{"linecache.self_ns_per_op", "ns"},
	{"linecache.coalesced_frac", "ratio"},
	{"linecache.evictions_per_kop", "1/kop"},
	{"memctrl.write_self_ns_per_line", "ns"},
	{"memctrl.read_self_ns_per_line", "ns"},
	{"memctrl.remap.self_ns_per_op", "ns"},
	{"memctrl.remap.remapped_per_kwrite", "1/kwrite"},
	{"memctrl.remap.inplace_retries_per_kwrite", "1/kwrite"},
	{"memctrl.remap.repair_failures", "count"},
	{"faultrepo.hit_frac", "ratio"},
	{"faultrepo.discovered_per_kwrite", "cells/kwrite"},
	{"device.saw_cells_per_kwrite", "cells/kwrite"},
	{"coset.encode_ns_per_word", "ns"},
	{"coset.encode_busy_frac", "ratio"},
	{"coset.decode_ns_per_line", "ns"},
	{"coset.bit_flips_per_write", "bits"},
	{"coset.cell_changes_per_write", "cells"},
	{"runtime.allocs_per_op", "allocs"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"replay.ns_per_op", "ns"},
	{"replay.attributed_frac", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: the result plus everything needed to
// interpret or compare it.
type report struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Checks   []string       `json:"failed_checks,omitempty"`
	Detail   map[string]any `json:"detail"`
	Result   result         `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed, the only input that varies between runs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, also write the kept spans to this file as JSON lines")
	record := fs.String("record", "", "append this run's report to this JSON-lines file")
	agree := fs.Bool("agree", false, "compare two recorded sets against BENCHMARK.json's bounds: --agree A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --agree needs two report files")
			return 2
		}
		return agreeSets("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	// One process generates all load; more producers than CPUs would
	// measure the scheduler instead of the system.
	if n := runtime.NumCPU(); w.streams > n {
		fmt.Fprintf(stderr, "bench: %s needs %d producers or connections but only %d CPUs are available\n", w.name, w.streams, n)
		return 2
	}

	var o *outcome
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		o, err = measureLayers(w, *seed, *traceOut)
	} else {
		o, err = measureEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{
		Correct:   o.failed == 0 && len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep := report{
		Workload: w.name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Host:     fingerprint(),
		Checks:   o.checks,
		Detail:   o.detail,
		Result:   res,
	}
	repLine, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *record != "" {
		if err := appendLine(*record, repLine); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n%s\n", repLine, resLine)
	for _, c := range o.checks {
		fmt.Fprintln(stderr, "bench: check failed:", c)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
