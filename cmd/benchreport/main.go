// Command benchreport summarizes benchmark runs into one BENCH_<n>.json
// document and gates a fresh document against a committed one. It
// measures nothing itself: the codec results come from `go test -bench`
// text and the end-to-end workloads from `bash bench/run.sh --record`
// lines.
//
//	go test -run '^$' -bench "$PAIRS" -count 5 ./internal/coset > codec.txt
//	go run ./cmd/benchreport -codec codec.txt -runs runs.jsonl -out BENCH_21.json
//	go run ./cmd/benchreport -diff BENCH_21.json fresh.json
//	go run ./cmd/benchreport -validate BENCH_21.json   # or a cmd/loadgen summary
//
// A document stores every codec result and every end-to-end metric as
// its sample count, median and quartiles, with the fingerprint of the
// host that produced it and, for the workloads, the measured git SHA.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

const (
	schema     = "vccrepro-bench/v3"
	minSamples = 5 // the fewest runs or benchmark samples a summary may rest on
)

// Summary reduces a set of samples to its count, median and quartiles.
// The quartiles use the exclusive method of `bench/run.sh --agree`, so
// the two never disagree about the same set.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize leaves a set under minSamples at its count, which valid refuses.
func summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N >= minSamples {
		q := stats.Quartiles(xs)
		s.Median, s.Q1, s.Q3 = stats.Percentile(xs, 50), q[0], q[2]
	}
	return s
}

func (s Summary) valid() bool {
	return s.N >= minSamples && s.Q1 <= s.Median && s.Median <= s.Q3
}

// CodecHost fingerprints the machine `go test -bench` ran on, from the
// goos, goarch and cpu header lines and the GOMAXPROCS suffix of the
// benchmark names.
type CodecHost struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	Procs  int    `json:"procs"`
}

// Result is one codec benchmark: its ns/op over the samples and the
// most allocations any sample made per op.
type Result struct {
	NsPerOp     Summary `json:"ns_per_op"`
	AllocsPerOp float64 `json:"max_allocs_per_op"`
}

// Codec is the `go test -bench` half of a document, keyed by benchmark
// name without the GOMAXPROCS suffix.
type Codec struct {
	Host    CodecHost         `json:"host"`
	Results map[string]Result `json:"results"`
}

// RunHost is bench/'s host fingerprint without the git SHA.
type RunHost struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Workload is one workload's set of untraced runs.
type Workload struct {
	Seconds float64            `json:"seconds"`
	Seeds   []uint64           `json:"seeds"`
	Metrics map[string]Summary `json:"metrics"`
}

// Runs is the bench/ half of a document: one host, one commit.
type Runs struct {
	Host      RunHost             `json:"host"`
	GitSHA    string              `json:"git_sha"`
	Workloads map[string]Workload `json:"workloads"`
}

// Report is a BENCH_<n>.json document. Either half may be absent.
type Report struct {
	Schema string `json:"schema"`
	Codec  *Codec `json:"codec,omitempty"`
	Runs   *Runs  `json:"runs,omitempty"`
}

// procsSuffix is the -GOMAXPROCS suffix `go test` appends to a
// benchmark name when GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-([0-9]+)$`)

// readCodec summarizes `go test -bench` output. Every result line needs
// an allocs/op figure (b.ReportAllocs or -benchmem), and a failed
// benchmark refuses the whole file.
func readCodec(path string) (*Codec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &Codec{Results: map[string]Result{}}
	ns, allocs := map[string][]float64{}, map[string]float64{}
	headers := map[string]string{}
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "FAIL" || strings.HasPrefix(line, "FAIL\t") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("%s:%d: the benchmark run failed", path, i+1)
		}
		if key, v, ok := strings.Cut(line, ": "); ok && (key == "goos" || key == "goarch" || key == "cpu") {
			if old, seen := headers[key]; seen && old != v {
				return nil, fmt.Errorf("%s:%d: %s changes from %s to %s", path, i+1, key, old, v)
			}
			headers[key] = v
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's log output, not a result line
		}
		name, procs := f[0], 1
		if m := procsSuffix.FindStringSubmatch(name); m != nil {
			name = strings.TrimSuffix(name, m[0])
			procs, _ = strconv.Atoi(m[1])
		}
		if c.Host.Procs != 0 && c.Host.Procs != procs {
			return nil, fmt.Errorf("%s:%d: GOMAXPROCS changes from %d to %d", path, i+1, c.Host.Procs, procs)
		}
		c.Host.Procs = procs
		nsOp, allocsOp := -1.0, -1.0
		for k := 2; k+1 < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
			}
			switch f[k+1] {
			case "ns/op":
				nsOp = v
			case "allocs/op":
				allocsOp = v
			}
		}
		if nsOp < 0 || allocsOp < 0 {
			return nil, fmt.Errorf("%s:%d: %s has no ns/op or no allocs/op (run with -benchmem)", path, i+1, name)
		}
		ns[name] = append(ns[name], nsOp)
		allocs[name] = max(allocs[name], allocsOp)
	}
	c.Host.GOOS, c.Host.GOARCH, c.Host.CPU = headers["goos"], headers["goarch"], headers["cpu"]
	for name, xs := range ns {
		c.Results[name] = Result{NsPerOp: summarize(xs), AllocsPerOp: allocs[name]}
	}
	return c, nil
}

// record is the part of a `bench/run.sh --record` line read here.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     struct {
		RunHost
		GitSHA string `json:"git_sha"`
	} `json:"host"`
	Result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// readRuns summarizes recorded bench/ runs per workload. Traced runs
// are skipped, as `--agree` skips them. A run that failed its checks,
// and records from more than one host or commit, refuse the whole file.
func readRuns(path string) (*Runs, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs := &Runs{Workloads: map[string]Workload{}}
	values := map[string]map[string][]float64{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for i := 0; dec.More(); i++ {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its checks", path, i+1, rec.Workload, rec.Seed)
		}
		if len(values) == 0 {
			runs.Host, runs.GitSHA = rec.Host.RunHost, rec.Host.GitSHA
		} else if rec.Host.RunHost != runs.Host || rec.Host.GitSHA != runs.GitSHA {
			return nil, fmt.Errorf("%s:%d: host %+v at %s differs from the first run's %+v at %s",
				path, i+1, rec.Host.RunHost, rec.Host.GitSHA, runs.Host, runs.GitSHA)
		}
		w, seen := runs.Workloads[rec.Workload]
		if !seen {
			w.Seconds = rec.Seconds
			values[rec.Workload] = map[string][]float64{}
		} else if w.Seconds != rec.Seconds {
			return nil, fmt.Errorf("%s:%d: %s ran %gs, earlier runs %gs", path, i+1, rec.Workload, rec.Seconds, w.Seconds)
		}
		w.Seeds = append(w.Seeds, rec.Seed)
		runs.Workloads[rec.Workload] = w
		for name, m := range rec.Result.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
	}
	for name, w := range runs.Workloads {
		slices.Sort(w.Seeds)
		w.Metrics = map[string]Summary{}
		for metric, xs := range values[name] {
			w.Metrics[metric] = summarize(xs)
		}
		runs.Workloads[name] = w
	}
	return runs, nil
}

// parseReport decodes and checks a document: schema v3, at least one
// half, and every summary on at least minSamples samples with ordered
// quartiles.
func parseReport(raw []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	switch {
	case rep.Schema != schema:
		return nil, fmt.Errorf("schema %q is not %s (earlier BENCH files are history, kept but not read)", rep.Schema, schema)
	case rep.Codec == nil && rep.Runs == nil:
		return nil, fmt.Errorf("no codec results and no workloads")
	case rep.Codec != nil && len(rep.Codec.Results) == 0:
		return nil, fmt.Errorf("empty codec section")
	case rep.Runs != nil && (rep.Runs.GitSHA == "" || len(rep.Runs.Workloads) == 0):
		return nil, fmt.Errorf("runs section without a git SHA or workloads")
	}
	if rep.Codec != nil {
		for name, r := range rep.Codec.Results {
			if !r.NsPerOp.valid() || r.AllocsPerOp < 0 {
				return nil, fmt.Errorf("%s: ns/op %+v, %g allocs/op: want %d or more samples (-count), ordered quartiles",
					name, r.NsPerOp, r.AllocsPerOp, minSamples)
			}
		}
	}
	if rep.Runs != nil {
		for name, w := range rep.Runs.Workloads {
			if len(w.Seeds) < minSamples || len(w.Metrics) == 0 {
				return nil, fmt.Errorf("%s: %d runs with %d metrics, want %d or more runs", name, len(w.Seeds), len(w.Metrics), minSamples)
			}
			for metric, s := range w.Metrics {
				if !s.valid() {
					return nil, fmt.Errorf("%s: malformed %s %+v", name, metric, s)
				}
			}
		}
	}
	return &rep, nil
}

// loadgenSummary is the subset of cmd/loadgen's report (schema
// vccrepro-loadgen/*) -validate reads.
type loadgenSummary struct {
	Schema      string  `json:"schema"`
	OpsDone     int64   `json:"ops_done"`
	ThroughputO float64 `json:"throughput_ops_per_sec"`
	// Final failures: requests that exhausted loadgen's retry budget
	// (with retries disabled, every failure). These gate cleanliness.
	ErrorResps int64 `json:"error_responses"`
	Transport  int64 `json:"transport_errors"`
	// Retries counts recovered failures (schema v2, loadgen -retries),
	// which never fail the check.
	Retries int64 `json:"retries"`
	Latency struct {
		P50 uint64 `json:"p50_ns"`
		P95 uint64 `json:"p95_ns"`
		P99 uint64 `json:"p99_ns"`
	} `json:"latency_ns"`
}

// checkLoadgen parses and sanity-checks a loadgen summary blob: right
// schema family, a run that actually moved data, cleanly, with a
// coherent latency histogram. "Cleanly" means no FINAL failures —
// faults that loadgen's retry budget recovered (schema v2 counters)
// are fine, so a chaos smoke run that rode out injected device errors
// still validates.
func checkLoadgen(raw []byte) (loadgenSummary, error) {
	var s loadgenSummary
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, err
	}
	if !strings.HasPrefix(s.Schema, "vccrepro-loadgen") {
		return s, fmt.Errorf("schema %q is not a vccrepro-loadgen summary", s.Schema)
	}
	if s.OpsDone <= 0 || s.ThroughputO <= 0 {
		return s, fmt.Errorf("no completed ops (ops_done=%d, %.0f ops/s)", s.OpsDone, s.ThroughputO)
	}
	if s.ErrorResps != 0 || s.Transport != 0 {
		return s, fmt.Errorf("unclean run: %d error responses, %d transport errors",
			s.ErrorResps, s.Transport)
	}
	if s.Latency.P50 > s.Latency.P95 || s.Latency.P95 > s.Latency.P99 {
		return s, fmt.Errorf("non-monotone latency quantiles p50=%d p95=%d p99=%d",
			s.Latency.P50, s.Latency.P95, s.Latency.P99)
	}
	return s, nil
}

// validate checks either document family by schema: bench documents
// and standalone cmd/loadgen summaries (the CI serve and chaos smoke
// steps run `benchreport -validate summary.json` on the latter).
func validate(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sniff Report
	if err := json.Unmarshal(raw, &sniff); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if strings.HasPrefix(sniff.Schema, "vccrepro-loadgen") {
		s, err := checkLoadgen(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (%d ops, %.0f ops/s, %d retries recovered, schema %s)\n",
			path, s.OpsDone, s.ThroughputO, s.Retries, s.Schema)
		return nil
	}
	rep, err := parseReport(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok (schema %s)\n", path, rep.Schema)
	return nil
}

// write records a document from either or both inputs.
func write(codecPath, runsPath, out string) error {
	rep := Report{Schema: schema}
	var err error
	if codecPath != "" {
		if rep.Codec, err = readCodec(codecPath); err != nil {
			return err
		}
	}
	if runsPath != "" {
		if rep.Runs, err = readRuns(runsPath); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		_, err = parseReport(buf) // the checks -validate and -diff apply
	}
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

// bound is one end-to-end metric of BENCHMARK.json: how much worse than
// the base median a fresh median may be, as a share of the base.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// seedOnly names the end-to-end metrics that depend on the seed alone
// (bench/README.md), so they gate across hosts; timings gate same-host.
var seedOnly = map[string]bool{"energy_pj_per_write": true, "write_amplification": true}

func loadBounds(path string) ([]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// diff gates the document at freshPath against the one at basePath.
func diff(basePath, freshPath, boundsPath string) error {
	var docs [2]*Report
	for i, path := range []string{basePath, freshPath} {
		raw, err := os.ReadFile(path)
		if err == nil {
			docs[i], err = parseReport(raw)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	if fails := diffReports(docs[0], docs[1], bounds); len(fails) > 0 {
		return fmt.Errorf("%d regressions:\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	fmt.Println("diff: no regressions")
	return nil
}

// diffReports prints every comparison and returns the regressions.
// Anything missing on either side prints as new or skipped, never fails.
func diffReports(base, fresh *Report, bounds []bound) []string {
	var fails []string
	if base.Codec != nil && fresh.Codec != nil {
		fails = append(fails, diffCodec(base.Codec, fresh.Codec)...)
	} else {
		fmt.Println("codec results: skipped, not on both sides")
	}
	if base.Runs != nil && fresh.Runs != nil {
		fails = append(fails, diffRuns(base.Runs, fresh.Runs, bounds)...)
	} else {
		fmt.Println("workloads: skipped, not on both sides")
	}
	return fails
}

// diffCodec gates the codec results. On any host, a result the base
// holds at 0 allocs/op must stay at 0, and a /fast result whose /ref
// sibling's base ratio of medians is at least 2 must keep a ratio of
// at least max(2, base/3): both sides of a ratio share one run. Only
// when the host fingerprints are equal field for field does a median
// above 2.5x the base's plus 50 ns fail.
func diffCodec(base, fresh *Codec) []string {
	var fails []string
	sameHost := base.Host == fresh.Host
	fmt.Printf("codec results (same host: %v)\n", sameHost)
	for _, name := range slices.Sorted(maps.Keys(fresh.Results)) {
		fr := fresh.Results[name]
		br, ok := base.Results[name]
		if !ok {
			fmt.Printf("  %-60s new, no baseline\n", name)
			continue
		}
		status := "ok"
		if br.AllocsPerOp == 0 && fr.AllocsPerOp > 0 {
			status = "ALLOC REGRESSION"
			fails = append(fails, fmt.Sprintf("%s: %g allocs/op, baseline 0", name, fr.AllocsPerOp))
		}
		if sameHost && fr.NsPerOp.Median > 2.5*br.NsPerOp.Median+50 {
			status = "NS/OP REGRESSION"
			fails = append(fails, fmt.Sprintf("%s: %.0f ns/op, baseline %.0f", name, fr.NsPerOp.Median, br.NsPerOp.Median))
		}
		fmt.Printf("  %-60s %10.1f ns/op (base %10.1f) %3g allocs (base %g)  %s\n",
			name, fr.NsPerOp.Median, br.NsPerOp.Median, fr.AllocsPerOp, br.AllocsPerOp, status)
	}
	for _, name := range slices.Sorted(maps.Keys(base.Results)) {
		if _, ok := fresh.Results[name]; !ok {
			fmt.Printf("  %-60s skipped, not in the fresh document\n", name)
		}
	}
	baseSp, freshSp := speedupPairs(base), speedupPairs(fresh)
	for _, name := range slices.Sorted(maps.Keys(baseSp)) {
		bs := baseSp[name]
		fs, ok := freshSp[name]
		if !ok {
			continue
		}
		floor := max(2, bs/3)
		status := "ok"
		switch {
		case bs < 2:
			status = "not gated, base under 2x"
		case fs < floor:
			status = "SPEEDUP REGRESSION"
			fails = append(fails, fmt.Sprintf("%s: ref/fast %.2fx, baseline %.2fx (floor %.2fx)", name, fs, bs, floor))
		}
		fmt.Printf("  speedup %-52s %6.2fx (base %6.2fx, floor %5.2fx)  %s\n", name, fs, bs, floor, status)
	}
	return fails
}

// speedupPairs derives every ref/fast ratio of median ns/op: for each
// ".../fast" result with a ".../ref" sibling, the ratio under the
// common prefix.
func speedupPairs(c *Codec) map[string]float64 {
	out := map[string]float64{}
	for name, r := range c.Results {
		prefix, ok := strings.CutSuffix(name, "/fast")
		if !ok || r.NsPerOp.Median <= 0 {
			continue
		}
		if ref, ok := c.Results[prefix+"/ref"]; ok {
			out[prefix] = ref.NsPerOp.Median / r.NsPerOp.Median
		}
	}
	return out
}

// diffRuns gates the end-to-end metrics one-sidedly: a fresh median
// worse than the base median by more than the metric's bound fails.
// The seed-only metrics gate on any host, the timings only when the
// host fingerprints are equal.
func diffRuns(base, fresh *Runs, bounds []bound) []string {
	var fails []string
	sameHost := base.Host == fresh.Host
	fmt.Printf("workloads at %s, base at %s (same host: %v)\n", fresh.GitSHA, base.GitSHA, sameHost)
	for _, name := range slices.Sorted(maps.Keys(fresh.Workloads)) {
		bw, ok := base.Workloads[name]
		if !ok {
			fmt.Printf("  %-48s new, no baseline\n", name)
			continue
		}
		for _, b := range bounds {
			label := name + "/" + b.Name
			bm, okb := bw.Metrics[b.Name]
			fm, okf := fresh.Workloads[name].Metrics[b.Name]
			if !okb || !okf {
				fmt.Printf("  %-48s skipped, not on both sides\n", label)
				continue
			}
			worse := fm.Median - bm.Median
			if b.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case !sameHost && !seedOnly[b.Name]:
				status = "not gated across hosts"
			case worse > b.Bound*math.Abs(bm.Median):
				status = "REGRESSION"
				fails = append(fails, fmt.Sprintf("%s: median %.6g, baseline %.6g, bound %g (%s is better)",
					label, fm.Median, bm.Median, b.Bound, b.Better))
			}
			fmt.Printf("  %-48s %12.6g (base %12.6g, n %d/%d)  %s\n", label, fm.Median, bm.Median, fm.N, bm.N, status)
		}
	}
	return fails
}

func main() {
	codecPath := flag.String("codec", "", "output of go test -bench holding the codec results")
	runsPath := flag.String("runs", "", "JSON lines recorded by bash bench/run.sh --record")
	out := flag.String("out", "", "path of the document -codec and -runs write")
	diffBase := flag.String("diff", "", "baseline document to gate the document named by the argument against")
	validatePath := flag.String("validate", "", "check a bench document or a cmd/loadgen summary")
	flag.Parse()

	var err error
	switch {
	case *validatePath != "":
		err = validate(*validatePath)
	case *diffBase != "" && flag.NArg() == 1:
		err = diff(*diffBase, flag.Arg(0), "BENCHMARK.json")
	case (*codecPath != "" || *runsPath != "") && *out != "":
		err = write(*codecPath, *runsPath, *out)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchreport -codec FILE -runs FILE -out FILE | -diff BASE FRESH | -validate FILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
