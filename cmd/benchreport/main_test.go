package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// five returns a summary of five samples centred on median.
func five(median float64) Summary {
	return Summary{N: 5, Median: median, Q1: 0.98 * median, Q3: 1.02 * median}
}

var testBounds = []bound{
	{Name: "ops_per_s", Better: "higher", Bound: 0.25},
	{Name: "energy_pj_per_write", Better: "lower", Bound: 0.006},
}

const (
	fastName = "BenchmarkEncode/VCC-Gen(16,256)/MLC/energy+saw/fast"
	refName  = "BenchmarkEncode/VCC-Gen(16,256)/MLC/energy+saw/ref"
	wue      = "write-uniform-energy"
)

func diffFixture() (*Report, *Report) {
	mk := func() *Report {
		return &Report{
			Schema: schema,
			Codec: &Codec{
				Host: CodecHost{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", Procs: 2},
				Results: map[string]Result{
					fastName: {NsPerOp: five(1700)},
					refName:  {NsPerOp: five(15700)},
				},
			},
			Runs: &Runs{
				Host:   RunHost{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
				GitSHA: "abc",
				Workloads: map[string]Workload{wue: {
					Seconds: 20, Seeds: []uint64{1, 2, 3, 4, 5},
					Metrics: map[string]Summary{"ops_per_s": five(100000), "energy_pj_per_write": five(3127)},
				}},
			},
		}
	}
	return mk(), mk()
}

// setNs gives a codec result a new median ns/op.
func setNs(c *Codec, name string, median float64) {
	r := c.Results[name]
	r.NsPerOp = five(median)
	c.Results[name] = r
}

func hasFail(fails []string, substr string) bool {
	return slices.ContainsFunc(fails, func(f string) bool { return strings.Contains(f, substr) })
}

func TestDiffReportsCleanRunPasses(t *testing.T) {
	base, fresh := diffFixture()
	if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
		t.Fatalf("identical reports flagged: %v", fails)
	}
}

func TestDiffReportsCatchesEncodeAllocRegression(t *testing.T) {
	base, fresh := diffFixture()
	fresh.Codec.Results[fastName] = Result{NsPerOp: five(1700), AllocsPerOp: 2}
	fresh.Codec.Host.CPU = "Epyc" // gates on any host
	if fails := diffReports(base, fresh, testBounds); !hasFail(fails, "allocs/op") {
		t.Fatalf("0→2 encode allocs/op not flagged: %v", fails)
	}
}

func TestDiffReportsCatchesSpeedupRegression(t *testing.T) {
	base, fresh := diffFixture()
	setNs(fresh.Codec, fastName, 4*1700) // speedup 9.2x -> 2.3x, under the 9.2/3 floor
	fresh.Codec.Host.CPU = "Epyc"        // gates on any host
	if fails := diffReports(base, fresh, testBounds); !hasFail(fails, "ref/fast") {
		t.Fatalf("speedup collapse not flagged: %v", fails)
	}
}

func TestDiffReportsNsGateNeedsMatchingHost(t *testing.T) {
	base, fresh := diffFixture()
	// Keep the fast/ref ratio intact so only the absolute gate could
	// fire: both sides slow down 4x (a slower machine, not a
	// regression).
	setNs(fresh.Codec, fastName, 4*1700)
	setNs(fresh.Codec, refName, 4*15700)
	for _, h := range []CodecHost{{"linux", "amd64", "Epyc", 2}, {"linux", "amd64", "Xeon", 4}} {
		fresh.Codec.Host = h
		if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
			t.Fatalf("cross-host slowdown flagged on %+v: %v", fresh.Codec.Host, fails)
		}
	}
	// Same host: the 4x movement is a real regression.
	fresh.Codec.Host = base.Codec.Host
	if fails := diffReports(base, fresh, testBounds); !hasFail(fails, "ns/op") {
		t.Fatalf("same-host 4x ns/op regression not flagged: %v", fails)
	}
}

func TestDiffReportsToleratesMetricsMissingFromBase(t *testing.T) {
	// Results and metrics the base lacks print as new and never fail,
	// and neither does a half missing on either side (the codec-only
	// document CI writes has no workloads).
	base, fresh := diffFixture()
	fresh.Codec.Results["BenchmarkDecode/vcc_stored256/fast"] = Result{NsPerOp: five(40), AllocsPerOp: 3}
	fresh.Codec.Results["BenchmarkDecode/vcc_stored256/ref"] = Result{NsPerOp: five(200)}
	delete(fresh.Codec.Results, refName)
	fresh.Runs.Workloads[wue].Metrics["p99_us"] = five(1e9)
	bounds := append(testBounds, bound{Name: "p99_us", Better: "lower", Bound: 0.25})
	if fails := diffReports(base, fresh, bounds); len(fails) != 0 {
		t.Fatalf("metrics missing from base flagged: %v", fails)
	}
	fresh.Runs = nil
	if fails := diffReports(base, fresh, bounds); len(fails) != 0 {
		t.Fatalf("codec-only document flagged: %v", fails)
	}
	base.Codec = nil
	if fails := diffReports(base, fresh, bounds); len(fails) != 0 {
		t.Fatalf("codec results missing from base flagged: %v", fails)
	}
}

func TestDiffLoadgenNewVsOldBaseline(t *testing.T) {
	// The served view is bench/'s served workloads. Against a base that
	// predates them, or the codec-only document CI writes, they are new,
	// never a failure, however far their numbers sit from the others'.
	base, fresh := diffFixture()
	served := Workload{Seconds: 20, Seeds: []uint64{1, 2, 3, 4, 5}, Metrics: map[string]Summary{"ops_per_s": five(1)}}
	fresh.Runs.Workloads["served-uniform-rw"], fresh.Runs.Workloads["served-zipf-cached"] = served, served
	for _, runs := range []*Runs{base.Runs, nil} {
		base.Runs = runs
		if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
			t.Fatalf("served workloads missing from base %+v flagged: %v", runs, fails)
		}
	}
}

func TestDiffReportsEnergyGatesAcrossHosts(t *testing.T) {
	base, fresh := diffFixture()
	fresh.Runs.Host.NumCPU = 8
	fresh.Runs.Workloads[wue].Metrics["energy_pj_per_write"] = five(3127 * 1.005) // within 0.006
	if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
		t.Fatalf("energy within its bound flagged: %v", fails)
	}
	fresh.Runs.Workloads[wue].Metrics["energy_pj_per_write"] = five(3127 * 1.01)
	if fails := diffReports(base, fresh, testBounds); !hasFail(fails, "energy_pj_per_write") {
		t.Fatalf("cross-host energy regression not flagged: %v", fails)
	}
	// One-sided: less energy is better, never a failure.
	fresh.Runs.Workloads[wue].Metrics["energy_pj_per_write"] = five(3127 * 0.5)
	if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
		t.Fatalf("energy improvement flagged: %v", fails)
	}
}

func TestDiffReportsThroughputGateIsHostScoped(t *testing.T) {
	base, fresh := diffFixture()
	fresh.Runs.Workloads[wue].Metrics["ops_per_s"] = five(70000) // 30% fewer ops/s
	if fails := diffReports(base, fresh, testBounds); !hasFail(fails, "ops_per_s") {
		t.Fatalf("same-host throughput drop not flagged: %v", fails)
	}
	fresh.Runs.Host.GoVersion = "go1.25.0"
	if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
		t.Fatalf("cross-host throughput delta flagged: %v", fails)
	}
	fresh.Runs.Host = base.Runs.Host
	fresh.Runs.Workloads[wue].Metrics["ops_per_s"] = five(80000) // within 0.25
	if fails := diffReports(base, fresh, testBounds); len(fails) != 0 {
		t.Fatalf("throughput within its bound flagged: %v", fails)
	}
}

func TestSpeedupPairs(t *testing.T) {
	base, _ := diffFixture()
	sp := speedupPairs(base.Codec)
	got, ok := sp[strings.TrimSuffix(fastName, "/fast")]
	if !ok || len(sp) != 1 {
		t.Fatalf("fast/ref pair not derived: %v", sp)
	}
	if got < 9.2 || got > 9.3 {
		t.Fatalf("speedup = %.3f, want 15700/1700", got)
	}
}

func TestLoadBoundsReadsBenchmarkJSON(t *testing.T) {
	bounds, err := loadBounds(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bound{}
	for _, b := range bounds {
		got[b.Name] = b
	}
	if len(got) != 7 || got["ops_per_s"].Better != "higher" || got["energy_pj_per_write"].Bound != 0.006 {
		t.Fatalf("end-to-end bounds = %+v", bounds)
	}
	for _, b := range bounds {
		if b.Better != "higher" && b.Better != "lower" || b.Bound <= 0 {
			t.Errorf("bound %+v: want better higher or lower and a positive bound", b)
		}
	}
	for name := range seedOnly {
		if _, ok := got[name]; !ok {
			t.Errorf("seed-only metric %s has no bound", name)
		}
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// codecText renders count samples of one fast/ref pair in Go's
// benchmark format, GOMAXPROCS suffix included.
func codecText(count int) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/coset\ncpu: Intel(R) Xeon(R) Processor\n")
	for i := 0; i < count; i++ {
		fmt.Fprintf(&b, "BenchmarkDecode/vcc_gen256/fast-2   \t 1000000\t %d ns/op\t       0 B/op\t       0 allocs/op\n", 70+i)
		fmt.Fprintf(&b, "BenchmarkDecode/vcc_gen256/ref-2    \t  100000\t %d ns/op\t       0 B/op\t       %d allocs/op\n", 1500+10*i, i%2)
	}
	b.WriteString("PASS\nok  \trepro/internal/coset\t12.3s\n")
	return b.String()
}

// recordDoc writes a document from codec text and run lines, as
// `benchreport -codec -runs -out` does (an empty input is left out),
// and returns its path.
func recordDoc(t *testing.T, codec, runs string) (string, error) {
	t.Helper()
	var codecPath, runsPath string
	if codec != "" {
		codecPath = writeFile(t, "codec.txt", codec)
	}
	if runs != "" {
		runsPath = writeFile(t, "runs.jsonl", runs)
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	return out, write(codecPath, runsPath, out)
}

func TestReadCodec(t *testing.T) {
	c, err := readCodec(writeFile(t, "codec.txt", codecText(5)))
	if err != nil {
		t.Fatal(err)
	}
	want := CodecHost{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", Procs: 2}
	if c.Host != want {
		t.Errorf("host %+v, want %+v", c.Host, want)
	}
	fast, ref := c.Results["BenchmarkDecode/vcc_gen256/fast"], c.Results["BenchmarkDecode/vcc_gen256/ref"]
	if len(c.Results) != 2 || fast.NsPerOp != (Summary{5, 72, 70.5, 73.5}) || fast.AllocsPerOp != 0 {
		t.Errorf("results %+v, want the fast and ref pair, fast at median 72", c.Results)
	}
	if ref.NsPerOp.Median != 1520 || ref.AllocsPerOp != 1 {
		t.Errorf("ref = %+v, want median 1520 and max allocs 1", ref)
	}

	for name, text := range map[string]string{
		"four samples":  codecText(4),
		"failed run":    codecText(5) + "--- FAIL: BenchmarkDecode/vcc_gen256/fast\nFAIL\n",
		"no allocs/op":  "goos: linux\nBenchmarkX-2 \t 10\t 5 ns/op\n",
		"two CPUs":      codecText(5) + "cpu: AMD EPYC\n",
		"mixed procs":   codecText(5) + "BenchmarkDecode/vcc_gen256/fast-4 \t 10\t 5 ns/op\t 0 allocs/op\n",
		"no benchmarks": "goos: linux\nPASS\n",
	} {
		if _, err := recordDoc(t, text, ""); err == nil {
			t.Errorf("recorded codec text with %s", name)
		}
	}
}

// runLine renders one `bench/run.sh --record` report line.
func runLine(workload string, seed uint64, sha string, correct, trace bool, opsPerS float64) string {
	return fmt.Sprintf(`{"workload":%q,"seed":%d,"seconds":20,"trace":%v,`+
		`"host":{"nproc":2,"gomaxprocs":2,"go_version":"go1.24.0","git_sha":%q},"detail":{},`+
		`"result":{"correct":%v,"attempted":100,"failed":0,"metrics":{"ops_per_s":{"value":%g,"unit":"ops/s"},"energy_pj_per_write":{"value":3127.5,"unit":"pJ"}}}}`,
		workload, seed, trace, sha, correct, opsPerS)
}

func runLines(n int, sha string) []string {
	var lines []string
	for seed := uint64(1); seed <= uint64(n); seed++ {
		lines = append(lines, runLine("aged-remap-saw", seed, sha, true, false, 1000*float64(seed)))
	}
	return lines
}

func TestReadRuns(t *testing.T) {
	lines := append(runLines(5, "abc"), runLine("aged-remap-saw", 9, "abc", false, true, 1)) // traced, skipped
	runs, err := readRuns(writeFile(t, "runs.jsonl", strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if runs.GitSHA != "abc" || runs.Host != (RunHost{2, 2, "go1.24.0"}) || len(runs.Workloads) != 1 {
		t.Fatalf("runs = %+v", runs)
	}
	w := runs.Workloads["aged-remap-saw"]
	if fmt.Sprint(w.Seeds) != "[1 2 3 4 5]" || w.Seconds != 20 {
		t.Errorf("seeds %v over %gs, want seeds 1-5 over 20s", w.Seeds, w.Seconds)
	}
	if got := w.Metrics["ops_per_s"]; got != (Summary{5, 3000, 1500, 4500}) {
		t.Errorf("ops_per_s = %+v, want the exclusive quartiles of 1000..5000", got)
	}
	if got := w.Metrics["energy_pj_per_write"]; got != (Summary{5, 3127.5, 3127.5, 3127.5}) {
		t.Errorf("energy_pj_per_write = %+v", got)
	}
}

func TestRecordRefusesIncorrectRun(t *testing.T) {
	lines := append(runLines(5, "abc"), runLine("aged-remap-saw", 6, "abc", false, false, 1000))
	if _, err := recordDoc(t, "", strings.Join(lines, "\n")); err == nil {
		t.Fatal("a run that failed its checks was recorded")
	}
}

func TestRecordRefusesMixedSHAs(t *testing.T) {
	lines := append(runLines(5, "abc"), runLines(5, "def")...)
	if _, err := recordDoc(t, "", strings.Join(lines, "\n")); err == nil {
		t.Fatal("runs of two commits were recorded as one")
	}
	lines = append(runLines(5, "abc"), strings.Replace(runLine("aged-remap-saw", 6, "abc", true, false, 1), `"nproc":2`, `"nproc":4`, 1))
	if _, err := recordDoc(t, "", strings.Join(lines, "\n")); err == nil {
		t.Fatal("runs of two hosts were recorded as one")
	}
}

func TestRecordRefusesFewerThanFiveRuns(t *testing.T) {
	if _, err := recordDoc(t, "", strings.Join(runLines(4, "abc"), "\n")); err == nil {
		t.Fatal("a workload with four runs was recorded")
	}
	lines := append(runLines(5, "abc"), runLine("write-uniform-energy", 1, "abc", true, false, 1))
	if _, err := recordDoc(t, "", strings.Join(lines, "\n")); err == nil {
		t.Fatal("a workload with one run was recorded")
	}
	traced := append(runLines(4, "abc"), runLine("aged-remap-saw", 5, "abc", true, true, 1))
	if _, err := recordDoc(t, "", strings.Join(traced, "\n")); err == nil {
		t.Fatal("a traced run counted toward the five")
	}
}

func TestRecordedDocumentValidatesAndDiffsClean(t *testing.T) {
	out, err := recordDoc(t, codecText(5), strings.Join(runLines(5, "abc"), "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(out); err != nil {
		t.Fatal(err)
	}
	if err := diff(out, out, filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Fatalf("a document diffed against itself: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	good := `{"schema":"vccrepro-bench/v3","codec":{"host":{},"results":{"BenchmarkX":{"ns_per_op":{"n":5,"median":2,"q1":1,"q3":3},"max_allocs_per_op":0}}}}`
	if _, err := parseReport([]byte(good)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"v2 history":     `{"schema":"vccrepro-bench/v2","results":[{"name":"x","iterations":1,"ns_per_op":1}]}`,
		"empty":          `{"schema":"vccrepro-bench/v3"}`,
		"four samples":   strings.Replace(good, `"n":5`, `"n":4`, 1),
		"unordered":      strings.Replace(good, `"q1":1`, `"q1":2.5`, 1),
		"runs sans sha":  `{"schema":"vccrepro-bench/v3","runs":{"host":{},"workloads":{"w":{}}}}`,
		"few seeds":      `{"schema":"vccrepro-bench/v3","runs":{"host":{},"git_sha":"abc","workloads":{"w":{"seeds":[1],"metrics":{"m":{"n":5,"median":2,"q1":1,"q3":3}}}}}}`,
		"not even json":  `{`,
		"foreign schema": `{"schema":"something-else"}`,
	} {
		if _, err := parseReport([]byte(doc)); err == nil {
			t.Errorf("parseReport accepted %s", name)
		} else if name == "v2 history" && !strings.Contains(err.Error(), "history") {
			t.Errorf("v2 rejected without saying it is history: %v", err)
		}
	}
}

func loadgenBlob(throughput float64, errResps, transport int64) []byte {
	return []byte(fmt.Sprintf(`{
		"schema": "vccrepro-loadgen/v1",
		"clients": 8, "tenants": 2, "requests": 400, "ops_done": 6400,
		"throughput_ops_per_sec": %g,
		"error_responses": %d, "transport_errors": %d,
		"latency_ns": {"p50_ns": 900000, "p95_ns": 1800000, "p99_ns": 2300000}
	}`, throughput, errResps, transport))
}

func TestCheckLoadgen(t *testing.T) {
	if _, err := checkLoadgen(loadgenBlob(100000, 0, 0)); err != nil {
		t.Fatalf("clean summary rejected: %v", err)
	}
	for name, blob := range map[string][]byte{
		"wrong-schema":  []byte(`{"schema": "vccrepro-bench/v2"}`),
		"zero-ops":      []byte(`{"schema": "vccrepro-loadgen/v1", "ops_done": 0}`),
		"non-monotone":  []byte(`{"schema": "vccrepro-loadgen/v1", "ops_done": 1, "throughput_ops_per_sec": 1, "latency_ns": {"p50_ns": 5, "p95_ns": 3, "p99_ns": 9}}`),
		"not-even-json": []byte(`{`),
	} {
		if _, err := checkLoadgen(blob); err == nil {
			t.Errorf("checkLoadgen accepted %s summary", name)
		}
	}
}

func TestDiffLoadgenCatchesUncleanRun(t *testing.T) {
	// Final failures gate absolutely, with no baseline: an error response
	// or a transport error that outlived the retry budget fails
	// -validate, which the serve and chaos smoke steps run.
	for _, blob := range [][]byte{loadgenBlob(100000, 3, 0), loadgenBlob(100000, 0, 1)} {
		if err := validate(writeFile(t, "summary.json", string(blob))); err == nil || !strings.Contains(err.Error(), "unclean") {
			t.Errorf("-validate = %v on %s, want an unclean run", err, blob)
		}
	}
}
