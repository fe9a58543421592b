// Command benchreport runs the repository's key encode and engine
// benchmarks with a self-contained timing harness and writes a
// machine-readable JSON report (BENCH_<n>.json at the repo root is the
// per-PR perf trajectory). Every full run also appends one line to an
// append-only history (BENCH_HISTORY.jsonl: timestamp, git SHA, host
// fingerprint, results), and a diff mode compares a fresh run against a
// committed baseline with noise-aware thresholds — CI fails on large
// regressions instead of trusting the numbers in the snapshot.
//
// Usage:
//
//	go run ./cmd/benchreport                      # ~1s per benchmark, writes BENCH_9.json
//	go run ./cmd/benchreport -benchtime 1x        # one iteration each (CI smoke)
//	go run ./cmd/benchreport -benchtime 500ms -out /tmp/bench.json
//	go run ./cmd/benchreport -validate BENCH_9.json
//	go run ./cmd/benchreport -validate summary.json        # a cmd/loadgen summary
//	go run ./cmd/benchreport -diff BENCH_8.json -in BENCH_9.json
//	go run ./cmd/benchreport -loadgen summary.json         # embed served-engine numbers
//	go run ./cmd/benchreport -profile -match encode/vcc_gen256 -topn 10
//
// The report includes the fast-vs-reference encode and line-decode
// pairs plus reduced-horizon scenario-campaign summaries (-campaigns)
// and, with -loadgen, a cmd/loadgen served-engine summary, so the perf
// trajectory, the lifetime-extension trajectory and the network-path
// throughput ride the same diff gate. Headline named metrics: the VCC MLC energy+SAW encode
// speedup (speedup_vcc_mlc_energy_saw, the nibble-table PR's >= 3.3x
// acceptance), the stored-ROM SLC encode speedup
// (speedup_vcc_stored_slc_energy_saw, the line-batched pipeline PR's
// >= 2.5x acceptance), the stored line-decode speedup, and the
// engine-scoped per-line write cost. -profile captures a pprof CPU
// profile per benchmark and prints a top-N hot-function table (decoded
// in-process, no external tooling), so "what is hot now" is one command
// away and optimization claims can cite profiles instead of guesses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	vcc "repro"
	"repro/internal/bitutil"
	"repro/internal/campaign"
	"repro/internal/coset"
	"repro/internal/pcm"
	"repro/internal/prng"
	"repro/internal/workload"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// Host is the machine fingerprint attached to reports and history
// entries. Absolute ns/op numbers are only comparable between runs
// whose fingerprints match; ratio metrics (speedups, allocs) gate
// across hosts.
type Host struct {
	Hostname  string `json:"hostname"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

func hostFingerprint() Host {
	hn, err := os.Hostname()
	if err != nil {
		hn = "unknown"
	}
	return Host{
		Hostname:  hn,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// Report is the full JSON document.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Host      Host     `json:"host"`
	GitSHA    string   `json:"git_sha,omitempty"`
	Timestamp string   `json:"timestamp,omitempty"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
	// SpeedupVCCMLCEnergySAW is ref/fast ns/op of the VCC MLC energy+SAW
	// encode microbenchmark — the fast-path PR's acceptance metric.
	SpeedupVCCMLCEnergySAW float64 `json:"speedup_vcc_mlc_energy_saw,omitempty"`
	// SpeedupVCCStoredSLCEnergySAW is ref/fast on the stored-ROM SLC
	// energy+SAW encode — the stored-kernel fast-scan acceptance metric
	// (required >= 2.5x by the line-batched pipeline PR).
	SpeedupVCCStoredSLCEnergySAW float64 `json:"speedup_vcc_stored_slc_energy_saw,omitempty"`
	// SpeedupDecodeStored is ref/fast on the stored-codec line decode
	// (DecodeWords vs a per-word Decode loop over the same 8-word lines).
	SpeedupDecodeStored float64 `json:"speedup_decode_stored,omitempty"`
	// EngineWriteNsPerLine is the engine-scoped write cost: apply_write
	// shards=1 ns/op divided by the batch's line count. Host-dependent
	// like any absolute time; the diff gate compares it only through the
	// same-host ns/op rules on the underlying result.
	EngineWriteNsPerLine float64 `json:"engine_write_ns_per_line,omitempty"`
	// Campaigns embeds reduced-horizon scenario-campaign summaries
	// (keyed by campaign name, then by the scenario's summary scalars)
	// so lifetime-extension and model-error trajectories ride the same
	// report and diff gate as the timing results.
	Campaigns map[string]map[string]float64 `json:"campaigns,omitempty"`
	// Loadgen embeds a cmd/loadgen summary (-loadgen flag) verbatim, so
	// served-engine throughput and tail latency ride the same snapshot
	// and diff gate as the in-process numbers. Kept raw: loadgen owns
	// its schema, benchreport only reads the gated subset.
	Loadgen json.RawMessage `json:"loadgen,omitempty"`
}

// historyEntry is one line of the append-only BENCH_HISTORY.jsonl run
// log: everything needed to place a measurement in the perf trajectory
// without trusting the mutable snapshot files.
type historyEntry struct {
	Time                         string                        `json:"time"`
	GitSHA                       string                        `json:"git_sha"`
	Host                         Host                          `json:"host"`
	BenchTime                    string                        `json:"benchtime"`
	Snapshot                     string                        `json:"snapshot"`
	Results                      []Result                      `json:"results"`
	SpeedupVCCMLCEnergySAW       float64                       `json:"speedup_vcc_mlc_energy_saw,omitempty"`
	SpeedupVCCStoredSLCEnergySAW float64                       `json:"speedup_vcc_stored_slc_energy_saw,omitempty"`
	SpeedupDecodeStored          float64                       `json:"speedup_decode_stored,omitempty"`
	EngineWriteNsPerLine         float64                       `json:"engine_write_ns_per_line,omitempty"`
	Campaigns                    map[string]map[string]float64 `json:"campaigns,omitempty"`
	Loadgen                      json.RawMessage               `json:"loadgen,omitempty"`
}

// gitSHA best-effort resolves HEAD, with a "-dirty" suffix when the
// working tree has uncommitted changes (a measurement of code that is
// not exactly any commit). History entries record "unknown" outside a
// git checkout rather than failing the run.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// appendHistory appends one JSON line to the run history. The file is
// append-only by contract: existing lines are never rewritten, so the
// trajectory survives snapshot overwrites.
func appendHistory(path string, e historyEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchtime is either a fixed iteration count (1x mode) or a target
// duration the harness calibrates against.
type benchtime struct {
	iters int
	dur   time.Duration
}

func parseBenchtime(s string) (benchtime, error) {
	if strings.HasSuffix(s, "x") {
		n, err := strconv.Atoi(strings.TrimSuffix(s, "x"))
		if err != nil || n < 1 {
			return benchtime{}, fmt.Errorf("bad iteration count %q", s)
		}
		return benchtime{iters: n}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return benchtime{}, fmt.Errorf("bad duration %q", s)
	}
	return benchtime{dur: d}, nil
}

// measure times fn(n) like testing.B: one warm-up iteration (scratch
// pools, caches, dispatch plans), then either the fixed iteration count
// or geometric scaling until the target duration is met. Allocations
// come from MemStats deltas around the timed run.
func measure(bt benchtime, bytesPerOp int64, fn func(n int)) Result {
	fn(1) // warm
	run := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed, after.Mallocs - before.Mallocs
	}
	n := 1
	if bt.iters > 0 {
		n = bt.iters
	}
	for {
		elapsed, mallocs := run(n)
		if bt.iters > 0 || elapsed >= bt.dur || n >= 1<<30 {
			r := Result{
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(mallocs) / float64(n),
			}
			if bytesPerOp > 0 && elapsed > 0 {
				r.MBPerS = float64(bytesPerOp) * float64(n) / 1e6 / elapsed.Seconds()
			}
			return r
		}
		// Scale toward the target like the testing package: aim 20%
		// past, capped at 100x per step.
		grow := int(1.2 * float64(bt.dur) / float64(elapsed) * float64(n))
		if grow > 100*n {
			grow = 100 * n
		}
		if grow <= n {
			grow = n + 1
		}
		n = grow
	}
}

// bench is one registered benchmark.
type bench struct {
	name    string
	bytes   int64
	prepare func() func(n int)
}

// encodeBench builds an encode-microbenchmark closure over a ring of
// randomized write contexts (stuck cells included), mirroring
// internal/coset's BenchmarkEncode.
func encodeBench(codec coset.Codec, n int, mlcPlane, slc, ref bool, obj coset.Objective) func() func(int) {
	return func() func(int) {
		const ringLen = 256
		rng := prng.New(1)
		mode := pcm.MLC
		if slc {
			mode = pcm.SLC
		}
		ctxs := make([]coset.Ctx, ringLen)
		data := make([]uint64, ringLen)
		for i := range ctxs {
			stuckSym := rng.Uint64() & rng.Uint64() & rng.Uint64() & bitutil.Mask(32)
			var stuckMask uint64
			if mode == pcm.MLC {
				stuckMask = bitutil.ExpandSymbolMask(stuckSym)
			} else {
				stuckMask = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			ctxs[i] = coset.Ctx{
				N: n, Mode: mode, MLCPlane: mlcPlane,
				OldWord:   rng.Uint64(),
				NewLeft:   rng.Uint64() & bitutil.Mask(32),
				StuckMask: stuckMask,
				StuckVal:  rng.Uint64() & stuckMask,
				OldAux:    rng.Uint64() & 0xFFFF,
			}
			data[i] = rng.Uint64() & bitutil.Mask(n)
		}
		ev := coset.NewEvaluator(ctxs[0], obj)
		var sc coset.SlicedCtx
		encode := codec.Encode
		if ref {
			switch rc := codec.(type) {
			case *coset.VCC:
				encode = rc.EncodeRef
			case *coset.FNW:
				encode = rc.EncodeRef
			}
		} else if fc, ok := codec.(coset.FastCodec); ok {
			encode = func(d uint64, ev *coset.Evaluator) (uint64, uint64) {
				return fc.EncodeSliced(d, ev, &sc)
			}
		}
		var sink uint64
		return func(iters int) {
			for i := 0; i < iters; i++ {
				k := i & (ringLen - 1)
				ev.Reset(ctxs[k], obj)
				e, a := encode(data[k], ev)
				sink ^= e ^ a
			}
		}
	}
}

// decodeBench builds a line-decode closure over a ring of randomized
// stored lines (8 words each, encoder-independent synthesized aux with
// in-range kernel indices): fast drives the batched DecodeWords plan,
// ref the per-word Decode loop memctrl used before the line decoder.
func decodeBench(dec coset.LineDecoder, p, r int, ref bool) func() func(int) {
	return func() func(int) {
		const (
			ringLen      = 64
			wordsPerLine = 8
			total        = ringLen * wordsPerLine
		)
		rng := prng.New(9)
		enc := make([]uint64, total)
		aux := make([]uint64, total)
		left := make([]uint64, total)
		out := make([]uint64, wordsPerLine)
		for i := range enc {
			enc[i] = rng.Uint64()
			left[i] = rng.Uint64() & bitutil.Mask(32)
			aux[i] = (rng.Uint64()%uint64(r))<<uint(p) | rng.Uint64()&bitutil.Mask(p)
		}
		var sink uint64
		return func(iters int) {
			for i := 0; i < iters; i++ {
				k := (i & (ringLen - 1)) * wordsPerLine
				if ref {
					for w := 0; w < wordsPerLine; w++ {
						out[w] = dec.Decode(enc[k+w], aux[k+w], left[k+w])
					}
				} else {
					dec.DecodeWords(enc[k:k+wordsPerLine], aux[k:k+wordsPerLine],
						left[k:k+wordsPerLine], out)
				}
				sink ^= out[0]
			}
		}
	}
}

// engineBench builds a mixed Apply-loop closure over a sharded engine.
func engineBench(cfg vcc.ShardedMemoryConfig, readFrac float64, batch int) func() func(int) {
	return func() func(int) {
		mem, err := vcc.NewShardedMemory(cfg)
		if err != nil {
			panic(err)
		}
		rng := prng.New(3)
		zipf := workload.NewZipfHot(cfg.Lines, 1.3, prng.NewFrom(1, "benchreport-zipf"))
		zrng := prng.NewFrom(1, "benchreport-lines")
		ops := make([]vcc.Op, batch)
		for i := range ops {
			data := make([]byte, vcc.LineSize)
			rng.Fill(data)
			kind := vcc.OpWrite
			if rng.Float64() < readFrac {
				kind = vcc.OpRead
			}
			line := (i * 7) % cfg.Lines
			if cfg.CacheLines > 0 {
				line = int(zipf.NextLine(zrng))
			}
			ops[i] = vcc.Op{Kind: kind, Line: line, Data: data}
		}
		outs := make([]vcc.Outcome, batch)
		return func(iters int) {
			for i := 0; i < iters; i++ {
				var err error
				if outs, err = mem.Apply(ops, outs); err != nil {
					panic(err)
				}
			}
		}
	}
}

// asyncBench builds a pipelined Submit/Wait closure (depth slots).
func asyncBench(cfg vcc.ShardedMemoryConfig, depth, batch int) func() func(int) {
	return func() func(int) {
		mem, err := vcc.NewShardedMemory(cfg)
		if err != nil {
			panic(err)
		}
		sess := mem.Session()
		rng := prng.New(3)
		type slot struct {
			ops []vcc.Op
			out []vcc.Outcome
			tk  *vcc.Ticket
		}
		slots := make([]slot, depth)
		for s := range slots {
			slots[s].ops = make([]vcc.Op, batch)
			slots[s].out = make([]vcc.Outcome, batch)
			for i := range slots[s].ops {
				data := make([]byte, vcc.LineSize)
				rng.Fill(data)
				kind := vcc.OpWrite
				if rng.Float64() < 0.5 {
					kind = vcc.OpRead
				}
				slots[s].ops[i] = vcc.Op{Kind: kind, Line: (s*batch + i*7) % cfg.Lines, Data: data}
			}
		}
		return func(iters int) {
			for i := 0; i < iters; i++ {
				sl := &slots[i%depth]
				if sl.tk != nil {
					if _, err := sl.tk.Wait(); err != nil {
						panic(err)
					}
				}
				tk, err := sess.Submit(sl.ops, sl.out)
				if err != nil {
					panic(err)
				}
				sl.tk = tk
			}
			for s := range slots {
				if slots[s].tk != nil {
					if _, err := slots[s].tk.Wait(); err != nil {
						panic(err)
					}
					slots[s].tk = nil
				}
			}
		}
	}
}

func benches() []bench {
	const (
		batch = 1024
		lines = 1 << 13
	)
	objES := coset.ObjEnergySAW
	mkShard := func(shards, cacheLines int, policy vcc.CachePolicy) vcc.ShardedMemoryConfig {
		return vcc.ShardedMemoryConfig{
			Lines: lines, Shards: shards, Seed: 1,
			CacheLines: cacheLines, CachePolicy: policy,
		}
	}
	return []bench{
		// Encode microbenchmarks: the fast-path acceptance pairs.
		{"encode/vcc_gen256/mlc/energy_saw/fast", 0,
			encodeBench(coset.NewVCCGenerated(16, 256), 32, true, false, false, objES)},
		{"encode/vcc_gen256/mlc/energy_saw/ref", 0,
			encodeBench(coset.NewVCCGenerated(16, 256), 32, true, false, true, objES)},
		{"encode/vcc_stored256/slc/energy_saw/fast", 0,
			encodeBench(coset.NewVCCStored(64, 16, 256, 1), 64, false, true, false, objES)},
		{"encode/vcc_stored256/slc/energy_saw/ref", 0,
			encodeBench(coset.NewVCCStored(64, 16, 256, 1), 64, false, true, true, objES)},
		{"encode/fnw16/mlc/energy_saw/fast", 0,
			encodeBench(coset.NewFNW(64, 16), 64, false, false, false, objES)},
		{"encode/fnw16/mlc/energy_saw/ref", 0,
			encodeBench(coset.NewFNW(64, 16), 64, false, false, true, objES)},
		{"encode/rcc256/mlc/energy_saw", 0,
			encodeBench(coset.NewRCC(64, 256, 1), 64, false, false, false, objES)},
		{"encode/flipcy/mlc/energy_saw", 0,
			encodeBench(coset.NewFlipcy(64), 64, false, false, false, objES)},

		// Decode microbenchmarks: the line-decode pairs (DecodeWords vs
		// the per-word loop the controller read path replaced).
		{"decode/vcc_stored256/line/fast", 0,
			decodeBench(coset.NewVCCStored(64, 16, 256, 1), 4, 16, false)},
		{"decode/vcc_stored256/line/ref", 0,
			decodeBench(coset.NewVCCStored(64, 16, 256, 1), 4, 16, true)},
		{"decode/vcc_gen256/line/fast", 0,
			decodeBench(coset.NewVCCGenerated(16, 256), 2, 64, false)},
		{"decode/vcc_gen256/line/ref", 0,
			decodeBench(coset.NewVCCGenerated(16, 256), 2, 64, true)},

		// Engine benchmarks (bytes/op = one batch of 64-byte lines).
		{"engine/apply_write/vcc256/shards=1", batch * vcc.LineSize,
			engineBench(mkShard(1, 0, vcc.WriteThrough), 0, batch)},
		{"engine/apply_write/vcc256/shards=4", batch * vcc.LineSize,
			engineBench(mkShard(4, 0, vcc.WriteThrough), 0, batch)},
		{"engine/apply_mixed/readfrac=0.5/shards=4", batch * vcc.LineSize,
			engineBench(mkShard(4, 0, vcc.WriteThrough), 0.5, batch)},
		{"engine/apply_cached/writeback/zipf/shards=4", batch * vcc.LineSize,
			engineBench(mkShard(4, 512, vcc.WriteBack), 0.75, batch)},
		{"engine/submit_async/depth=4/shards=4", batch * vcc.LineSize,
			asyncBench(mkShard(4, 0, vcc.WriteThrough), 4, batch)},
	}
}

// loadgenSummary is the subset of cmd/loadgen's report (schema
// vccrepro-loadgen/*) the validate and diff gates read; the embedded
// document keeps every field loadgen wrote.
type loadgenSummary struct {
	Schema      string  `json:"schema"`
	Clients     int     `json:"clients"`
	Tenants     int     `json:"tenants"`
	Requests    int64   `json:"requests"`
	OpsDone     int64   `json:"ops_done"`
	ThroughputO float64 `json:"throughput_ops_per_sec"`
	// Final failures: requests that exhausted loadgen's retry budget
	// (with retries disabled, every failure). These gate cleanliness.
	ErrorResps int64 `json:"error_responses"`
	Transport  int64 `json:"transport_errors"`
	// Recovered failures (schema v2, loadgen -retries): retried busy,
	// device-error and transport faults that eventually succeeded.
	// They never fail a gate — surviving injected faults is the point
	// of a chaos run — but are surfaced for the trajectory.
	Retries     int64 `json:"retries"`
	BusyResps   int64 `json:"busy_responses"`
	DevErrResps int64 `json:"device_error_responses"`
	Reconnects  int64 `json:"reconnects"`
	Latency     struct {
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

// validate checks either document family by schema: full bench reports
// and standalone cmd/loadgen summaries (the CI smoke runs
// `benchreport -validate summary.json` on the latter directly).
func validate(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sniff struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &sniff); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if strings.HasPrefix(sniff.Schema, "vccrepro-loadgen") {
		s, err := checkLoadgen(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		recovered := ""
		if s.Retries > 0 {
			recovered = fmt.Sprintf(", recovered %d retries (%d busy, %d device-error, %d reconnects)",
				s.Retries, s.BusyResps, s.DevErrResps, s.Reconnects)
		}
		fmt.Printf("%s: ok (%d clients x %d tenants, %d ops, %.0f ops/s, schema %s%s)\n",
			path, s.Clients, s.Tenants, s.OpsDone, s.ThroughputO, s.Schema, recovered)
		return nil
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema == "" || len(rep.Results) == 0 {
		return fmt.Errorf("%s: missing schema or results", path)
	}
	for _, r := range rep.Results {
		if r.Name == "" || r.NsPerOp <= 0 || r.Iterations < 1 {
			return fmt.Errorf("%s: malformed result %+v", path, r)
		}
	}
	if rep.Loadgen != nil {
		if _, err := checkLoadgen(rep.Loadgen); err != nil {
			return fmt.Errorf("%s: embedded loadgen summary: %w", path, err)
		}
	}
	fmt.Printf("%s: ok (%d results, schema %s)\n", path, len(rep.Results), rep.Schema)
	return nil
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// speedupPairs derives every ref/fast ns-per-op ratio a report carries:
// for each ".../fast" result with a ".../ref" sibling, the ratio under
// the common prefix. Ratios are within-host and within-run, so they
// gate across machines where absolute ns/op cannot.
func speedupPairs(rep *Report) map[string]float64 {
	byName := map[string]Result{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	out := map[string]float64{}
	for _, r := range rep.Results {
		base, ok := strings.CutSuffix(r.Name, "/fast")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		if ref, ok := byName[base+"/ref"]; ok && ref.NsPerOp > 0 {
			out[base] = ref.NsPerOp / r.NsPerOp
		}
	}
	return out
}

// diffReports compares a fresh report against the committed baseline
// and returns the regressions found. Thresholds are noise-aware:
//
//   - encode allocs/op gates everywhere: an encode benchmark the
//     baseline holds at zero steady-state allocations must stay at zero
//     (crossing 0 → 1 is a code change, not noise). Engine benchmarks
//     are exempt — their per-op allocations amortize pool and pipeline
//     startup over the iteration count, so they shift with benchtime;
//   - ref/fast speedup ratios gate everywhere: within one run the two
//     sides share the machine, so the ratio is host-independent. A
//     fresh ratio below 1/3 of the baseline's (floored at 2x, so a
//     baseline blip can never demand the impossible) is a regression;
//   - absolute ns/op and MB/s gate only when the host fingerprint and
//     benchtime match the baseline's — cross-machine wall-clock
//     comparisons are meaningless — and then only on large movements
//     (2.5x plus a 50ns floor, far outside scheduler jitter).
func diffReports(base, fresh *Report) []string {
	var fails []string
	baseBy := map[string]Result{}
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	sameHost := base.Host == fresh.Host && base.BenchTime == fresh.BenchTime
	fmt.Printf("diff vs baseline (same host+benchtime: %v)\n", sameHost)
	for _, fr := range fresh.Results {
		br, ok := baseBy[fr.Name]
		if !ok {
			fmt.Printf("  %-48s new benchmark, no baseline\n", fr.Name)
			continue
		}
		status := "ok"
		if strings.HasPrefix(fr.Name, "encode/") && br.AllocsPerOp < 0.5 && fr.AllocsPerOp >= 1 {
			status = "ALLOC REGRESSION"
			fails = append(fails, fmt.Sprintf("%s: %.2f allocs/op, baseline 0",
				fr.Name, fr.AllocsPerOp))
		}
		if sameHost {
			if br.NsPerOp >= 50 && fr.NsPerOp > 2.5*br.NsPerOp+50 {
				status = "NS/OP REGRESSION"
				fails = append(fails, fmt.Sprintf("%s: %.0f ns/op, baseline %.0f",
					fr.Name, fr.NsPerOp, br.NsPerOp))
			}
			if br.MBPerS > 0 && fr.MBPerS > 0 && fr.MBPerS < br.MBPerS/2.5 {
				status = "MB/S REGRESSION"
				fails = append(fails, fmt.Sprintf("%s: %.1f MB/s, baseline %.1f",
					fr.Name, fr.MBPerS, br.MBPerS))
			}
		}
		fmt.Printf("  %-48s %10.1f ns/op (base %10.1f) %6.2f allocs (base %.2f)  %s\n",
			fr.Name, fr.NsPerOp, br.NsPerOp, fr.AllocsPerOp, br.AllocsPerOp, status)
	}
	baseSp, freshSp := speedupPairs(base), speedupPairs(fresh)
	for name, bs := range baseSp {
		fs, ok := freshSp[name]
		if !ok {
			continue
		}
		floor := bs / 3
		if floor < 2 {
			floor = 2
		}
		status := "ok"
		if bs >= 2 && fs < floor {
			status = "SPEEDUP REGRESSION"
			fails = append(fails, fmt.Sprintf("%s: ref/fast %.2fx, baseline %.2fx (floor %.2fx)",
				name, fs, bs, floor))
		}
		fmt.Printf("  speedup %-40s %6.2fx (base %6.2fx, floor %5.2fx)  %s\n",
			name, fs, bs, floor, status)
	}
	fails = append(fails, diffCampaigns(base, fresh)...)
	fails = append(fails, diffLoadgen(base, fresh, sameHost)...)
	return fails
}

// diffLoadgen gates the embedded served-engine summary. A fresh report
// without one is fine (not every run serves the engine), and a baseline
// without one — every BENCH_*.json before the subsystem existed — makes
// the metrics "new, no baseline", never a failure. Cleanliness gates on
// the fresh side alone: error responses, transport errors, or zero
// completed ops are protocol failures regardless of baseline. Absolute
// throughput gates only same-host, with the same 2.5x movement floor as
// ns/op; tail latencies print for the trajectory but do not gate (they
// move with client count and pacing, not just code).
func diffLoadgen(base, fresh *Report, sameHost bool) []string {
	if fresh.Loadgen == nil {
		return nil
	}
	var fails []string
	var fs loadgenSummary
	if err := json.Unmarshal(fresh.Loadgen, &fs); err != nil {
		return []string{fmt.Sprintf("loadgen: embedded summary unreadable: %v", err)}
	}
	if fs.ErrorResps != 0 || fs.Transport != 0 || fs.OpsDone <= 0 {
		fails = append(fails, fmt.Sprintf("loadgen: unclean run (%d error responses, %d transport errors, %d ops)",
			fs.ErrorResps, fs.Transport, fs.OpsDone))
	}
	if base.Loadgen == nil {
		fmt.Printf("  loadgen %-39s %8.0f ops/s p99=%dns  new, no baseline\n",
			"throughput", fs.ThroughputO, fs.Latency.P99)
		return fails
	}
	var bs loadgenSummary
	if err := json.Unmarshal(base.Loadgen, &bs); err != nil {
		fmt.Printf("  loadgen %-39s baseline summary unreadable, skipping\n", "throughput")
		return fails
	}
	status := "ok"
	if sameHost && bs.ThroughputO > 0 && fs.ThroughputO < bs.ThroughputO/2.5 {
		status = "THROUGHPUT REGRESSION"
		fails = append(fails, fmt.Sprintf("loadgen: %.0f ops/s, baseline %.0f",
			fs.ThroughputO, bs.ThroughputO))
	}
	fmt.Printf("  loadgen %-39s %8.0f ops/s (base %8.0f) p99=%dns (base %dns)  %s\n",
		"throughput", fs.ThroughputO, bs.ThroughputO, fs.Latency.P99, bs.Latency.P99, status)
	return fails
}

// diffCampaigns gates the scenario-campaign summaries a report embeds.
// Campaigns or metrics absent from the baseline never fail the gate —
// BENCH_*.json files from before the embedding must keep passing — and
// neither does a campaign the fresh run skipped; only movements on
// metrics present on both sides fail, plus fresh-side verification
// violations, which are an absolute invariant:
//
//   - lifetime-extension metrics (wear-leveling "extension", fault-aging
//     "ext_measured_final") must not fall below half the baseline (both
//     are deterministic ratios > 1 when healthy, so a halving is a code
//     change, not seed noise);
//   - the fault-aging analytic-model error "rel_err_final" must not grow
//     past twice the baseline plus a 0.02 absolute floor;
//   - "verify_violations" must be zero wherever the fresh run reports it.
func diffCampaigns(base, fresh *Report) []string {
	var fails []string
	names := make([]string, 0, len(fresh.Campaigns))
	for name := range fresh.Campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fsum := fresh.Campaigns[name]
		if v, ok := fsum["verify_violations"]; ok && v != 0 {
			fails = append(fails, fmt.Sprintf("campaign %s: %g verification violations", name, v))
		}
		bsum, ok := base.Campaigns[name]
		if !ok {
			fmt.Printf("  campaign %-38s new, no baseline\n", name)
			continue
		}
		for _, key := range []string{"extension", "ext_measured_final"} {
			bv, okb := bsum[key]
			fv, okf := fsum[key]
			if !okf {
				continue
			}
			status := "ok"
			if !okb {
				status = "no baseline metric"
			} else if bv >= 1 && fv < bv/2 {
				status = "LIFETIME REGRESSION"
				fails = append(fails, fmt.Sprintf("campaign %s: %s %.3f, baseline %.3f",
					name, key, fv, bv))
			}
			fmt.Printf("  campaign %-38s %8.3f (base %8.3f)  %s\n",
				name+"/"+key, fv, bv, status)
		}
		if fv, okf := fsum["rel_err_final"]; okf {
			bv, okb := bsum["rel_err_final"]
			status := "ok"
			if !okb {
				status = "no baseline metric"
			} else if fv > 2*bv+0.02 {
				status = "MODEL ERROR REGRESSION"
				fails = append(fails, fmt.Sprintf("campaign %s: rel_err_final %.4f, baseline %.4f",
					name, fv, bv))
			}
			fmt.Printf("  campaign %-38s %8.4f (base %8.4f)  %s\n",
				name+"/rel_err_final", fv, bv, status)
		}
	}
	return fails
}

// runProfiles executes each selected benchmark under the CPU profiler
// for ~300ms, writes the raw .pprof next to nothing the repo tracks,
// and prints the decoded top-N hot-function table — the loop that
// drove the nibble-table optimization, kept runnable so it cannot rot.
func runProfiles(bs []bench, dir string, topN int) error {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "benchprofiles"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	clean := strings.NewReplacer("/", "_", "=", "_", ".", "_")
	for _, b := range bs {
		fn := b.prepare()
		fn(1) // warm: scratch pools, caches, dispatch plans
		path := filepath.Join(dir, clean.Replace(b.name)+".pprof")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		start := time.Now()
		for n := 1; time.Since(start) < 300*time.Millisecond; {
			fn(n)
			if n < 1<<20 {
				n <<= 1
			}
		}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		funcs, err := parseCPUProfile(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		printHotFuncs(os.Stdout, b.name, funcs, topN)
		fmt.Printf("  raw profile: %s\n", path)
	}
	return nil
}

// matchBenches filters the registry by substring, preserving order.
func matchBenches(bs []bench, substr string) []bench {
	if substr == "" {
		return bs
	}
	var out []bench
	for _, b := range bs {
		if strings.Contains(b.name, substr) {
			out = append(out, b)
		}
	}
	return out
}

// campaignSummaries runs the named scenario campaigns (comma-separated)
// at a reduced horizon and returns their summary scalars for embedding.
func campaignSummaries(names string, horizon int64) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		res, err := campaign.Run(n, campaign.Params{Seed: 1, Shards: 1, Horizon: horizon})
		if err != nil {
			return nil, err
		}
		out[n] = res.Summary
	}
	return out, nil
}

func main() {
	btFlag := flag.String("benchtime", "1s", "per-benchmark target: a duration (1s) or fixed iterations (1x)")
	out := flag.String("out", "BENCH_9.json", "output path for the JSON report")
	validatePath := flag.String("validate", "", "validate an existing report instead of running")
	diffBase := flag.String("diff", "", "baseline report to diff a fresh report (-in) against; exits nonzero on regression")
	inPath := flag.String("in", "", "fresh report consumed by -diff")
	historyPath := flag.String("history", "BENCH_HISTORY.jsonl", "append-only run history (empty disables)")
	profileFlag := flag.Bool("profile", false, "capture a pprof CPU profile per benchmark and print top-N hot functions instead of timing")
	profileDir := flag.String("profiledir", "", "directory for raw .pprof files (default: a fresh temp dir)")
	topN := flag.Int("topn", 10, "rows in each -profile hot-function table")
	match := flag.String("match", "", "only run benchmarks whose name contains this substring")
	campaigns := flag.String("campaigns", "fault-aging,wearlevel-rotation",
		"scenario campaigns to run at reduced horizon and embed in the report (empty disables)")
	campHorizon := flag.Int64("campaignhorizon", 20000, "op-budget override for embedded campaigns")
	loadgenPath := flag.String("loadgen", "", "embed a cmd/loadgen -json summary into the report (empty disables)")
	flag.Parse()

	if *validatePath != "" {
		if err := validate(*validatePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	if *diffBase != "" {
		if *inPath == "" {
			fmt.Fprintln(os.Stderr, "benchreport: -diff requires -in FRESH_REPORT")
			os.Exit(2)
		}
		base, err := loadReport(*diffBase)
		if err == nil {
			var fresh *Report
			if fresh, err = loadReport(*inPath); err == nil {
				if fails := diffReports(base, fresh); len(fails) > 0 {
					for _, f := range fails {
						fmt.Fprintln(os.Stderr, "benchreport: REGRESSION:", f)
					}
					os.Exit(1)
				}
				fmt.Println("diff: no regressions")
				return
			}
		}
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	selected := matchBenches(benches(), *match)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no benchmark matches %q\n", *match)
		os.Exit(2)
	}

	if *profileFlag {
		if err := runProfiles(selected, *profileDir, *topN); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	bt, err := parseBenchtime(*btFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
	host := hostFingerprint()
	rep := Report{
		Schema:    "vccrepro-bench/v2",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Host:      host,
		GitSHA:    gitSHA(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		BenchTime: *btFlag,
	}
	byName := map[string]Result{}
	for _, b := range selected {
		fn := b.prepare()
		r := measure(bt, b.bytes, fn)
		r.Name = b.name
		rep.Results = append(rep.Results, r)
		byName[b.name] = r
		if r.MBPerS > 0 {
			fmt.Printf("%-48s %12.1f ns/op %8.2f allocs/op %10.2f MB/s\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.MBPerS)
		} else {
			fmt.Printf("%-48s %12.1f ns/op %8.2f allocs/op\n",
				r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	speedupOf := func(prefix string) float64 {
		fast, okF := byName[prefix+"/fast"]
		ref, okR := byName[prefix+"/ref"]
		if !okF || !okR || fast.NsPerOp <= 0 {
			return 0
		}
		return ref.NsPerOp / fast.NsPerOp
	}
	if s := speedupOf("encode/vcc_gen256/mlc/energy_saw"); s > 0 {
		rep.SpeedupVCCMLCEnergySAW = s
		fmt.Printf("%-48s %12.2fx\n", "speedup: vcc mlc energy+saw (ref/fast)", s)
	}
	if s := speedupOf("encode/vcc_stored256/slc/energy_saw"); s > 0 {
		rep.SpeedupVCCStoredSLCEnergySAW = s
		fmt.Printf("%-48s %12.2fx\n", "speedup: vcc stored slc energy+saw (ref/fast)", s)
	}
	if s := speedupOf("decode/vcc_stored256/line"); s > 0 {
		rep.SpeedupDecodeStored = s
		fmt.Printf("%-48s %12.2fx\n", "speedup: stored line decode (ref/fast)", s)
	}
	if r, ok := byName["engine/apply_write/vcc256/shards=1"]; ok && r.NsPerOp > 0 {
		rep.EngineWriteNsPerLine = r.NsPerOp / 1024 // batch lines per op
		fmt.Printf("%-48s %12.1f ns\n", "engine: write cost per 64-byte line", rep.EngineWriteNsPerLine)
	}
	if *loadgenPath != "" {
		raw, err := os.ReadFile(*loadgenPath)
		if err == nil {
			var s loadgenSummary
			if s, err = checkLoadgen(raw); err == nil {
				rep.Loadgen = json.RawMessage(raw)
				fmt.Printf("%-48s %12.0f ops/s (p99 %dns)\n",
					"loadgen: served throughput", s.ThroughputO, s.Latency.P99)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: -loadgen %s: %v\n", *loadgenPath, err)
			os.Exit(1)
		}
	}
	if *campaigns != "" {
		camps, err := campaignSummaries(*campaigns, *campHorizon)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		rep.Campaigns = camps
		cnames := make([]string, 0, len(camps))
		for n := range camps {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			keys := make([]string, 0, len(camps[n]))
			for k := range camps[n] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("%-48s %12.6g\n", "campaign: "+n+"/"+k, camps[n][k])
			}
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if *historyPath != "" {
		err := appendHistory(*historyPath, historyEntry{
			Time:                         rep.Timestamp,
			GitSHA:                       rep.GitSHA,
			Host:                         host,
			BenchTime:                    *btFlag,
			Snapshot:                     *out,
			Results:                      rep.Results,
			SpeedupVCCMLCEnergySAW:       rep.SpeedupVCCMLCEnergySAW,
			SpeedupVCCStoredSLCEnergySAW: rep.SpeedupVCCStoredSLCEnergySAW,
			SpeedupDecodeStored:          rep.SpeedupDecodeStored,
			EngineWriteNsPerLine:         rep.EngineWriteNsPerLine,
			Campaigns:                    rep.Campaigns,
			Loadgen:                      rep.Loadgen,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		fmt.Printf("appended %s\n", *historyPath)
	}
}
