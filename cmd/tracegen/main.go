// Command tracegen generates synthetic LLC writeback traces (the SPEC
// CPU 2017 stand-ins of DESIGN.md substitution #1), writes them in the
// trace package's binary container format, and replays them — serially
// or through the concurrent sharded memory engine.
//
// Usage:
//
//	tracegen -list
//	tracegen -bench lbm_s -n 100000 -seed 7 -o lbm.vcct
//	tracegen -bench mcf_s -n 1000 -stats   # print address statistics only
//	tracegen -bench lbm_s -n 100000 -replay -shards 4
//	tracegen -replay -in lbm.vcct -shards 8 -encoder rcc
//	tracegen -bench mcf_s -n 100000 -replay -readfrac -1   # mixed ops at the spec's read fraction
//	tracegen -replay -mix "seq:0.5,zipf:0.4,chase:0.1" -readfrac 0.6 -n 100000
//	tracegen -bench mcf_s -n 100000 -replay -fault 1e-3 -remapspares 64 -faultrepo
//
// Replay mode drives the access stream through the full
// encrypt-encode-program pipeline of a vcc.ShardedMemory equivalent
// (internal/shard) via its mixed op path (Engine.Apply) and reports
// read/write statistics. The input is a saved .vcct file (-in), the
// generated stream of -bench, or a synthetic workload mixture (-mix,
// over the internal/workload patterns seq, zipf, stride and chase).
// -readfrac interleaves reads into any of the three; with -bench,
// -readfrac -1 uses the benchmark's own characterized read fraction.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/coset"
	"repro/internal/linecache"
	"repro/internal/prng"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available benchmarks")
		bench   = flag.String("bench", "", "benchmark name")
		n       = flag.Int("n", 100000, "number of writeback records")
		seed    = flag.Uint64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file (default <bench>.vcct)")
		stats   = flag.Bool("stats", false, "print address-stream statistics instead of writing a file")
		replay  = flag.Bool("replay", false, "replay the trace through the sharded memory engine")
		in      = flag.String("in", "", "replay a saved .vcct file instead of generating")
		mix     = flag.String("mix", "", "replay a synthetic workload mixture, e.g. \"seq:0.5,zipf:0.4,chase:0.1\" (patterns: seq, zipf, stride, chase)")
		rfrac   = flag.Float64("readfrac", 0, "replay: fraction of ops issued as reads; -1 = the benchmark spec's characterized read fraction")
		zipfS   = flag.Float64("zipfs", 1.2, "replay -mix: Zipf skew of the zipf pattern")
		stride  = flag.Int("stride", 64, "replay -mix: stride of the stride pattern")
		shards  = flag.Int("shards", 1, "replay: shard count")
		memLine = flag.Int("lines", 1<<16, "replay: memory capacity in cache lines")
		batch   = flag.Int("batch", 256, "replay: writes per dispatched batch")
		encoder = flag.String("encoder", "vcc", "replay: vcc|vccgen|rcc|fnw|flipcy|none")
		fault   = flag.Float64("fault", 0, "replay: per-cell stuck-at fault rate")
		spares  = flag.Int("remapspares", 0, "replay: per-shard spare-line pool for the fault-remapping decorator; 0 = no remapping")
		frepo   = flag.Bool("faultrepo", false, "replay: track discovered stuck-at cells in a per-shard fault repository (informed remap + in-place retry)")
		slc     = flag.Bool("slc", false, "replay: single-level cells instead of MLC")
		cache   = flag.Bool("cache", false, "replay: front each shard with a decoded-line LRU cache")
		cacheLn = flag.Int("cachelines", 1024, "replay -cache: per-shard cache capacity in lines")
		cachePl = flag.String("cachepolicy", "wt", "replay -cache: write policy, writethrough|wt|writeback|wb")
	)
	flag.Parse()

	if *list {
		for _, s := range trace.Benchmarks() {
			fmt.Printf("%-14s footprint=%-6d zipf=%.2f stream=%.0f%% wpki=%.1f\n",
				s.Name, s.Lines, s.ZipfS, 100*s.StreamFrac, s.WriteIntensity)
		}
		return
	}
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "tracegen: -n %d must be at least 1\n", *n)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}

	if *replay {
		if *rfrac != -1 && !(*rfrac >= 0 && *rfrac <= 1) {
			fmt.Fprintf(os.Stderr, "tracegen: -readfrac %v out of range (want 0..1, or -1 for the benchmark's own fraction)\n", *rfrac)
			os.Exit(2)
		}
		if *rfrac == -1 && (*bench == "" || *in != "" || *mix != "") {
			fmt.Fprintln(os.Stderr, "tracegen: -readfrac -1 needs -bench (saved traces and -mix carry no characterized read fraction)")
			os.Exit(2)
		}
		if *mix != "" && *bench != "" {
			fmt.Fprintln(os.Stderr, "tracegen: -mix and -bench are mutually exclusive")
			os.Exit(2)
		}
		var policy linecache.Policy
		if *cache {
			var err error
			if policy, err = linecache.ParsePolicy(*cachePl); err != nil {
				fail(err)
			}
			if *cacheLn <= 0 {
				fmt.Fprintf(os.Stderr, "tracegen: -cachelines %d must be positive\n", *cacheLn)
				os.Exit(2)
			}
		}
		if *spares < 0 {
			fmt.Fprintf(os.Stderr, "tracegen: -remapspares %d must be non-negative\n", *spares)
			os.Exit(2)
		}
		cfg := replayConfig{
			shards: *shards, lines: *memLine, batch: *batch,
			encoder: *encoder, fault: *fault, slc: *slc, seed: *seed,
			spares: *spares, faultRepo: *frepo,
			readFrac: *rfrac,
			cache:    *cache, cacheLines: *cacheLn, cachePolicy: policy,
		}
		var src opSource
		switch {
		case *in != "":
			f, err := os.Open(*in)
			if err != nil {
				fail(err)
			}
			records, err := trace.ReadTrace(f)
			f.Close()
			if err != nil {
				fail(err)
			}
			src = newRecordSource(records, cfg)
		case *mix != "":
			var err error
			if src, err = newMixSource(*mix, *n, *zipfS, *stride, cfg); err != nil {
				fail(err)
			}
		case *bench != "":
			spec, err := trace.SpecByName(*bench)
			if err != nil {
				fail(err)
			}
			src = newBenchSource(spec, *n, cfg)
		default:
			fmt.Fprintln(os.Stderr, "tracegen: -replay needs -bench, -in or -mix (see -list)")
			os.Exit(2)
		}
		if err := runReplay(src, cfg); err != nil {
			fail(err)
		}
		return
	}

	if *in != "" {
		fmt.Fprintln(os.Stderr, "tracegen: -in without -replay does nothing")
		os.Exit(2)
	}
	if *mix != "" {
		fmt.Fprintln(os.Stderr, "tracegen: -mix without -replay does nothing")
		os.Exit(2)
	}
	if *rfrac != 0 {
		fmt.Fprintln(os.Stderr, "tracegen: -readfrac without -replay does nothing (saved traces are write-only)")
		os.Exit(2)
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench or -in is required (see -list)")
		os.Exit(2)
	}
	spec, err := trace.SpecByName(*bench)
	if err != nil {
		fail(err)
	}
	records := trace.Collect(trace.NewGenerator(spec, *seed), *n)
	if *stats {
		printStats(spec, records)
		return
	}
	path := *out
	if path == "" {
		path = spec.Name + ".vcct"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, records); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s\n", len(records), path)
}

// replayConfig bundles the replay-mode flags.
type replayConfig struct {
	shards, lines, batch int
	encoder              string
	fault                float64
	slc                  bool
	seed                 uint64
	// spares enables the per-shard fault-remapping decorator with that
	// many spare lines; faultRepo adds the write-driven stuck-cell
	// repository that informs spare selection and in-place retries.
	spares    int
	faultRepo bool
	// readFrac interleaves reads into the replayed stream: the fraction
	// of ops issued as OpRead. -1 selects the benchmark spec's
	// characterized read fraction (meaningful with -bench only).
	readFrac float64
	// cache fronts each shard with a decoded-line LRU of cacheLines
	// lines under cachePolicy.
	cache       bool
	cacheLines  int
	cachePolicy linecache.Policy
}

// opSource feeds the replay loop one op at a time. next fills op —
// whose Data field arrives as a reusable 64-byte buffer (write
// plaintext or read destination) — and reports false when the stream is
// exhausted.
type opSource interface {
	next(op *shard.Op) bool
}

// recordSource replays saved writeback records, optionally diverting a
// readFrac fraction of them into reads of the same address.
type recordSource struct {
	records []trace.Record
	i       int
	frac    float64
	rng     *prng.Rand
	lines   int
}

func newRecordSource(records []trace.Record, cfg replayConfig) *recordSource {
	frac := cfg.readFrac
	if frac < 0 {
		frac = 0 // saved traces carry no characterized read fraction
	}
	return &recordSource{
		records: records, frac: frac,
		rng: prng.NewFrom(cfg.seed, "tracegen-replay-rw"), lines: cfg.lines,
	}
}

func (s *recordSource) next(op *shard.Op) bool {
	if s.i >= len(s.records) {
		return false
	}
	r := &s.records[s.i]
	s.i++
	op.Line = int(r.Line % uint64(s.lines))
	if s.frac > 0 && s.rng.Float64() < s.frac {
		op.Kind = shard.OpRead
		return true
	}
	op.Kind = shard.OpWrite
	copy(op.Data, r.Data[:])
	return true
}

// benchSource generates a benchmark's stream on the fly; with a
// non-zero read fraction it walks the mixed op stream (NextOp).
type benchSource struct {
	gen   *trace.Generator
	rec   trace.Record
	left  int
	mixed bool
	lines int
}

func newBenchSource(spec trace.Spec, n int, cfg replayConfig) *benchSource {
	if cfg.readFrac >= 0 {
		spec.ReadFrac = cfg.readFrac
	}
	return &benchSource{
		gen: trace.NewGenerator(spec, cfg.seed), left: n,
		mixed: spec.ReadFrac > 0, lines: cfg.lines,
	}
}

func (s *benchSource) next(op *shard.Op) bool {
	if s.left <= 0 {
		return false
	}
	s.left--
	read := false
	if s.mixed {
		read = s.gen.NextOp(&s.rec)
	} else {
		s.gen.Next(&s.rec)
	}
	op.Line = int(s.rec.Line % uint64(s.lines))
	if read {
		op.Kind = shard.OpRead
		return true
	}
	op.Kind = shard.OpWrite
	copy(op.Data, s.rec.Data[:])
	return true
}

// mixSource drives a synthetic workload mixture (internal/workload)
// with random write plaintext — post-AES the content is uniform anyway.
type mixSource struct {
	stream *workload.Stream
	rng    *prng.Rand
	left   int
}

// newMixSource parses "pat:frac,pat:frac,..." (patterns seq, zipf,
// stride, chase) into a single-phase workload stream over the replay
// footprint. Weights are normalized to sum to 1, so "seq:1,zipf:1" is
// an even mix; repeated patterns get independent PRNG streams.
func newMixSource(spec string, n int, zipfS float64, stride int, cfg replayConfig) (*mixSource, error) {
	// The grammar (and the PRNG stream labels that keep recorded mixes
	// replaying bit-identically) lives in workload.ParseMix, shared
	// with cmd/loadgen.
	pat, err := workload.ParseMix(spec, workload.MixOpts{
		Lines:    cfg.lines,
		ZipfSkew: zipfS,
		Stride:   stride,
		Seed:     cfg.seed,
		Label:    "tracegen-mix",
	})
	if err != nil {
		return nil, fmt.Errorf("-mix: %w", err)
	}
	frac := cfg.readFrac
	if frac < 0 {
		frac = 0
	}
	return &mixSource{
		stream: workload.NewStream(cfg.seed, workload.Phase{
			Pattern: pat, ReadFrac: frac,
		}),
		rng:  prng.NewFrom(cfg.seed, "tracegen-mix-data"),
		left: n,
	}, nil
}

func (s *mixSource) next(op *shard.Op) bool {
	if s.left <= 0 {
		return false
	}
	s.left--
	s.stream.FillOp(op, func(_ uint64, data []byte) { s.rng.Fill(data) })
	return true
}

// newCodec returns a per-shard codec factory for the -encoder flag.
func newCodec(name string, seed uint64) (func() coset.Codec, error) {
	switch name {
	case "vcc":
		return func() coset.Codec { return coset.NewVCCStored(64, 16, 256, seed) }, nil
	case "vccgen":
		return func() coset.Codec { return coset.NewVCCGenerated(16, 256) }, nil
	case "rcc":
		return func() coset.Codec { return coset.NewRCC(64, 256, seed) }, nil
	case "fnw":
		return func() coset.Codec { return coset.NewFNW(64, 16) }, nil
	case "flipcy":
		return func() coset.Codec { return coset.NewFlipcy(64) }, nil
	case "none":
		return func() coset.Codec { return coset.NewIdentity(64) }, nil
	}
	return nil, fmt.Errorf("unknown encoder %q (vcc|vccgen|rcc|fnw|flipcy|none)", name)
}

// buildEngine assembles the replay engine from the flag bundle.
func buildEngine(cfg replayConfig) (*shard.Engine, error) {
	mk, err := newCodec(cfg.encoder, cfg.seed)
	if err != nil {
		return nil, err
	}
	scfg := shard.Config{
		Lines:        cfg.lines,
		Shards:       cfg.shards,
		NewCodec:     mk,
		Objective:    coset.ObjEnergySAW,
		SLC:          cfg.slc,
		FaultRate:    cfg.fault,
		Seed:         cfg.seed,
		RemapSpares:  cfg.spares,
		UseFaultRepo: cfg.faultRepo,
	}
	if cfg.cache {
		scfg.CacheLines = cfg.cacheLines
		scfg.CachePolicy = cfg.cachePolicy
	}
	return shard.New(scfg)
}

// runReplay drives the op stream through a fresh engine with
// workload.Drive, flushes deferred write-back lines, and prints the
// statistics.
func runReplay(src opSource, cfg replayConfig) error {
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	eng, err := buildEngine(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := workload.Drive(eng, src.next, cfg.batch); err != nil {
		return err
	}
	eng.Flush()
	st := eng.Stats()
	// Logical (request-level) totals: cache hits are reads the decode
	// pipeline never saw, coalesced writes are device RMWs that never
	// happened. Uncached, both terms are zero and these reduce to the
	// device counters.
	writes := st.LineWrites + st.CoalescedWrites
	reads := st.LineReads + st.CacheHits
	total := writes + reads
	fmt.Printf("replayed       %d ops (%d writes, %d reads)\n", total, writes, reads)
	engine := fmt.Sprintf("%d shard(s), %s encoder", eng.Shards(), cfg.encoder)
	if cfg.cache {
		engine += fmt.Sprintf(", %d-line %s cache/shard", cfg.cacheLines, cfg.cachePolicy)
	}
	if cfg.spares > 0 {
		engine += fmt.Sprintf(", %d remap spares/shard", cfg.spares)
	}
	if cfg.faultRepo {
		engine += " (fault repo)"
	}
	fmt.Printf("engine         %s\n", engine)
	fmt.Printf("submission     sync, batch %d\n", cfg.batch)
	fmt.Printf("write energy   %.4g pJ (aux %.4g pJ)\n", st.EnergyPJ, st.AuxEnergyPJ)
	fmt.Printf("bit flips      %d\n", st.BitFlips)
	fmt.Printf("SAW cells      %d\n", st.SAWCells)
	fmt.Printf("words decoded  %d\n", st.WordsDecoded)
	if cfg.cache {
		fmt.Printf("cache          %d hits, %d misses (%.1f%% hit rate)\n",
			st.CacheHits, st.CacheMisses, 100*st.HitRate())
		fmt.Printf("device writes  %d (%d deferred writebacks, %d coalesced away)\n",
			st.LineWrites, st.Writebacks, st.CoalescedWrites)
	}
	if cfg.spares > 0 {
		fmt.Printf("remap          %d lines relocated, %d repair failures, %d spares left\n",
			st.RemappedLines, st.RepairFailures, eng.SpareLinesLeft())
	}
	if cfg.faultRepo {
		fs := eng.FaultRepoStats()
		fmt.Printf("fault repo     %d stuck cells discovered, %d lookups (%d cache hits)\n",
			fs.Discovered, fs.Lookups, fs.CacheHits)
	}
	for s := 0; s < eng.Shards(); s++ {
		ss := eng.ShardStats(s)
		fmt.Printf("shard %-3d      %d writes, %d reads\n", s, ss.LineWrites, ss.LineReads)
	}
	return nil
}

func printStats(spec trace.Spec, records []trace.Record) {
	counts := map[uint64]int{}
	for i := range records {
		counts[records[i].Line]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := 0
	for i := 0; i < len(freqs) && i < 10; i++ {
		top += freqs[i]
	}
	fmt.Printf("benchmark      %s\n", spec.Name)
	fmt.Printf("records        %d\n", len(records))
	fmt.Printf("distinct lines %d\n", len(counts))
	fmt.Printf("hottest line   %d writes (%.1f%%)\n", freqs[0],
		100*float64(freqs[0])/float64(len(records)))
	fmt.Printf("top-10 lines   %.1f%% of writes\n",
		100*float64(top)/float64(len(records)))
}
