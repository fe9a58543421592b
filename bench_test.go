package vcc

// One testing.B benchmark per table and figure of the paper's evaluation
// (the regeneration harness required by DESIGN.md), plus micro-benchmarks
// of the encoder hot paths that the hardware-latency discussion rests on.
//
// Figure benches run the Quick-mode experiment drivers once per
// iteration; their value is end-to-end regeneration under `go test
// -bench`, not ns/op. Use cmd/vccrepro for human-readable tables.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/coset"
	"repro/internal/experiments"
	"repro/internal/pcm"
	"repro/internal/prng"
	"repro/internal/workload"
)

// benchExperiment runs one experiment driver per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Quick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

func BenchmarkFig13Sim(b *testing.B)         { benchExperiment(b, "fig13-sim") }
func BenchmarkAblateKernels(b *testing.B)    { benchExperiment(b, "ablate-kernels") }
func BenchmarkAblateM(b *testing.B)          { benchExperiment(b, "ablate-m") }
func BenchmarkAblateHybrid(b *testing.B)     { benchExperiment(b, "ablate-hybrid") }
func BenchmarkAblateCost(b *testing.B)       { benchExperiment(b, "ablate-cost") }
func BenchmarkAblateWearLevel(b *testing.B)  { benchExperiment(b, "ablate-wearlevel") }
func BenchmarkAblateCompress(b *testing.B)   { benchExperiment(b, "ablate-compress") }
func BenchmarkAblateFaultRepo(b *testing.B)  { benchExperiment(b, "ablate-faultrepo") }
func BenchmarkAblateVisibility(b *testing.B) { benchExperiment(b, "ablate-visibility") }
func BenchmarkSLCEnergy(b *testing.B)        { benchExperiment(b, "slc-energy") }
func BenchmarkAblateCAFO(b *testing.B)       { benchExperiment(b, "ablate-cafo") }
func BenchmarkShardReplay(b *testing.B)      { benchExperiment(b, "shard-replay") }
func BenchmarkWorkloadSweep(b *testing.B)    { benchExperiment(b, "workload-sweep") }
func BenchmarkCacheSweep(b *testing.B)       { benchExperiment(b, "cache-sweep") }

// --- encoder micro-benchmarks -----------------------------------------

// benchEncode measures one codec's Encode over random MLC contexts.
func benchEncode(b *testing.B, codec coset.Codec) {
	b.Helper()
	rng := prng.New(1)
	n := codec.PlaneBits()
	ctx := coset.Ctx{N: n, Mode: pcm.MLC, MLCPlane: n == 32,
		OldWord: rng.Uint64(), NewLeft: rng.Uint64() & bitutil.Mask(32)}
	ev := coset.NewEvaluator(ctx, coset.ObjEnergySAW)
	data := rng.Uint64() & bitutil.Mask(n)
	b.ReportAllocs()
	b.ResetTimer()
	var sinkE, sinkA uint64
	for i := 0; i < b.N; i++ {
		sinkE, sinkA = codec.Encode(data^uint64(i), ev)
	}
	_, _ = sinkE, sinkA
}

func BenchmarkEncodeVCC256(b *testing.B) {
	benchEncode(b, coset.NewVCCStored(64, 16, 256, 1))
}

func BenchmarkEncodeVCCGenerated256(b *testing.B) {
	benchEncode(b, coset.NewVCCGenerated(16, 256))
}

func BenchmarkEncodeRCC256(b *testing.B) {
	benchEncode(b, coset.NewRCC(64, 256, 1))
}

func BenchmarkEncodeFNW(b *testing.B) {
	benchEncode(b, coset.NewFNW(64, 16))
}

func BenchmarkEncodeFlipcy(b *testing.B) {
	benchEncode(b, coset.NewFlipcy(64))
}

// BenchmarkEncodeComplexityRatio documents the paper's central
// complexity claim in running code: VCC evaluates the same 256-candidate
// space with ~2^(p-1) = 8x fewer full-width evaluations than RCC. The
// two benches above expose the constant factors; this one pins the
// work-count ratio structurally.
func BenchmarkEncodeComplexityRatio(b *testing.B) {
	vccCodec := coset.NewVCCStored(64, 16, 256, 1)
	rcc := coset.NewRCC(64, 256, 1)
	// Work units: per Section IV, RCC applies N = r*2^p full-width coset
	// evaluations; VCC applies 2*r*p partition evaluations = 2*r full
	// widths.
	vccWork := 2 * vccCodec.NumKernels()
	rccWork := rcc.NumCosets()
	if rccWork/vccWork != 8 {
		b.Fatalf("complexity ratio %d, want 8 (=2^(p-1))", rccWork/vccWork)
	}
	benchEncode(b, vccCodec)
}

// --- sharded engine throughput ------------------------------------------
//
// BenchmarkShardedWrite reports batched write throughput (bytes/sec;
// divide by 64 for lines/sec) of the concurrent engine across shard
// counts, for MLC and SLC and all four encoder families. The batch
// addresses round-robin the full line space, so the interleaved
// partition keeps every shard busy. Batches go through the mixed op
// path (Apply) with reused op and outcome buffers: with ReportAllocs
// the steady-state write hot path must measure 0 allocs/op — the
// zero-allocation acceptance criterion (also pinned by
// TestApplySteadyStateAllocs).

// shardedEncoders are the encoder families under benchmark. Factories,
// not instances: each shard owns a private codec.
var shardedEncoders = []struct {
	name string
	mk   func() Encoder
}{
	{"VCC256", func() Encoder { return NewVCCEncoder(256) }},
	{"RCC256", func() Encoder { return NewRCCEncoder(256) }},
	{"FNW16", func() Encoder { return NewFNWEncoder(16) }},
	{"Flipcy", func() Encoder { return NewFlipcyEncoder() }},
}

func benchShardedWrite(b *testing.B, shards int, slc bool, mk func() Encoder) {
	b.Helper()
	const (
		lines     = 1 << 13
		batchSize = 1024
	)
	mem, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: lines, Shards: shards,
		NewEncoder: mk, SLC: slc, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mem.Close()
	rng := prng.New(2)
	ops := make([]Op, batchSize)
	for i := range ops {
		data := make([]byte, LineSize)
		rng.Fill(data)
		ops[i] = Op{Kind: OpWrite, Line: (i * 7) % lines, Data: data}
	}
	outs := make([]Outcome, batchSize)
	if outs, err = mem.Apply(ops, outs); err != nil { // warm the dispatch plan
		b.Fatal(err)
	}
	b.SetBytes(int64(batchSize) * LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if outs, err = mem.Apply(ops, outs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedWrite(b *testing.B) {
	for _, cell := range []struct {
		name string
		slc  bool
	}{{"MLC", false}, {"SLC", true}} {
		for _, enc := range shardedEncoders {
			for _, shards := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/shards=%d", cell.name, enc.name, shards),
					func(b *testing.B) { benchShardedWrite(b, shards, cell.slc, enc.mk) })
			}
		}
	}
}

// BenchmarkShardedMixed drives interleaved read/write batches through
// Apply at several read fractions (VCC 256, MLC), with reused op,
// data and outcome buffers — the mixed-path throughput and allocation
// evidence. Reads get faster and writes dominate energy, so ns/op
// falls as the read fraction rises.
func BenchmarkShardedMixed(b *testing.B) {
	const (
		lines     = 1 << 13
		batchSize = 1024
	)
	for _, readFrac := range []float64{0.25, 0.5, 0.75} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("readfrac=%.2f/shards=%d", readFrac, shards), func(b *testing.B) {
				mem, err := NewShardedMemory(ShardedMemoryConfig{
					Lines: lines, Shards: shards, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer mem.Close()
				rng := prng.New(3)
				ops := make([]Op, batchSize)
				for i := range ops {
					data := make([]byte, LineSize)
					rng.Fill(data)
					kind := OpWrite
					if rng.Float64() < readFrac {
						kind = OpRead
					}
					ops[i] = Op{Kind: kind, Line: (i * 7) % lines, Data: data}
				}
				outs := make([]Outcome, batchSize)
				if outs, err = mem.Apply(ops, outs); err != nil { // warm the dispatch plan
					b.Fatal(err)
				}
				b.SetBytes(int64(batchSize) * LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if outs, err = mem.Apply(ops, outs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedCached measures what the decoded-line cache buys on a
// hit-heavy ZipfHot mixed workload (VCC 256, MLC, read fraction 0.75):
// the same op batch through an uncached engine, a write-through cache
// (hits skip decode+decrypt) and a write-back cache (plus deferred,
// coalesced device writebacks). Cached variants must beat uncached on
// both ns/op and, for write-back, device LineWrites — the PR's
// performance acceptance criterion. Steady state stays 0 allocs/op.
func BenchmarkShardedCached(b *testing.B) {
	const (
		lines     = 1 << 13
		batchSize = 1024
		cacheSz   = 512
	)
	for _, variant := range []struct {
		name       string
		cacheLines int
		policy     CachePolicy
	}{
		{"uncached", 0, WriteThrough},
		{"writethrough", cacheSz, WriteThrough},
		{"writeback", cacheSz, WriteBack},
	} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", variant.name, shards), func(b *testing.B) {
				mem, err := NewShardedMemory(ShardedMemoryConfig{
					Lines: lines, Shards: shards, Seed: 1,
					CacheLines:  variant.cacheLines,
					CachePolicy: variant.policy,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer mem.Close()
				zipf := workload.NewZipfHot(lines, 1.3, prng.NewFrom(1, "bench-cached-zipf"))
				zrng := prng.NewFrom(1, "bench-cached-lines")
				rng := prng.New(3)
				ops := make([]Op, batchSize)
				for i := range ops {
					data := make([]byte, LineSize)
					rng.Fill(data)
					kind := OpWrite
					if rng.Float64() < 0.75 {
						kind = OpRead
					}
					ops[i] = Op{Kind: kind, Line: int(zipf.NextLine(zrng)), Data: data}
				}
				outs := make([]Outcome, batchSize)
				if outs, err = mem.Apply(ops, outs); err != nil { // warm plan + cache
					b.Fatal(err)
				}
				b.SetBytes(int64(batchSize) * LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if outs, err = mem.Apply(ops, outs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := mem.Stats()
				if variant.cacheLines > 0 && st.CacheHits+st.CacheMisses > 0 {
					b.ReportMetric(100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "hit%")
				}
			})
		}
	}
}

// BenchmarkShardedAsync measures the pipelined Submit/Wait path (VCC
// 256, MLC, mixed 0.5 read fraction) across in-flight depths and shard
// counts: each iteration submits one batch and waits only for the
// oldest in-flight ticket, exactly like a pipelined producer. Depth 1
// is the synchronous baseline (Submit immediately followed by Wait).
// With ReportAllocs the steady state must measure 0 allocs/op — the
// pooled-ticket acceptance criterion (also pinned by
// TestSubmitSteadyStateAllocs). Producer/consumer overlap only shows
// wall-clock gains on multi-core hosts; on one core the deeper
// pipelines just document the queue-handoff overhead.
func BenchmarkShardedAsync(b *testing.B) {
	const (
		lines     = 1 << 13
		batchSize = 1024
	)
	for _, depth := range []int{1, 4, 16} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("inflight=%d/shards=%d", depth, shards), func(b *testing.B) {
				mem, err := NewShardedMemory(ShardedMemoryConfig{
					Lines: lines, Shards: shards, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer mem.Close()
				sess := mem.Session()
				rng := prng.New(3)
				type slot struct {
					ops []Op
					out []Outcome
					tk  *Ticket
				}
				slots := make([]slot, depth)
				for s := range slots {
					slots[s].ops = make([]Op, batchSize)
					slots[s].out = make([]Outcome, batchSize)
					for i := range slots[s].ops {
						data := make([]byte, LineSize)
						rng.Fill(data)
						kind := OpWrite
						if rng.Float64() < 0.5 {
							kind = OpRead
						}
						slots[s].ops[i] = Op{Kind: kind, Line: (s*batchSize + i*7) % lines, Data: data}
					}
				}
				rotate := func(s int) {
					sl := &slots[s%depth]
					if sl.tk != nil {
						if _, err := sl.tk.Wait(); err != nil {
							b.Fatal(err)
						}
					}
					tk, err := sess.Submit(sl.ops, sl.out)
					if err != nil {
						b.Fatal(err)
					}
					sl.tk = tk
				}
				for s := 0; s < 2*depth; s++ { // warm tickets, plans and pipeline
					rotate(s)
				}
				b.SetBytes(int64(batchSize) * LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rotate(i)
				}
				b.StopTimer()
				for s := range slots {
					if slots[s].tk != nil {
						if _, err := slots[s].tk.Wait(); err != nil {
							b.Fatal(err)
						}
						slots[s].tk = nil
					}
				}
			})
		}
	}
}

// BenchmarkShardedMultiProducer measures queue contention under
// concurrent submitters (the ROADMAP's multi-producer saturation
// bench): several goroutines, each with a private Session and its own
// depth-4 pipeline of mixed batches, submit concurrently into the same
// 4-shard engine, swept over QueueDepth. One benchmark op is one batch
// submitted+retired somewhere in the fleet, so ns/op directly compares
// contended against single-producer submission (BenchmarkShardedAsync);
// shallow queues (QueueDepth=1) serialize producers against the
// drainers and document the backpressure cost, deep queues let them
// saturate. On this repo's 1-core CI-class hosts the sweep measures
// queue handoff overhead; wall-clock scaling appears on multi-core.
func BenchmarkShardedMultiProducer(b *testing.B) {
	const (
		lines     = 1 << 13
		batchSize = 256
		pipeDepth = 4
		shards    = 4
	)
	for _, producers := range []int{2, 4} {
		for _, queueDepth := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("producers=%d/qdepth=%d", producers, queueDepth), func(b *testing.B) {
				mem, err := NewShardedMemory(ShardedMemoryConfig{
					Lines: lines, Shards: shards, Seed: 1,
					QueueDepth: queueDepth,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer mem.Close()
				type slot struct {
					ops []Op
					out []Outcome
					tk  *Ticket
				}
				type producer struct {
					sess  *Session
					slots []slot
				}
				rng := prng.New(3)
				prods := make([]*producer, producers)
				for pi := range prods {
					p := &producer{sess: mem.Session(), slots: make([]slot, pipeDepth)}
					for s := range p.slots {
						p.slots[s].ops = make([]Op, batchSize)
						p.slots[s].out = make([]Outcome, batchSize)
						for i := range p.slots[s].ops {
							data := make([]byte, LineSize)
							rng.Fill(data)
							kind := OpWrite
							if rng.Float64() < 0.5 {
								kind = OpRead
							}
							p.slots[s].ops[i] = Op{Kind: kind,
								Line: (pi*1009 + s*batchSize + i*7) % lines, Data: data}
						}
					}
					prods[pi] = p
				}
				work := func(p *producer, batches int) error {
					for n := 0; n < batches; n++ {
						sl := &p.slots[n%pipeDepth]
						if sl.tk != nil {
							if _, err := sl.tk.Wait(); err != nil {
								return err
							}
						}
						tk, err := p.sess.Submit(sl.ops, sl.out)
						if err != nil {
							return err
						}
						sl.tk = tk
					}
					for s := range p.slots {
						if p.slots[s].tk != nil {
							if _, err := p.slots[s].tk.Wait(); err != nil {
								return err
							}
							p.slots[s].tk = nil
						}
					}
					return nil
				}
				for _, p := range prods { // warm tickets, plans and caches
					if err := work(p, 2*pipeDepth); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(batchSize) * LineSize)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				errs := make([]error, producers)
				for pi, p := range prods {
					// Producer pi takes batches pi, pi+producers, ... of b.N.
					n := b.N / producers
					if pi < b.N%producers {
						n++
					}
					wg.Add(1)
					go func(pi int, p *producer, n int) {
						defer wg.Done()
						errs[pi] = work(p, n)
					}(pi, p, n)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedRead is the read-path counterpart at the headline
// configuration (VCC 256, MLC).
func BenchmarkShardedRead(b *testing.B) {
	const (
		lines     = 1 << 12
		batchSize = 1024
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			mem, err := NewShardedMemory(ShardedMemoryConfig{
				Lines: lines, Shards: shards, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := prng.New(3)
			buf := make([]byte, LineSize)
			for l := 0; l < lines; l++ {
				rng.Fill(buf)
				if _, err := mem.Write(l, buf); err != nil {
					b.Fatal(err)
				}
			}
			ops := make([]Op, batchSize)
			for i := range ops {
				ops[i] = Op{Kind: OpRead, Line: (i * 5) % lines, Data: make([]byte, LineSize)}
			}
			outs := make([]Outcome, batchSize)
			b.SetBytes(int64(batchSize) * LineSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if outs, err = mem.Apply(ops, outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
