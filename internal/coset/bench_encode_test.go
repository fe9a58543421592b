package coset

import (
	"fmt"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/pcm"
	"repro/internal/prng"
)

// BenchmarkEncode is the codec x objective x cell-technology encode
// matrix, with fast/ref variants for the sliced-path codecs. Contexts
// rotate through a pre-generated ring so successive iterations see
// fresh-but-reproducible words without timing the PRNG; ReportAllocs
// pins every variant at zero steady-state allocations per encode.
//
// The headline pair is Encode/VCC-Gen(16,256)/MLC/energy+saw: fast
// must stay at least 2x faster than ref. cmd/benchreport -diff holds
// every /fast result to its /ref sibling's ratio in the committed
// BENCH_<n>.json, and every zero-allocation result at zero.
//
// Every ring context carries stuck cells, but the benchmark workloads
// encode almost only stuck-free words (all of write-uniform-energy's and
// served-uniform-rw's, 97.2% of aged-remap-saw's), which the energy arms
// price by a shorter derivation. So the three encodes the workloads run
// also time the same ring with every stuck cell cleared, under
// <codec>/<cell>/<objective>/stuck-free/{fast,ref}.

// benchCtxRing pre-generates write contexts for a configuration.
type benchCtxRing struct {
	ctxs []Ctx
	data []uint64
}

func newBenchCtxRing(n int, mlcPlane, slc bool, seed uint64) *benchCtxRing {
	const ringLen = 256
	rng := prng.New(seed)
	r := &benchCtxRing{
		ctxs: make([]Ctx, ringLen),
		data: make([]uint64, ringLen),
	}
	mode := pcm.MLC
	if slc {
		mode = pcm.SLC
	}
	for i := range r.ctxs {
		stuckSym := rng.Uint64() & rng.Uint64() & rng.Uint64() & bitutil.Mask(32)
		var stuckMask uint64
		if mode == pcm.MLC {
			stuckMask = bitutil.ExpandSymbolMask(stuckSym)
		} else {
			stuckMask = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		r.ctxs[i] = Ctx{
			N: n, Mode: mode, MLCPlane: mlcPlane,
			OldWord:   rng.Uint64(),
			NewLeft:   rng.Uint64() & bitutil.Mask(32),
			StuckMask: stuckMask,
			StuckVal:  rng.Uint64() & stuckMask,
			OldAux:    rng.Uint64() & 0xFFFF,
		}
		r.data[i] = rng.Uint64() & bitutil.Mask(n)
	}
	return r
}

// stuckFree returns a copy of the ring with every stuck cell cleared:
// the same old words, left digits, old aux bits and data.
func (r *benchCtxRing) stuckFree() *benchCtxRing {
	out := &benchCtxRing{ctxs: append([]Ctx(nil), r.ctxs...), data: r.data}
	for i := range out.ctxs {
		out.ctxs[i].StuckMask, out.ctxs[i].StuckVal = 0, 0
	}
	return out
}

// encodeFunc abstracts over the fast and reference entry points.
type encodeFunc func(data uint64, ev *Evaluator) (uint64, uint64)

func benchEncodeLoop(b *testing.B, ring *benchCtxRing, obj Objective, enc encodeFunc) {
	b.Helper()
	ev := NewEvaluator(ring.ctxs[0], obj)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		k := i & (len(ring.ctxs) - 1)
		ev.Reset(ring.ctxs[k], obj)
		e, a := enc(ring.data[k], ev)
		sink ^= e ^ a
	}
	_ = sink
}

func BenchmarkEncode(b *testing.B) {
	type codecCase struct {
		name     string
		codec    Codec
		n        int
		mlcPlane bool
		slcOK    bool // full-word codecs also run on SLC contexts
	}
	cases := []codecCase{
		{"VCC-Stored(64,256,16)", NewVCCStored(64, 16, 256, 1), 64, false, true},
		// r=64: the lane scan on a full-word ROM with four times the
		// kernels of the r=16 one above.
		{"VCC-Stored(64,1024,64)", NewVCCStored(64, 16, 1024, 1), 64, false, true},
		{"VCC-Gen(16,256)", NewVCCGenerated(16, 256), 32, true, false},
		{"RCC(64,256)", NewRCC(64, 256, 1), 64, false, true},
		{"FNW(64,16)", NewFNW(64, 16), 64, false, true},
		{"Flipcy(64)", NewFlipcy(64), 64, false, true},
	}
	objs := []Objective{ObjFlips, ObjOnes, ObjEnergySAW, ObjSAWEnergy}
	// The encodes the benchmark workloads run: served-uniform-rw's,
	// write-uniform-energy's and aged-remap-saw's.
	workloadEncodes := map[string]bool{
		"VCC-Gen(16,256)/MLC/energy+saw":       true,
		"VCC-Stored(64,256,16)/MLC/energy+saw": true,
		"VCC-Stored(64,256,16)/SLC/saw+energy": true,
	}
	for _, cc := range cases {
		cells := []struct {
			name string
			slc  bool
		}{{"MLC", false}}
		if cc.slcOK {
			cells = append(cells, struct {
				name string
				slc  bool
			}{"SLC", true})
		}
		for _, cell := range cells {
			ring := newBenchCtxRing(cc.n, cc.mlcPlane, cell.slc, 1)
			for _, obj := range objs {
				name := fmt.Sprintf("%s/%s/%v", cc.name, cell.name, obj)
				if fc, ok := cc.codec.(FastCodec); ok {
					pair := func(name string, ring *benchCtxRing) {
						var sc SlicedCtx
						b.Run(name+"/fast", func(b *testing.B) {
							benchEncodeLoop(b, ring, obj, func(d uint64, ev *Evaluator) (uint64, uint64) {
								return fc.EncodeSliced(d, ev, &sc)
							})
						})
						b.Run(name+"/ref", func(b *testing.B) {
							benchEncodeLoop(b, ring, obj, refEncodeFunc(cc.codec))
						})
					}
					pair(name, ring)
					if workloadEncodes[name] {
						pair(name+"/stuck-free", ring.stuckFree())
					}
				} else {
					b.Run(name, func(b *testing.B) {
						benchEncodeLoop(b, ring, obj, cc.codec.Encode)
					})
				}
			}
		}
	}
}

// refEncodeFunc returns the retained reference search of a sliced-path
// codec.
func refEncodeFunc(c Codec) encodeFunc {
	switch rc := c.(type) {
	case *VCC:
		return rc.EncodeRef
	case *FNW:
		return rc.EncodeRef
	default:
		return c.Encode
	}
}

// BenchmarkSlicedCtxBind isolates the per-word bind overhead the
// controller pays before any candidate is priced: VCC-Gen(16,256)'s
// energy+SAW bind on rotating contexts, which after the first word takes
// the line-scoped fingerprint path. ReportAllocs pins it at zero.
func BenchmarkSlicedCtxBind(b *testing.B) {
	ring := newBenchCtxRing(32, true, false, 2)
	ev := NewEvaluator(ring.ctxs[0], ObjEnergySAW)
	var sc SlicedCtx
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (len(ring.ctxs) - 1)
		ev.Reset(ring.ctxs[k], ObjEnergySAW)
		if !sc.BindFor(ev, 16, 64) {
			b.Fatal("bind failed")
		}
	}
}
