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
		// r=64: past the table threshold, so energy+SAW takes the table
		// scan here and the lane scan at r=16 above.
		{"VCC-Stored(64,1024,64)", NewVCCStored(64, 16, 1024, 1), 64, false, true},
		{"VCC-Gen(16,256)", NewVCCGenerated(16, 256), 32, true, false},
		{"RCC(64,256)", NewRCC(64, 256, 1), 64, false, true},
		{"FNW(64,16)", NewFNW(64, 16), 64, false, true},
		{"Flipcy(64)", NewFlipcy(64), 64, false, true},
	}
	objs := []Objective{ObjFlips, ObjOnes, ObjEnergySAW, ObjSAWEnergy}
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
					var sc SlicedCtx
					b.Run(name+"/fast", func(b *testing.B) {
						benchEncodeLoop(b, ring, obj, func(d uint64, ev *Evaluator) (uint64, uint64) {
							return fc.EncodeSliced(d, ev, &sc)
						})
					})
					b.Run(name+"/ref", func(b *testing.B) {
						benchEncodeLoop(b, ring, obj, refEncodeFunc(cc.codec))
					})
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

// BenchmarkSlicedCtxBind isolates the per-word slicing overhead the
// controller pays before any candidate is priced: the direct variant is
// slicing alone (no tables, the FNW-style bind), the tables variant adds
// nibble-count table construction with the VCC-Gen(16,256) query-volume
// hint — the full per-word rebind cost of the headline encode path.
// ReportAllocs pins both at zero: the tables are fixed arrays owned by
// the SlicedCtx, rebuilt in place on every rebind.
func BenchmarkSlicedCtxBind(b *testing.B) {
	variants := []struct {
		name string
		hint int
	}{
		{"direct", 0},
		{"tables", 2 * 256}, // 2 orientations x r=256 kernel prices per partition
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			ring := newBenchCtxRing(32, true, false, 2)
			ev := NewEvaluator(ring.ctxs[0], ObjEnergySAW)
			var sc SlicedCtx
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i & (len(ring.ctxs) - 1)
				ev.Reset(ring.ctxs[k], ObjEnergySAW)
				if !sc.BindFor(ev, 16, v.hint) {
					b.Fatal("bind failed")
				}
			}
			if v.hint > 0 && !sc.tabOK {
				b.Fatal("tables variant built no tables")
			}
		})
	}
}
