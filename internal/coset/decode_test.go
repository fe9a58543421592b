package coset

import (
	"testing"

	"repro/internal/bitutil"
	"repro/internal/prng"
)

// The line-decode contract is the same as the encode one: DecodeWords
// must equal a per-word Decode loop bit-for-bit, for every plan shape —
// stored ROMs read pre-tiled kernels, generated sources answer single
// kernels through KernelAt, FNW collapses to a flag-table XOR, and
// geometries too wide for the plan fall back to Decode itself.

// lineDecCases spans every DecodeWords dispatch arm at least once.
func lineDecCases() []struct {
	name string
	dec  LineDecoder
	n, p int
	r    int // kernel-index range for aux synthesis; 0 = no index bits
} {
	return []struct {
		name string
		dec  LineDecoder
		n, p int
		r    int
	}{
		// storedTiled arm.
		{"VCC-Stored(64,256,16)", NewVCCStored(64, 16, 256, 1), 64, 4, 16},
		{"VCC-Stored(32,64,16)", NewVCCStored(32, 16, 64, 3), 32, 2, 16},
		// kat arm (generated and hybrid-over-generated sources).
		{"VCC-Gen(16,256)", NewVCCGenerated(16, 256), 32, 2, 64},
		{"VCC-Gen(8,256)", NewVCCGenerated(8, 256), 32, 4, 16},
		{"VCC-Hybrid-Gen", NewVCC(32, WithHybridKernels(NewGeneratedKernels(32, 16, 16))), 32, 2, 17},
		// Hybrid over a ROM reports Stored() and lands on storedTiled.
		{"VCC-Hybrid-Stored", NewVCC(64, WithHybridKernels(NewStoredKernels(15, 16, 5))), 64, 4, 16},
		// p > vccFlagTabMaxP: plan disabled, per-word Decode fallback.
		{"VCC-Stored(64,65536,1)m4", NewVCCStored(64, 4, 1<<16, 7), 64, 16, 1},
		// FNW flag-table arm and its wide-p fallback.
		{"FNW(64,16)", NewFNW(64, 16), 64, 4, 0},
		{"FNW(32,16)", NewFNW(32, 16), 32, 2, 0},
		{"FNW(64,4)", NewFNW(64, 4), 64, 16, 0},
	}
}

// TestDecodeWordsMatchesDecode pins the batched decode against the
// per-word reference on random stored lines. Inputs are synthesized
// directly — any (enc, aux, left) with an in-range kernel index is a
// legal stored word, whether or not an encoder would have produced it,
// so the oracle covers the whole input domain rather than only
// encoder-reachable points.
func TestDecodeWordsMatchesDecode(t *testing.T) {
	rng := prng.New(0xDEC0DE)
	const wordsPerLine = 8
	for _, tc := range lineDecCases() {
		t.Run(tc.name, func(t *testing.T) {
			var enc, aux, left, got, want [wordsPerLine]uint64
			for trial := 0; trial < 200; trial++ {
				for i := 0; i < wordsPerLine; i++ {
					// Raw 64-bit stored values: Decode masks to the plane
					// width itself, so garbage high bits must not leak.
					enc[i] = rng.Uint64()
					left[i] = rng.Uint64() & bitutil.Mask(32)
					if tc.r > 0 {
						ki := rng.Uint64() % uint64(tc.r)
						aux[i] = ki<<uint(tc.p) | rng.Uint64()&bitutil.Mask(tc.p)
					} else {
						// FNW ignores aux bits above the sub-block count.
						aux[i] = rng.Uint64()
					}
					want[i] = tc.dec.Decode(enc[i], aux[i], left[i])
				}
				tc.dec.DecodeWords(enc[:], aux[:], left[:], got[:])
				for i := 0; i < wordsPerLine; i++ {
					if got[i] != want[i] {
						t.Fatalf("trial %d word %d: DecodeWords = %#x, Decode = %#x (enc=%#x aux=%#x left=%#x)",
							trial, i, got[i], want[i], enc[i], aux[i], left[i])
					}
				}
			}
		})
	}
}

// TestDecodeWordsRoundTripsEncode closes the loop through the encoder:
// encode 8 random words under random contexts, batch-decode the line,
// and require the original data back. This is the controller's actual
// read path in miniature (memctrl.ReadLine drives DecodeWords the same
// way), exercising encoder-shaped aux rather than uniform aux.
func TestDecodeWordsRoundTripsEncode(t *testing.T) {
	rng := prng.New(0x0DEC)
	const wordsPerLine = 8
	for _, ec := range equivCodecs() {
		dec, ok := ec.codec.(LineDecoder)
		if !ok {
			continue
		}
		t.Run(ec.name, func(t *testing.T) {
			var enc, aux, left, data, got [wordsPerLine]uint64
			for trial := 0; trial < 100; trial++ {
				for i := 0; i < wordsPerLine; i++ {
					ctx := equivCtx(rng, ec.n, ec.mlcPlane)
					data[i] = rng.Uint64() & bitutil.Mask(ec.n)
					left[i] = ctx.NewLeft
					ev := NewEvaluator(ctx, ObjEnergySAW)
					enc[i], aux[i] = ec.codec.Encode(data[i], ev)
				}
				dec.DecodeWords(enc[:], aux[:], left[:], got[:])
				for i := 0; i < wordsPerLine; i++ {
					if got[i] != data[i] {
						t.Fatalf("trial %d word %d: round trip = %#x, want %#x",
							trial, i, got[i], data[i])
					}
				}
			}
		})
	}
}

// BenchmarkDecode compares the batched line decode (fast) against the
// per-word reference loop (ref) for the engine's codec shapes, under the
// same /fast and /ref naming as BenchmarkEncode, so one pairing rule and
// one zero-allocation gate cover both; ReportAllocs pins each variant at
// zero allocations per line.
func BenchmarkDecode(b *testing.B) {
	const wordsPerLine = 8
	cases := []struct {
		name string
		dec  LineDecoder
		n, p int
		r    int
	}{
		{"vcc_stored256", NewVCCStored(64, 16, 256, 1), 64, 4, 16},
		{"vcc_gen256", NewVCCGenerated(16, 256), 32, 2, 64},
		{"fnw16", NewFNW(64, 16), 64, 4, 0},
	}
	for _, tc := range cases {
		rng := prng.New(0xBE7C)
		var enc, aux, left, out [wordsPerLine]uint64
		for i := 0; i < wordsPerLine; i++ {
			enc[i] = rng.Uint64()
			left[i] = rng.Uint64() & bitutil.Mask(32)
			if tc.r > 0 {
				aux[i] = (rng.Uint64()%uint64(tc.r))<<uint(tc.p) |
					rng.Uint64()&bitutil.Mask(tc.p)
			} else {
				aux[i] = rng.Uint64()
			}
		}
		b.Run(tc.name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.dec.DecodeWords(enc[:], aux[:], left[:], out[:])
			}
		})
		b.Run(tc.name+"/ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for w := 0; w < wordsPerLine; w++ {
					out[w] = tc.dec.Decode(enc[w], aux[w], left[w])
				}
			}
		})
	}
}
