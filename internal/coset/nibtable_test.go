package coset

import (
	"testing"

	"repro/internal/bitutil"
	"repro/internal/pcm"
	"repro/internal/prng"
)

// TestNibbleTableCountsExact pins the nibble count tables against
// brute-force per-cell counting. buildNibbleTables derives entries with
// SWAR mask algebra and a packed doubling DP; the oracle here walks one
// cell at a time with scalar ifs — a deliberately different
// implementation of the same definition, so a vectorization bug cannot
// hide in both. Both packed halves of every entry are checked: the low
// 32 bits against the nibble value itself, the high 32 against its
// in-partition complement.

// bruteGroupCounts counts, one cell at a time, the contributions of
// nibble group g of partition j of the write context ctx when the
// candidate's group bits equal nib: MLC high/low-energy programs (or SLC
// SET/RESET in the hi/lo slots) and stuck-at-wrong cells. It reads the
// partition's sub-blocks from ctx's words, not from the bound context.
func bruteGroupCounts(sc *SlicedCtx, ctx Ctx, j, g int, nib uint64) (hi, lo, saw int) {
	w := sc.m
	if sc.mlcPlane {
		w = 2 * sc.m
	}
	oldJ := bitutil.SubBlock(ctx.OldWord, j, w)
	smJ := bitutil.SubBlock(ctx.StuckMask, j, w)
	svJ := bitutil.SubBlock(ctx.StuckVal, j, w)
	if sc.mlcPlane {
		// Group g covers symbols [4g, 4g+4) of the partition; each symbol
		// occupies two bits of the 2m-bit word-coordinate sub-block, with
		// the candidate supplying the right digit and NewLeft the left.
		leftJ := bitutil.SubBlock(ctx.NewLeft, j, sc.m)
		for s := 0; s < 4; s++ {
			if 4*g+s >= sc.m {
				break
			}
			bit := uint(8*g + 2*s)
			oldSym := oldJ >> bit & 3
			left := leftJ >> uint(4*g+s) & 1
			desired := left<<1 | nib>>uint(s)&1
			sm := smJ >> bit & 3
			sv := svJ >> bit & 3
			stored := (desired &^ sm) | (sv & sm)
			if stored != oldSym {
				if stored&1 == 1 {
					hi++
				} else {
					lo++
				}
			}
			if (desired^sv)&sm != 0 {
				saw++
			}
		}
		return hi, lo, saw
	}
	if sc.mode == pcm.MLC {
		// Full-word MLC: group g covers two whole symbols, bits
		// [4g, 4g+4) of the m-bit slice.
		for s := 0; s < 2; s++ {
			if 4*g+2*s >= sc.m {
				break
			}
			bit := uint(4*g + 2*s)
			oldSym := oldJ >> bit & 3
			desired := nib >> uint(2*s) & 3
			sm := smJ >> bit & 3
			sv := svJ >> bit & 3
			stored := (desired &^ sm) | (sv & sm)
			if stored != oldSym {
				if stored&1 == 1 {
					hi++
				} else {
					lo++
				}
			}
			if (desired^sv)&sm != 0 {
				saw++
			}
		}
		return hi, lo, saw
	}
	// SLC: four independent cells; the hi slot carries SETs (0→1), the
	// lo slot RESETs (1→0).
	for s := 0; s < 4; s++ {
		if 4*g+s >= sc.m {
			break
		}
		bit := uint(4*g + s)
		oldBit := oldJ >> bit & 1
		desired := nib >> uint(s) & 1
		sm := smJ >> bit & 1
		sv := svJ >> bit & 1
		stored := (desired &^ sm) | (sv & sm)
		if stored != oldBit {
			if stored == 1 {
				hi++
			} else {
				lo++
			}
		}
		if (desired^sv)&sm != 0 {
			saw++
		}
	}
	return hi, lo, saw
}

// TestBindForTablesAllocFree is the package-local half of the
// steady-state 0-alloc guard (the engine-level half is
// shard.TestApplySteadyStateAllocsSlicedEncoders): rebinding a warm
// SlicedCtx with table construction and running the headline VCC encode
// must not allocate, even as the rotating contexts force fresh nibble
// tables — and occasionally a fresh energy model, which rebuilds the
// etab cache — on every word.
func TestBindForTablesAllocFree(t *testing.T) {
	rng := prng.New(0xA110C)
	const ringLen = 8
	var ctxs [ringLen]Ctx
	var data [ringLen]uint64
	for i := range ctxs {
		ctxs[i] = equivCtx(rng, 32, true)
		data[i] = rng.Uint64() & 0xFFFFFFFF
	}
	codec := NewVCCGenerated(16, 256)
	ev := NewEvaluator(ctxs[0], ObjEnergySAW)
	var sc SlicedCtx
	run := func() {
		for i := range ctxs {
			ev.Reset(ctxs[i], ObjEnergySAW)
			codec.EncodeSliced(data[i], ev, &sc)
		}
	}
	run() // warm: the codec's search scratch is built lazily
	if !sc.tabOK {
		t.Fatal("VCC-Gen kernel count did not build nibble tables")
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("steady-state bind+encode allocated %.2f times per ring pass, want 0", avg)
	}
}

// TestBindLineRebindAllocFree pins the line-scoped bind contract: after
// one successful BindLine, same-configuration BindFor calls must take
// the warm fingerprint path — one fastRebinds increment per word, no
// allocations — while still re-slicing each word's context. This is the
// controller's per-line pattern (8 words, one fingerprint).
func TestBindLineRebindAllocFree(t *testing.T) {
	rng := prng.New(0xB11D)
	const ringLen = 8
	var ctxs [ringLen]Ctx
	for i := range ctxs {
		ctxs[i] = equivCtx(rng, 64, false)
		// Hold the word-invariant fingerprint fields fixed across the
		// ring; everything per-word (old word, stuck cells, old aux)
		// stays randomized.
		ctxs[i].Mode = pcm.SLC
		ctxs[i].Energy = pcm.EnergyModel{}
	}
	ev := NewEvaluator(ctxs[0], ObjEnergySAW)
	var sc SlicedCtx
	const kernels = 64 // an r=64 kernel set: tables amortize under energy+SAW
	if !sc.BindLine(ev, 16, kernels) {
		t.Fatal("BindLine refused a supported configuration")
	}
	run := func() {
		for i := range ctxs {
			ev.Reset(ctxs[i], ObjEnergySAW)
			if !sc.BindFor(ev, 16, kernels) {
				t.Fatal("BindFor refused the bound-line configuration")
			}
		}
	}
	before := sc.fastRebinds
	run()
	if got := sc.fastRebinds - before; got != ringLen {
		t.Errorf("warm ring pass took %d fast rebinds, want %d", got, ringLen)
	}
	if !sc.tabOK {
		t.Fatal("r=64 kernel set did not build nibble tables under energy+SAW")
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm BindFor ring pass allocated %.2f times, want 0", avg)
	}
	// A changed objective must miss the fingerprint and rebind cold.
	before = sc.fastRebinds
	ev.Reset(ctxs[0], ObjFlips)
	if !sc.BindFor(ev, 16, kernels) {
		t.Fatal("BindFor refused an objective change")
	}
	if sc.fastRebinds != before {
		t.Error("objective change incorrectly took the warm fingerprint path")
	}
}

func TestNibbleTableCountsExact(t *testing.T) {
	rng := prng.New(0x7AB1E)
	var sc SlicedCtx
	sc.ForceTables = true
	checkHalf := func(t *testing.T, sc *SlicedCtx, ctx Ctx, j, g int, nib uint64, got uint32) {
		t.Helper()
		hi, lo, saw := bruteGroupCounts(sc, ctx, j, g, nib)
		want := uint32(hi) | uint32(lo)<<8 | uint32(saw)<<16
		if got != want {
			t.Fatalf("m=%d mode=%v plane=%v j=%d g=%d nib=%#x: table counts (hi=%d lo=%d saw=%d), brute force (hi=%d lo=%d saw=%d)",
				sc.m, sc.mode, sc.mlcPlane, j, g, nib,
				got&0xFF, got>>8&0xFF, got>>16&0xFF, hi, lo, saw)
		}
	}
	for trial := 0; trial < 150; trial++ {
		mlcPlane := trial%2 == 0
		n := 64
		if mlcPlane {
			n = 32
		}
		ctx := equivCtx(rng, n, mlcPlane)
		// m=2 exercises the partial final group (lastNibMask = 0x3);
		// the wider kernels cover multi-group partitions.
		for _, m := range []int{2, 8, 16, 32} {
			ev := NewEvaluator(ctx, ObjEnergySAW)
			if !sc.Bind(ev, m) {
				t.Fatalf("Bind failed for supported config n=%d m=%d", n, m)
			}
			if !sc.tabOK {
				t.Fatalf("ForceTables bind built no tables (n=%d m=%d)", n, m)
			}
			for j := 0; j < sc.p; j++ {
				for g := 0; g < sc.groups; g++ {
					gmask := uint64(0xF)
					if g == sc.groups-1 {
						gmask = sc.lastNibMask
					}
					for nib := uint64(0); nib < 16; nib++ {
						if nib&^gmask != 0 {
							continue // candidates never index past the partition width
						}
						ent := sc.nibTab[(j*sc.groups+g)*16+int(nib)]
						checkHalf(t, &sc, ctx, j, g, nib, uint32(ent))
						checkHalf(t, &sc, ctx, j, g, nib^gmask, uint32(ent>>32))
					}
				}
			}
		}
	}
}
