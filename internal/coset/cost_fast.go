package coset

// The partition-sliced encode fast path.
//
// Every candidate the VCC/FNW searches price is a per-partition edit of
// the same physical write context: the old word, the stuck cells, the
// incoming left digits and the old auxiliary bits never change while
// Algorithm 1 enumerates its r kernels x p partitions x 2 complements.
// The reference Evaluator nevertheless re-derives the full-word plane
// merge, the symbol-mask expansion and the stuck-cell overlay on every
// Part call. SlicedCtx instead binds the context once per write — the
// old word, stuck mask and stuck values restricted to the plane, the
// spread-odd merged-left contribution, and a 2x2 aux-bit cost table —
// after which pricing one m-bit candidate value is a handful of
// sub-word bit operations on partition j's sub-block of those words.
//
// Bit-identity with the reference path is a hard invariant (enforced by
// TestFastEncodeMatchesReference and FuzzEncodeEquivalence): PartCost
// computes the same integer cell counts as Evaluator.Part and feeds them
// through the same float64 expressions, so the resulting Pairs are equal
// as bit patterns, not merely approximately.

import (
	"math"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/pcm"
)

// maxSlices bounds the partition count of a sliced context: a 64-bit
// plane in 1-bit partitions.
const maxSlices = 64

// SlicedCtx is a write context bound for pricing partition by partition.
// A memory controller owns one and rebinds it per word (Bind allocates
// nothing), reusing its energy table across the eight words of a line
// and across lines; codecs also embed one as a fallback so the plain
// Codec.Encode entry point gets the fast path too.
//
// The zero value is unbound; Bind must succeed before PartCost/AuxBit
// are used.
type SlicedCtx struct {
	m, p     int
	obj      Objective
	mode     pcm.CellMode
	mlcPlane bool
	energy   pcm.EnergyModel
	oldAux   uint64

	// The write context: the old word, the stuck mask, the stuck values
	// under it and, on the MLC plane, the spread-odd left digits, all
	// restricted to the plane's bits in word coordinates (wordMask). The
	// lane scan reads them whole; PartCost reads partition j's sub-block
	// (part), the partW bits from j*partW: m bits, or on the MLC plane
	// the 2m bits of the partition's symbols. partMask is Mask(partW).
	wOld, wStuckMask, wStuckVal, wLeft uint64
	partW                              uint
	partMask                           uint64

	// auxTab[old][val] is the cost of writing an auxiliary bit with
	// value val over stored value old — the whole Evaluator.AuxBit
	// switch collapsed to one table lookup, valid for every bit index
	// because aux-bit cost depends only on the (old, new) bit pair.
	auxTab [2][2]Pair

	// Lane-scan geometry, fixed by BindLine (see lanes.go). lane is the
	// width L of one partition in word coordinates (m, or 2m on the MLC
	// plane), or 0 when the lane scan cannot price the geometry; cells
	// is the number of cells in it. pop counts bits per lane, sel
	// compares and selects lanes, and foldFrom starts laneTotal at the
	// lane width. flipMask is the set of bits a complemented candidate
	// flips (the plane's bits, or their right digits on the MLC plane)
	// and wordMask the plane's bits in word coordinates. The energy arms
	// derive a word's counts by stuckKind when it has a known stuck cell
	// and by freeKind otherwise.
	lane                uint
	cells               int
	pop                 lanePop
	sel                 laneSel
	foldFrom            int
	flipMask            uint64
	wordMask            uint64
	stuckKind, freeKind laneKind

	// Integer energy keys, chosen by bindKeys: when intKeys is set the
	// lane scan prices the energy objectives with laneScanKeys, the
	// coefficients as the integers qHi and qLo shifted left by keyE (the
	// energy field of a key) and the SAW count shifted left by keyS.
	intKeys    bool
	qHi, qLo   uint64
	keyE, keyS uint

	// Line-scoped bind state. lineKey fingerprints every input of the
	// word-invariant bind layer (geometry validation, the 2x2 aux-bit
	// cost table, the lane layout, the energy table, the energy arm);
	// when a rebind arrives with an identical fingerprint — the 8 words
	// of a cache line, or every word of a steady single-codec workload —
	// BindFor skips that whole layer and only re-slices the new word.
	// fastRebinds counts the skips (observable by tests; one increment per
	// word is noise next to the work it replaces).
	lineOK      bool
	lineKey     bindKey
	fastRebinds uint64

	// etab memoizes the energy multiply-accumulate over count pairs:
	// etab[lo<<6|hi] = float64(hi)*cHi + float64(lo)*cLo, the exact
	// pcm.*EnergyFromCounts expression, so the lane scan's float arm
	// converts counts to energy with one load instead of two
	// int-to-float conversions and two multiplies. Fields are 6 bits, so
	// the table serves any partition of at most 63 cells. cHi/cLo are the
	// coefficients it holds, the bound mode's (MLC high/low, or SLC
	// SET/RESET) under either energy objective: BindLine rebuilds it
	// only when they change (in steady state the check is two float
	// compares per line bind). nonneg reports that both are +0 or
	// positive and finite, so every candidate energy is too and orders
	// like its IEEE bit pattern, which the float arm's branch-free select
	// relies on.
	etabOK   bool
	nonneg   bool
	cHi, cLo float64
	etab     [64 * 64]float64
}

// Bind binds ev's write context for kernel width m and reports whether
// the sliced fast path supports this configuration. It returns false —
// and the caller must fall back to the reference search — when a
// partition boundary would split an MLC symbol (full-word MLC with odd
// m), since such a partition cannot be priced from an independent slice.
// Codecs that search a kernel set use BindFor.
func (sc *SlicedCtx) Bind(ev *Evaluator, m int) bool {
	return sc.BindFor(ev, m, 0)
}

// bindKey fingerprints the word-invariant inputs of a bind: the plane
// geometry, objective, cell mode, energy model and the codec's kernel
// count. Everything else a bind consumes (the old word, stuck cells, left
// digits, old aux) is per-word.
type bindKey struct {
	n, m     int
	obj      Objective
	mode     pcm.CellMode
	mlcPlane bool
	energy   pcm.EnergyModel
	kernels  int
}

// BindFor is Bind for a codec that searches the given number of
// kernels, whose index takes log2(kernels) aux bits; the lane scan's
// integer energy keys must hold that index's cost (bindKeys).
//
// BindFor is line-scoped: when the configuration fingerprint matches
// the previous bind — the common case for the 8 words of a cache line,
// and for consecutive lines of a steady workload — the word-invariant
// layer (BindLine) is skipped and only the new word is bound.
func (sc *SlicedCtx) BindFor(ev *Evaluator, m, kernels int) bool {
	if ev.planeMask == 0 {
		// Raw-literal evaluator: rebind so defaults (plane width, energy
		// model) are applied before the context is copied into slices —
		// the same self-heal the reference eval performs, keeping fast
		// and reference paths on identical contexts.
		ev.Reset(ev.Ctx, ev.Obj)
	}
	c := &ev.Ctx
	if !sc.lineOK || (bindKey{c.N, m, ev.Obj, c.Mode, c.MLCPlane, c.Energy, kernels}) != sc.lineKey {
		if !sc.BindLine(ev, m, kernels) {
			return false
		}
	} else {
		sc.fastRebinds++
	}
	sc.oldAux = c.OldAux
	sc.wOld = c.OldWord & sc.wordMask
	sc.wStuckMask = c.StuckMask & sc.wordMask
	sc.wStuckVal = c.StuckVal & sc.wStuckMask
	if sc.mlcPlane {
		sc.wLeft = ev.leftSpread & sc.wordMask
	}
	return true
}

// BindLine performs the word-invariant layer of a bind: geometry
// validation, the 2x2 aux-bit cost table (aux-bit cost depends only on
// mode/energy/objective, never on the word), the lane layout, the energy
// table, and the lane scan's choice between integer and float energy
// pricing (bindKeys). It reports whether the sliced fast path supports
// this configuration, and on success records the fingerprint so
// subsequent same-configuration BindFor calls skip straight to the word.
// A memory controller may call it once per line; BindFor calls it automatically on any
// fingerprint miss, so the explicit call is an optimization, never a
// correctness requirement.
func (sc *SlicedCtx) BindLine(ev *Evaluator, m, kernels int) bool {
	if ev.planeMask == 0 {
		ev.Reset(ev.Ctx, ev.Obj)
	}
	c := &ev.Ctx
	sc.lineOK = false
	if m <= 0 || c.N%m != 0 || c.N/m > maxSlices {
		return false
	}
	if c.MLCPlane {
		// A right-digit plane has at most 32 symbols; a wider N is a
		// malformed context whose (degenerate) semantics belong to the
		// reference path. So is a plane in SLC mode, where the
		// reference counts SLC bits that the scans' plane layout does
		// not price (memctrl never builds one).
		if c.N > 32 || c.Mode != pcm.MLC {
			return false
		}
	} else if c.Mode == pcm.MLC && m%2 != 0 {
		return false
	}
	sc.m, sc.p = m, c.N/m
	sc.obj, sc.mode, sc.mlcPlane = ev.Obj, c.Mode, c.MLCPlane
	sc.energy = c.Energy
	for old := 0; old < 2; old++ {
		for val := 0; val < 2; val++ {
			sc.auxTab[old][val] = auxBitCost(sc.mode, sc.energy, sc.obj,
				uint64(old), uint64(val))
		}
	}
	sc.partW = uint(m)
	if sc.mlcPlane {
		sc.partW = uint(2 * m)
	}
	sc.partMask = bitutil.Mask(int(sc.partW))
	sc.bindLanes()
	cHi, cLo := sc.energy.MLCHighPJ, sc.energy.MLCLowPJ
	if sc.mode != pcm.MLC {
		cHi, cLo = sc.energy.SLCSetPJ, sc.energy.SLCResetPJ
	}
	if (sc.obj == ObjEnergySAW || sc.obj == ObjSAWEnergy) &&
		(!sc.etabOK || cHi != sc.cHi || cLo != sc.cLo) {
		// Layout matches the float arm's count extraction: high-drive
		// count in the low 6 bits, low-drive above.
		for lo := 0; lo < 64; lo++ {
			for hi := 0; hi < 64; hi++ {
				sc.etab[lo<<6|hi] = float64(hi)*cHi + float64(lo)*cLo
			}
		}
		sc.cHi, sc.cLo, sc.etabOK = cHi, cLo, true
	}
	const posInf = 0x7FF0000000000000 // IEEE bits of +Inf
	sc.nonneg = math.Float64bits(sc.cHi) < posInf && math.Float64bits(sc.cLo) < posInf
	sc.bindKeys(cHi, cLo, log2(kernels))
	sc.lineKey = bindKey{c.N, m, ev.Obj, c.Mode, c.MLCPlane, c.Energy, kernels}
	sc.lineOK = true
	return true
}

// part returns partition j's sub-block of w, one of the bound context
// words.
func (sc *SlicedCtx) part(w uint64, j int) uint64 {
	return w >> (uint(j) * sc.partW & 63) & sc.partMask
}

// Partitions returns the partition count of the bound context.
func (sc *SlicedCtx) Partitions() int { return sc.p }

// AuxBit prices writing auxiliary bit bitIdx with value val — the
// table-lookup equivalent of Evaluator.AuxBit on the bound context.
func (sc *SlicedCtx) AuxBit(bitIdx int, val uint64) Pair {
	return sc.auxTab[sc.oldAux>>uint(bitIdx)&1][val&1]
}

// PartCost prices the unshifted m-bit value v as the contents of
// partition j: it equals Evaluator.Part(v<<(j*m), j, m) bit-for-bit. v
// must carry no bits above m. It prices partition j's sub-blocks of the
// bound words with the reference's mask/popcount pipeline.
func (sc *SlicedCtx) PartCost(j int, v uint64) Pair {
	if sc.obj == ObjOnes {
		return Pair{float64(bits.OnesCount64(v)), 0}
	}
	desired := v
	if sc.mlcPlane {
		desired = sc.part(sc.wLeft, j) | bitutil.SpreadEven(v)
	}
	old, sm, sv := sc.part(sc.wOld, j), sc.part(sc.wStuckMask, j), sc.part(sc.wStuckVal, j)
	stored := desired&^sm | sv
	switch sc.obj {
	case ObjFlips:
		if sc.mode == pcm.MLC {
			return Pair{float64(bitutil.SymbolCount(old, stored)), 0}
		}
		return Pair{float64(bits.OnesCount64(old ^ stored)), 0}
	case ObjEnergySAW:
		return Pair{sc.partEnergy(old, stored), float64(sc.partSAW(desired^sv, sm))}
	case ObjSAWEnergy:
		return Pair{float64(sc.partSAW(desired^sv, sm)), sc.partEnergy(old, stored)}
	default:
		panic("coset: unknown objective")
	}
}

func (sc *SlicedCtx) partEnergy(old, stored uint64) float64 {
	if sc.mode == pcm.MLC {
		return sc.energy.MLCWordEnergyAll(old, stored)
	}
	return sc.energy.SLCWordEnergy(old, stored)
}

// partSAW counts the stuck cells under sm whose desired value differs
// from the stuck one in diff.
func (sc *SlicedCtx) partSAW(diff, sm uint64) int {
	if sc.mode == pcm.MLC {
		return bitutil.SymbolCount(diff&sm, 0)
	}
	return bits.OnesCount64(diff & sm)
}

// auxBitCost mirrors Evaluator.AuxBit for one (old bit, new bit) pair.
func auxBitCost(mode pcm.CellMode, en pcm.EnergyModel, obj Objective, old, val uint64) Pair {
	switch obj {
	case ObjOnes:
		return Pair{float64(val), 0}
	case ObjFlips:
		if old != val {
			return Pair{1, 0}
		}
		return Pair{}
	case ObjEnergySAW, ObjSAWEnergy:
		var e float64
		if old != val {
			if mode == pcm.MLC {
				if val == 1 {
					e = en.MLCHighPJ
				} else {
					e = en.MLCLowPJ
				}
			} else {
				if val == 1 {
					e = en.SLCSetPJ
				} else {
					e = en.SLCResetPJ
				}
			}
		}
		if obj == ObjEnergySAW {
			return Pair{e, 0}
		}
		return Pair{0, e}
	default:
		panic("coset: unknown objective")
	}
}
