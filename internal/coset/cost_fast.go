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

// maxNibGroups bounds the total nibble-group count across all partitions
// of a bound context. p*ceil(m/4) <= p*m <= 64 for every supported
// geometry, with equality only at m=1 (p=64, one group each).
const maxNibGroups = 64

// nibTableMinPrices is the amortization threshold of BindFor: nibble
// tables are built only under ObjEnergySAW, and only when the codec
// expects at least this many PartCost prices (two per kernel) per
// partition per 16-entry group. Every other objective, and energy+SAW
// below the threshold, is priced by the table-free lane scan
// (lanes.go), which measures faster there: the tables pay for
// themselves only when the lazy scan's prune after the first partition
// skips most kernels' remaining work, which takes a large kernel set.
// For VCC (2r prices) at m=16 the line falls at r = 32: VCC-Gen(16,256)
// (r=64) keeps its tables, the engine's stored r=16 ROM does not, and
// FNW (one kernel, 2 prices) never builds them.
const nibTableMinPrices = 16

// SlicedCtx is a write context bound for pricing partition by partition.
// A memory controller owns one and rebinds it per word (Bind allocates
// nothing), reusing its tables across the eight words of a line and
// across lines; codecs also embed one as a fallback so the plain
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

	// DisableTables forces every PartCost onto the direct per-symbol
	// pricing path: BindFor never builds nibble tables, so VCC encodes
	// take the lane scan. ForceTables builds them on every successful
	// energy+SAW bind regardless of the amortization threshold, so VCC
	// encodes take the table scan. Both exist so the equivalence suite can
	// cross-check both scans and both pricing paths on the same contexts;
	// production callers leave them false and let BindFor's threshold
	// decide.
	DisableTables bool
	ForceTables   bool

	// The write context: the old word, the stuck mask, the stuck values
	// under it and, on the MLC plane, the spread-odd left digits, all
	// restricted to the plane's bits in word coordinates (wordMask). The
	// lane scan reads them whole; direct pricing and the nibble tables
	// read partition j's sub-block (part), the partW bits from j*partW:
	// m bits, or on the MLC plane the 2m bits of the partition's
	// symbols. partMask is Mask(partW).
	wOld, wStuckMask, wStuckVal, wLeft uint64
	partW                              uint
	partMask                           uint64

	// auxTab[old][val] is the cost of writing an auxiliary bit with
	// value val over stored value old — the whole Evaluator.AuxBit
	// switch collapsed to one table lookup, valid for every bit index
	// because aux-bit cost depends only on the (old, new) bit pair.
	auxTab [2][2]Pair

	// Nibble count tables. When tabOK is set, entry
	// nibTab[(j*groups+g)*16 + v] holds the exact integer contribution
	// of partition j's nibble group g (4 symbols for MLC-plane, 4 bits
	// otherwise) when the candidate's bits [4g, 4g+4) equal v. The low
	// 32 bits pack that contribution as high | low<<8 | sawHits<<16
	// (MLC high/low programs, or SLC SET/RESET counts); the high 32
	// bits pack the same counts for the group's m-bit-complement index
	// (v XOR the group's in-partition mask, baked in at build). One
	// fused walk therefore accumulates both orientations of a candidate
	// pair — exactly how VCC consumes candidates. Field sums across a
	// partition's <=16 groups stay below 256, so neither half of a
	// packed uint64 accumulator ever carries between fields. The array
	// is owned by the SlicedCtx and overwritten in place on every rebind
	// — table storage never allocates.
	tabOK       bool
	groups      int
	lastNibMask uint64
	nibTab      [maxNibGroups * 16]uint64

	// Lane-scan geometry, fixed by BindLine (see lanes.go). lane is the
	// width L of one partition in word coordinates (m, or 2m on the MLC
	// plane), or 0 when the lane scan cannot price the geometry; cells
	// is the number of cells in it. pop counts bits per lane, sel
	// compares and selects lanes, and foldFrom starts laneTotal at the
	// lane width. A cell's change flag is (x | x>>cellShift) & cellMask:
	// every bit on SLC, a symbol's right-digit bit with its left digit
	// folded in on MLC. flipMask is the set of bits a complemented
	// candidate flips (the plane's bits, or their right digits on the MLC
	// plane) and wordMask the plane's bits in word coordinates.
	lane      uint
	cells     int
	pop       lanePop
	sel       laneSel
	foldFrom  int
	cellMask  uint64
	cellShift uint
	flipMask  uint64
	wordMask  uint64

	// Integer energy keys, chosen by bindKeys: when intKeys is set the
	// lane scan prices the energy objectives with laneScanKeys, the
	// coefficients as the integers qHi and qLo shifted left by keyE (the
	// energy field of a key) and the SAW count shifted left by keyS.
	intKeys    bool
	qHi, qLo   uint64
	keyE, keyS uint

	// Line-scoped bind state. lineKey fingerprints every input of the
	// word-invariant bind layer (geometry validation, the 2x2 aux-bit
	// cost table, group and lane layout, the energy table, the
	// table-amortization decision); when a rebind arrives with an
	// identical fingerprint — the 8 words of a cache line, or every word
	// of a steady single-codec workload — BindFor skips that whole layer
	// and only re-slices the new word. fastRebinds counts the skips
	// (observable by tests; one increment per word is noise next to the
	// work it replaces).
	lineOK      bool
	lineKey     bindKey
	wantTab     bool
	fastRebinds uint64

	// etab memoizes the energy multiply-accumulate over count pairs:
	// etab[lo<<6|hi] = float64(hi)*cHi + float64(lo)*cLo, the exact
	// pairFromCounts expression, so both encode scans convert counts to
	// energy with one load instead of two int-to-float conversions and
	// two multiplies. Fields are 6 bits, so the table serves any
	// partition of at most 63 cells (etabFits). cHi/cLo are the
	// coefficients it holds, the bound mode's (MLC high/low, or SLC
	// SET/RESET) under either energy objective: BindLine rebuilds it
	// only when they change (in steady state the check is two float
	// compares per line bind). nonneg reports that both are +0 or
	// positive and finite, so every candidate energy is too and orders
	// like its IEEE bit pattern, which the scans' branch-free selects
	// rely on.
	etabOK   bool
	etabFits bool
	nonneg   bool
	cHi, cLo float64
	etab     [64 * 64]float64
}

// Bind binds ev's write context for kernel width m and reports whether
// the sliced fast path supports this configuration. It returns false —
// and the caller must fall back to the reference search — when a
// partition boundary would split an MLC symbol (full-word MLC with odd
// m), since such a partition cannot be priced from an independent slice.
// Bind alone never builds nibble tables (unless ForceTables is set);
// codecs that know their query volume use BindFor.
func (sc *SlicedCtx) Bind(ev *Evaluator, m int) bool {
	return sc.BindFor(ev, m, 0)
}

// bindKey fingerprints the word-invariant inputs of a bind: the plane
// geometry, objective, cell mode, energy model, the table-mode toggles
// and the codec's kernel count. Everything else a bind consumes (the old
// word, stuck cells, left digits, old aux) is per-word.
type bindKey struct {
	n, m           int
	obj            Objective
	mode           pcm.CellMode
	mlcPlane       bool
	energy         pcm.EnergyModel
	force, disable bool
	kernels        int
}

// BindFor is Bind for a codec that searches the given number of
// kernels, each pricing both orientations of every partition: 2*kernels
// PartCost queries per partition before the next rebind, and a kernel
// index of log2(kernels) aux bits. Under energy+SAW, when those queries
// clear the per-group construction threshold (or ForceTables is set),
// BindFor additionally builds the per-partition nibble count tables so
// each query collapses into ceil(m/4) table lookups; otherwise queries
// run the direct per-symbol path and construction costs nothing.
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
	if !sc.lineOK || (bindKey{c.N, m, ev.Obj, c.Mode, c.MLCPlane, c.Energy,
		sc.ForceTables, sc.DisableTables, kernels}) != sc.lineKey {
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
	sc.tabOK = false
	if sc.wantTab {
		sc.buildNibbleTables()
	}
	return true
}

// BindLine performs the word-invariant layer of a bind: geometry
// validation, the 2x2 aux-bit cost table (aux-bit cost depends only on
// mode/energy/objective, never on the word), nibble-group and lane
// layout, the energy table, the table-amortization decision, and the
// lane scan's choice between integer and float energy pricing
// (bindKeys). It reports whether the sliced fast path supports this
// configuration, and on success records the fingerprint so subsequent
// same-configuration BindFor calls skip straight to the word. A memory controller may
// call it once per line; BindFor calls it automatically on any
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
	sc.groups = bitutil.NibbleGroups(m)
	sc.lastNibMask = bitutil.Mask(m - 4*(sc.groups-1))
	sc.wantTab = sc.obj == ObjEnergySAW && !sc.DisableTables &&
		(sc.ForceTables || 2*kernels >= nibTableMinPrices*sc.groups)
	sc.bindLanes()
	cHi, cLo := sc.energy.MLCHighPJ, sc.energy.MLCLowPJ
	if sc.mode != pcm.MLC {
		cHi, cLo = sc.energy.SLCSetPJ, sc.energy.SLCResetPJ
	}
	if (sc.obj == ObjEnergySAW || sc.obj == ObjSAWEnergy) &&
		(!sc.etabOK || cHi != sc.cHi || cLo != sc.cLo) {
		// Layout matches the count extraction of both scans: high-drive
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
	sc.lineKey = bindKey{c.N, m, ev.Obj, c.Mode, c.MLCPlane, c.Energy,
		sc.ForceTables, sc.DisableTables, kernels}
	sc.lineOK = true
	return true
}

// part returns partition j's sub-block of w, one of the bound context
// words.
func (sc *SlicedCtx) part(w uint64, j int) uint64 {
	return w >> (uint(j) * sc.partW & 63) & sc.partMask
}

// buildNibbleTables fills nibTab for the bound context. Each entry is
// computed with the same primitives the direct path prices with
// (pcm.MLCWordCounts / pcm.SLCWordCounts, bitutil.SymbolCount) applied
// to the group's sub-byte of the partition's sub-blocks, so the counts
// are exact integers by construction, not an approximation of the
// direct path.
func (sc *SlicedCtx) buildNibbleTables() {
	var cnt [16]uint32
	t := 0
	for j := 0; j < sc.p; j++ {
		old, sm, sv := sc.part(sc.wOld, j), sc.part(sc.wStuckMask, j), sc.part(sc.wStuckVal, j)
		left := sc.part(sc.wLeft, j)
		for g := 0; g < sc.groups; g++ {
			// Each entry is packed with its complement-orientation
			// partner. All groups complement against 0xF except a final
			// partial group, whose in-partition bits are lastNibMask.
			gmask := uint64(0xF)
			if g == sc.groups-1 {
				gmask = sc.lastNibMask
			}
			if gmask == 0xF && !sc.mlcPlane {
				sh := uint(4 * g)
				oldN := (old >> sh) & 0xF
				smN := (sm >> sh) & 0xF
				svN := (sv >> sh) & 0xF
				stuck := svN & smN
				out := sc.nibTab[t : t+16]
				if sc.mode == pcm.MLC {
					// Full-word MLC group: two whole symbols. Counts
					// decompose per symbol, so evaluate each symbol slot's
					// four candidate values once (change/high/low from the
					// stuck-overlaid stored symbol, SAW from the stuck
					// mismatch — the same per-symbol cases
					// pcm.MLCWordCounts sums), pack each with its
					// complement partner (symbol value XOR 3, composing to
					// the nibble's XOR 0xF), and assemble the 16 entries as
					// a 4x4 outer sum: 8 symbol evaluations and 16 packed
					// adds replace 16 word-count passes.
					var q0, q1 [4]uint64
					for slot := 0; slot < 2; slot++ {
						b2 := uint(2 * slot)
						oldS := (oldN >> b2) & 3
						smS := (smN >> b2) & 3
						svS := (svN >> b2) & 3
						stS := svS & smS
						var e [4]uint64
						for v := uint64(0); v < 4; v++ {
							stored := (v &^ smS) | stS
							diff := stored ^ oldS
							ne := (diff | diff>>1) & 1
							hi := ne & stored & 1
							lo := ne ^ hi
							wr := (v ^ svS) & smS
							saw := (wr | wr>>1) & 1
							e[v] = hi | lo<<8 | saw<<16
						}
						if slot == 0 {
							for v := uint64(0); v < 4; v++ {
								q0[v] = e[v] | e[v^3]<<32
							}
						} else {
							for v := uint64(0); v < 4; v++ {
								q1[v] = e[v] | e[v^3]<<32
							}
						}
					}
					for v1 := uint64(0); v1 < 4; v1++ {
						b := q1[v1]
						out[v1<<2] = b + q0[0]
						out[v1<<2|1] = b + q0[1]
						out[v1<<2|2] = b + q0[2]
						out[v1<<2|3] = b + q0[3]
					}
				} else {
					// Full SLC group: four independent cells. Derive every
					// slot's SET/RESET/SAW bit for candidate 0 and 1 with
					// nibble-wide mask algebra (the per-bit cases
					// pcm.SLCWordCounts counts), then assemble all 16
					// packed entries in place by doubling, exactly as the
					// MLC-plane path below does: 14 packed adds replace 16
					// count evaluations.
					st0 := stuck
					st1 := (0xF &^ smN) | stuck
					x0 := st0 ^ oldN
					x1 := st1 ^ oldN
					set0 := x0 & st0
					set1 := x1 & st1
					rst0 := x0 &^ st0
					rst1 := x1 &^ st1
					w0 := svN & smN
					w1 := (svN ^ 0xF) & smN
					n := 1
					for slot := 0; slot < 4; slot++ {
						b := uint(slot)
						e0 := set0>>b&1 | (rst0>>b&1)<<8 | (w0>>b&1)<<16
						e1 := set1>>b&1 | (rst1>>b&1)<<8 | (w1>>b&1)<<16
						q0 := e0 | e1<<32
						q1 := e1 | e0<<32
						if slot == 0 {
							out[0], out[1] = q0, q1
						} else {
							for v := 0; v < n; v++ {
								out[v|n] = out[v] + q1
								out[v] += q0
							}
						}
						n <<= 1
					}
				}
				t += 16
				continue
			}
			if sc.mlcPlane && gmask == 0xF {
				// Full plane group: symbols [4g, 4g+4) of the partition,
				// byte [8g, 8g+8) of the 2m-bit slice, spread-odd left
				// digits fixed per group. Counts decompose per symbol
				// (MLCWordCounts is a per-symbol sum), so derive each
				// symbol slot's contribution for candidate right digit
				// 0/1 with byte-wide mask algebra, pair it with its
				// complement (right digit flipped), and assemble all 16
				// packed entries in place by doubling: 14 packed adds
				// replace 16 byte-wide count evaluations plus the
				// complement-partner gather.
				sh := uint(8 * g)
				oldB := (old >> sh) & 0xFF
				smB := (sm >> sh) & 0xFF
				svB := (sv >> sh) & 0xFF
				stuck := svB & smB
				// Desired bytes for all-right-digits-0 / all-1; their
				// per-symbol changed/high/low/SAW masks on even bits.
				d0 := (left >> sh) & 0xFF
				d1 := d0 | 0x55
				st0 := (d0 &^ smB) | stuck
				st1 := (d1 &^ smB) | stuck
				x0 := st0 ^ oldB
				x1 := st1 ^ oldB
				ch0 := (x0 | x0>>1) & 0x55
				ch1 := (x1 | x1>>1) & 0x55
				hi0 := ch0 & st0
				hi1 := ch1 & st1
				lo0 := ch0 &^ st0
				lo1 := ch1 &^ st1
				w0 := (d0 ^ svB) & smB
				w1 := (d1 ^ svB) & smB
				sw0 := (w0 | w0>>1) & 0x55
				sw1 := (w1 | w1>>1) & 0x55
				out := sc.nibTab[t : t+16]
				n := 1
				for slot := 0; slot < 4; slot++ {
					b2 := uint(2 * slot)
					e0 := hi0>>b2&1 | (lo0>>b2&1)<<8 | (sw0>>b2&1)<<16
					e1 := hi1>>b2&1 | (lo1>>b2&1)<<8 | (sw1>>b2&1)<<16
					q0 := e0 | e1<<32
					q1 := e1 | e0<<32
					if slot == 0 {
						out[0], out[1] = q0, q1
					} else {
						for v := 0; v < n; v++ {
							out[v|n] = out[v] + q1
							out[v] += q0
						}
					}
					n <<= 1
				}
				t += 16
				continue
			}
			switch {
			case sc.mlcPlane:
				// Partial final plane group (m not a multiple of 4):
				// rare tail, priced entrywise exactly as PartCost's
				// desired-word construction does.
				sh := uint(8 * g)
				oldB := (old >> sh) & 0xFF
				smB := (sm >> sh) & 0xFF
				svB := (sv >> sh) & 0xFF
				leftB := (left >> sh) & 0xFF
				for nib := uint64(0); nib < 16; nib++ {
					desired := leftB | bitutil.SpreadEvenNibble(nib)
					stored := (desired &^ smB) | (svB & smB)
					hi, lo := pcm.MLCWordCounts(oldB, stored)
					saw := bitutil.SymbolCount((desired^svB)&smB, 0)
					cnt[nib] = uint32(hi) | uint32(lo)<<8 | uint32(saw)<<16
				}
			case sc.mode == pcm.MLC:
				// Full-word MLC (even m): group g covers two whole
				// symbols, bits [4g, 4g+4) of the slice. Nibble
				// boundaries are 4-bit aligned and symbols 2-bit
				// aligned, so no symbol is ever split across groups.
				sh := uint(4 * g)
				oldN := (old >> sh) & 0xF
				smN := (sm >> sh) & 0xF
				svN := (sv >> sh) & 0xF
				for nib := uint64(0); nib < 16; nib++ {
					stored := (nib &^ smN) | (svN & smN)
					hi, lo := pcm.MLCWordCounts(oldN, stored)
					saw := bitutil.SymbolCount((nib^svN)&smN, 0)
					cnt[nib] = uint32(hi) | uint32(lo)<<8 | uint32(saw)<<16
				}
			default:
				// SLC: group g covers four independent cells. high/low
				// slots carry SET/RESET counts.
				sh := uint(4 * g)
				oldN := (old >> sh) & 0xF
				smN := (sm >> sh) & 0xF
				svN := (sv >> sh) & 0xF
				for nib := uint64(0); nib < 16; nib++ {
					stored := (nib &^ smN) | (svN & smN)
					sets, resets := pcm.SLCWordCounts(oldN, stored)
					saw := bits.OnesCount64((nib ^ svN) & smN)
					cnt[nib] = uint32(sets) | uint32(resets)<<8 | uint32(saw)<<16
				}
			}
			for nib := uint64(0); nib < 16; nib++ {
				sc.nibTab[t] = uint64(cnt[nib]) | uint64(cnt[nib^gmask])<<32
				t++
			}
		}
	}
	sc.tabOK = true
}

// pairFromCounts folds a packed count accumulator into an energy+SAW
// Pair (tables are built for no other objective). The energy
// multiply-accumulate mirrors the canonical pcm.*EnergyFromCounts
// expression term for term (cHi/cLo are the bound mode's coefficients)
// — identical counts therefore yield float64 results bit-identical to
// the direct path's.
func (sc *SlicedCtx) pairFromCounts(acc uint32) Pair {
	hi := int(acc & 0xFF)
	lo := int(acc >> 8 & 0xFF)
	return Pair{float64(hi)*sc.cHi + float64(lo)*sc.cLo, float64(acc >> 16)}
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
// must carry no bits above m. With nibble tables bound it is ceil(m/4)
// lookups into exact integer counts; otherwise it prices the slice
// directly.
func (sc *SlicedCtx) PartCost(j int, v uint64) Pair {
	if sc.obj == ObjOnes {
		return Pair{float64(bits.OnesCount64(v)), 0}
	}
	if sc.tabOK {
		row := sc.nibTab[j*sc.groups*16:]
		var acc uint64
		for g := 0; g < sc.groups; g++ {
			acc += row[v&0xF]
			row = row[16:]
			v >>= 4
		}
		return sc.pairFromCounts(uint32(acc))
	}
	return sc.partCostDirect(j, v)
}

// PartCostPair prices v and its m-bit complement v^Mask(m) for partition
// j in one pass: with tables bound, a single fused walk accumulates both
// orientations' packed counts (each entry carries its complement
// partner in the high half), which is exactly how VCC consumes
// candidate pairs. Results are bit-identical to two PartCost calls.
func (sc *SlicedCtx) PartCostPair(j int, v uint64) (Pair, Pair) {
	if sc.tabOK {
		row := sc.nibTab[j*sc.groups*16:]
		var acc uint64
		for g := 0; g < sc.groups; g++ {
			acc += row[v&0xF]
			row = row[16:]
			v >>= 4
		}
		return sc.pairFromCounts(uint32(acc)), sc.pairFromCounts(uint32(acc >> 32))
	}
	return sc.PartCost(j, v), sc.PartCost(j, v^bitutil.Mask(sc.m))
}

// partCostDirect is the table-free pricing path: the per-partition
// mask/popcount pipeline the tables were derived from, on partition j's
// sub-blocks of the bound words.
func (sc *SlicedCtx) partCostDirect(j int, v uint64) Pair {
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

// pruneThreshold is the table scan's energy cut: a kernel whose partial
// energy plus a lower bound on its remaining cost exceeds
// pruneThreshold(incumbent) provably cannot displace the incumbent, so
// the scan abandons it without changing the selected coset.
//
// Soundness has to account for the reference search's own float
// behavior, not just exact arithmetic. Energy sums are inexact — two
// candidates with equal exact cost can differ by ULPs depending on
// which terms were summed — and the reference breaks such ties by
// exactly that noise (FuzzEncodeEquivalence found the case: two kernels
// at exact cost 555.9 summed to 555.9 and 555.9000000000001, and the
// reference's strict < picked the former). A bound cannot predict a
// completion's noise, so the cut lies beyond a relative slack of 1e-9 —
// four orders above the worst-case summation noise of these <=70-term
// sums (~1e-13 relative), and far below any real cost quantum — and
// near-ties fall through to full evaluation in the reference's own
// summation order. For nonnegative costs,
//
//	lb > incumbent + 1e-9*(lb + incumbent + 1)
//	  <=>  lb*(1 - 1e-9) > incumbent*(1 + 1e-9) + 1e-9
//	  <=>  lb > (incumbent*(1+1e-9) + 1e-9) / (1 - 1e-9)
//
// so the scan refreshes the threshold once per incumbent change and the
// per-kernel check is one float compare. The float rounding of the
// threshold itself shifts the cut by a few ULPs (~1e-16 relative) —
// negligible against the four orders of magnitude separating the slack
// from summation noise, so pruning stays sound. The SAW secondary never
// prunes: it only matters on an exact energy tie, which the reference
// resolves at ULP granularity. A negative incumbent falls outside the
// nonnegativity assumption: disable pruning entirely rather than risk
// over-pruning.
func pruneThreshold(incumbent float64) float64 {
	if incumbent < 0 {
		return math.Inf(1)
	}
	return (incumbent*(1+1e-9) + 1e-9) / (1 - 1e-9)
}
