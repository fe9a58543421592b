package coset

// The lane scan: Algorithm 1 with every partition of a kernel priced in
// one 64-bit word.
//
// A kernel's p partitions are priced independently of one another, and
// together they cover the plane exactly once. So the candidate for all
// of them is one word, V0 = d ^ k*repMul (on the MLC right-digit plane,
// the left digits merged with SpreadEven of that), and partition j's
// cells are the bits of lane j, [j*L, (j+1)*L) with L = m (or 2m in word
// coordinates on the plane). The complemented orientation needs no
// second derivation, because a complement flips exactly the plane bits F
// and a stuck cell never changes:
//
//	st1 = st0 ^ (F &^ SM)    x1 = x0 ^ (F &^ SM)    w1 = w0 ^ (F & SM)
//
// where st is the stored word, x = st ^ old the changed bits and w the
// stuck-at-wrong bits. Per-cell masks (changed, high-drive, low-drive,
// stuck-at-wrong) then come from a few ANDs, and a population count
// stopped at L-bit lanes (the SWAR reduction of Warren, Hacker's Delight
// §5-1, with the byte sums folded per lane by one multiply) yields every
// partition's integer counts at once. MLC cell masks hold only even
// bits, so their counts start at the 2-bit fields (lanePop.fields).
//
// Stuck-free words. A word with no known stuck cell (SM = 0) has no SAW
// in either orientation, and st = V, so the energy arms derive its
// counts from fewer popcounts (laneWord picks the derivation per word).
// Where a complement flips exactly one drive bit per cell — SLC, and the
// right digits on the MLC plane — let s = V & F, o = old & F and e the
// cells whose left digit changes, (old ^ left)>>1 & F on the plane and 0
// on SLC; a cell changes in orientation 0 when it is in e or s and o
// differ, and in orientation 1 when it is in e or they agree. With
// M1 = F &^ o | e and M2 = o | e,
//
//	hi0 = pop(s & M1)    lo1 = pop(s & M2)
//	lo0 = pop(M2) - lo1  hi1 = pop(M1) - hi0
//
// since a high-drive cell of orientation 0 (s set) changes exactly when
// it is in M1, and a low-drive one (s clear) exactly when it is in M2;
// orientation 1 swaps s for F &^ s. M1 and M2 lie within F, so s & M is
// V & M. Two popcounts per kernel thus price the word, against six with
// stuck cells. Full-word MLC complements both digits of a cell, which
// has no such pair; its stuck-free words take four counts (high and low
// drive per orientation).
//
// Bit-identity with EncodeRef: the counts are the exact integers the
// reference's Part derives per partition, whichever derivation yields
// them, and three arms, one fixed per bind, turn them into the
// reference's decisions.
//
//   - Integer objectives (flips, ones) are small exact integers in
//     float64, so they are summed and compared as integers, all lanes at
//     once (laneScanCounts).
//   - Energy objectives with integral coefficients (laneScanKeys): when
//     both coefficients are whole picojoules, every value the reference
//     computes — products, partition costs, kernel sums — is an integer
//     below 2^53, so no float operation rounds and no sum depends on its
//     order. Each lane then holds one integer key, energy-major
//     E<<sb | S under energy+SAW or SAW-major S<<eb | E under SAW+energy,
//     whose minor field is wide enough for the whole kernel's sum, so a
//     strict Pair.Less between two candidates is a strict integer compare
//     of their keys. BindLine takes this arm only when the keys fit
//     (bindKeys).
//   - Other energy models (laneScanEnergy): energies come from etab,
//     which holds the reference's float64(hi)*cHi + float64(lo)*cLo
//     expression for every count pair, and each partition adds its flag
//     bit's aux cost to it, as the reference's Part(...).Add(AuxBit(...))
//     does. The kernel total sums the chosen partitions in partition
//     order and then the index bits in bit order: the same float
//     operations, in the same order, on the same values.
//
// So every key and every etab index is the integer the six-count
// derivation gives. Every arm keeps the reference's tie-breaks: a partition takes the complemented kernel
// only when it is strictly cheaper, and the incumbent moves only on a
// strict improvement, in kernel order.

import (
	"math"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/pcm"
)

// lanePop counts set bits per lane: the SWAR reduction to byte counts,
// then one multiply that sums each lane's bytes into its top byte, which
// the shift moves to the lane's low byte. Lane counts never exceed 64,
// so no byte ever carries into the next.
type lanePop struct {
	mul, low uint64
	shift    uint
}

func (g lanePop) count(x uint64) uint64 {
	return g.fields(x - x>>1&evenBits)
}

// fields is count from its second step on: it sums x's 2-bit fields as
// integers. An MLC cell mask has only even bits set, so each of its
// fields already holds its own bit count and fields counts its cells.
func (g lanePop) fields(x uint64) uint64 {
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	return x * g.mul >> (g.shift & 63) & g.low
}

// evenBits holds the right-digit (drive) bit of every MLC cell. A cell's
// change flag is (x | x>>1) & evenBits: its right-digit bit of the
// changed bits x with the left digit's folded in.
const evenBits = 0x5555555555555555

// laneKind is how the energy arms derive a word's lane counts. BindLine
// fixes one kind for words with a known stuck cell and one for words
// without (stuckKind, freeKind); the arms pick between them per word.
type laneKind uint8

const (
	kindStuck       laneKind = iota // six counts from bits (SLC)
	kindStuckFields                 // six counts from 2-bit fields (MLC)
	kindPair                        // two counts from bits (stuck-free SLC)
	kindPairFields                  // two from 2-bit fields (stuck-free MLC plane)
	kindFour                        // four from 2-bit fields (stuck-free full-word MLC)
)

// laneWord returns how the energy arms derive the bound word's counts
// and, for the pair kinds, the masks M1 = F &^ o | e and M2 = o | e with
// their lane counts (see the file comment). Only a word with no known
// stuck cell anywhere on the plane is stuck-free: on the MLC plane a
// stuck left digit still changes its cell's stored value and SAW.
func (sc *SlicedCtx) laneWord() (kind laneKind, m1, m2, n1, n2 uint64) {
	if sc.wStuckMask != 0 {
		return sc.stuckKind, 0, 0, 0, 0
	}
	if sc.freeKind == kindFour {
		return kindFour, 0, 0, 0, 0
	}
	f := sc.flipMask
	o := sc.wOld & f
	var e uint64
	if sc.mlcPlane {
		e = (sc.wOld ^ sc.wLeft) >> 1 & f
	}
	m1, m2 = f&^o|e, o|e
	return sc.freeKind, m1, m2, sc.pop.count(m1), sc.pop.count(m2)
}

// laneSel picks, in every lane at once, the cheaper of two packed costs.
// one has bit 0 of each of the p lanes set, fill is one lane of ones,
// mid holds 2^(L-1) - 1 in every lane and top is L - 1.
type laneSel struct {
	one, mid, fill uint64
	top            uint
}

// less returns bit 0 of every lane set where c1 < c0. Both must hold
// values below 2^(L-1) per lane: then (c0 + mid) - c1 stays within
// [0, 2^L - 2] in every lane, so no lane borrows from or carries into
// its neighbour, and the lane's top bit is set exactly when c0 - c1 >= 1.
func (s laneSel) less(c0, c1 uint64) uint64 {
	return (c0 + s.mid - c1) >> (s.top & 63) & s.one
}

// pick returns c0 with the lanes that lt marks taken from c1.
func (s laneSel) pick(c0, c1, lt uint64) uint64 {
	return c0 ^ (c0^c1)&(lt*s.fill)
}

// flags gathers lt's lane bits into flag bit j of each partition j.
func (s laneSel) flags(lt uint64, p int) uint64 {
	var f uint64
	for j := 0; j < p; j++ {
		f |= lt >> (uint(j) * (s.top + 1) & 63) & 1 << uint(j)
	}
	return f
}

// evenLanes[k] keeps the even lanes of a word cut into lanes of 8<<k
// bits.
var evenLanes = [3]uint64{0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF}

// laneTotal adds up the lanes of x, of 8<<k bits each, into one integer.
// Each step adds neighbouring lanes into lanes twice as wide, so no sum
// ever carries into the next lane however large the lanes are.
func laneTotal(x uint64, k int) uint64 {
	for ; k < len(evenLanes); k++ {
		m := evenLanes[k]
		x = x&m + x>>(8<<uint(k)&63)&m
	}
	return x
}

// bindLanes fixes the lane geometry of the bound context. The lane scan
// takes lanes of 8, 16, 32 or 64 bits holding fewer than 64 cells (so
// the etab index fits): full-word m of 8, 16 and 32 (and 64 on MLC),
// and the MLC plane at m of 4, 8, 16 and 32. Other geometries leave
// lane at 0. It also fixes the energy arms' count derivations for words
// with and without stuck cells, from the cell mode and the plane.
func (sc *SlicedCtx) bindLanes() {
	L := sc.m
	sc.flipMask = bitutil.Mask(sc.p * sc.m)
	sc.wordMask = sc.flipMask
	if sc.mlcPlane {
		L = 2 * sc.m
		sc.flipMask = bitutil.SpreadEven(sc.flipMask)
		sc.wordMask = bitutil.Mask(2 * sc.p * sc.m)
	}
	sc.cells = L
	sc.stuckKind, sc.freeKind = kindStuck, kindPair
	if sc.mode == pcm.MLC {
		sc.cells = L / 2
		sc.stuckKind, sc.freeKind = kindStuckFields, kindPairFields
		if !sc.mlcPlane {
			sc.freeKind = kindFour
		}
	}
	sc.lane = 0
	if sc.cells >= 64 || L < 8 || L&(L-1) != 0 {
		return
	}
	sc.lane = uint(L)
	var one uint64
	sc.pop.low = 0
	for j := 0; j < sc.p; j++ {
		one |= 1 << uint(j*L)
	}
	for sh := 0; sh < 64; sh += L {
		sc.pop.low |= 0xFF << uint(sh)
	}
	sc.pop.mul = 0x0101010101010101 >> uint(64-L)
	sc.pop.shift = uint(L - 8)
	sc.sel = laneSel{one: one, mid: one * (1<<uint(L-1) - 1), fill: 1<<uint(L) - 1, top: uint(L - 1)}
	sc.foldFrom = bits.TrailingZeros(uint(L)) - 3
}

// bindKeys decides whether laneScanKeys prices the bound energy
// objective, and fixes its key layout; idxBits is the width of the kernel
// index. It takes the integer arm when both coefficients are whole
// picojoules (wholePJ) and the keys fit:
//
//   - a lane holds at most cells changed cells plus its flag bit, so its
//     energy is at most laneE = (cells+1)*max(qHi, qLo), and a kernel's,
//     index bits included, at most totalE = p*laneE + idxBits*max(qHi, qLo);
//   - totalE stays below 2^53, so the reference's float sums are exact;
//   - the key's minor field holds the whole kernel's sum of that field:
//     sb = Len(p*cells) bits for SAW under energy+SAW (key E<<sb | S), and
//     eb = Len(totalE) bits for energy under SAW+energy (key S<<eb | E);
//   - the largest key, laneE<<sb | cells or cells<<eb | laneE, stays
//     below 2^(L-1), which laneSel.less needs.
//
// On full-word MLC with 16-bit lanes (8 cells, p = 4, 16 kernels) and
// Table I's 40 and 4 pJ, the keys peak at 360<<6 | 8 = 23,048 and
// 8<<11 | 360 = 16,744, both below 2^15. Otherwise the float arm runs.
func (sc *SlicedCtx) bindKeys(cHi, cLo float64, idxBits int) {
	sc.intKeys = false
	if sc.lane == 0 || (sc.obj != ObjEnergySAW && sc.obj != ObjSAWEnergy) {
		return
	}
	qHi, okHi := wholePJ(cHi)
	qLo, okLo := wholePJ(cLo)
	if !okHi || !okLo {
		return
	}
	cells, p := uint64(sc.cells), uint64(sc.p)
	qMax := max(qHi, qLo)
	laneE := (cells + 1) * qMax
	totalE := p*laneE + uint64(idxBits)*qMax
	if totalE >= 1<<53 {
		return
	}
	major, minorBits := laneE, uint(bits.Len64(p*cells))
	sc.keyE, sc.keyS = minorBits, 0
	if sc.obj == ObjSAWEnergy {
		major, minorBits = cells, uint(bits.Len64(totalE))
		sc.keyE, sc.keyS = 0, minorBits
	}
	if minorBits >= sc.lane-1 || major >= 1<<(sc.lane-1-minorBits) {
		return
	}
	sc.qHi, sc.qLo = qHi<<sc.keyE, qLo<<sc.keyE
	sc.intKeys = true
}

// wholePJ returns c as an integer when it is one: not negative (nor
// -0), not NaN or infinite, and below 2^53.
func wholePJ(c float64) (uint64, bool) {
	if math.Signbit(c) || c != math.Trunc(c) || c >= 1<<53 {
		return 0, false
	}
	return uint64(c), true
}

// laneImages returns every kernel of the word's set tiled across the p
// partitions in the bound context's word coordinates. A stored ROM's
// images are computed once, at construction. A generated set's kernel
// i*b+j is tile_i ^ base_j (Algorithm 2), and tiling and SpreadEven are
// linear, so its image is genTiled[i] (fixed per codec) XOR the image of
// base j, of which the word has only b. Any other set is tiled kernel by
// kernel into the codec's scratch.
func (c *VCC) laneImages(left uint64, plane bool) []uint64 {
	switch {
	case c.storedTiled != nil:
		if plane {
			return c.storedSpread
		}
		return c.storedTiled
	case c.gen != nil:
		tiles, b := c.genTiled, c.gen.b
		if plane {
			tiles = c.genSpread
		}
		mk := bitutil.Mask(c.m)
		img := c.laneImg
		for j := 0; j < b; j++ {
			base := (left >> (uint(j*c.m) & 63) & mk) * c.repMul
			if plane {
				base = bitutil.SpreadEven(base)
			}
			for i, t := range tiles {
				img[i*b+j] = t ^ base
			}
		}
		return img
	}
	kernels := c.src.Kernels(left)
	img := c.laneImg[:len(kernels)]
	for i, k := range kernels {
		if plane {
			img[i] = bitutil.SpreadEven(k * c.repMul)
		} else {
			img[i] = k * c.repMul
		}
	}
	return img
}

// encodeLanes is the lane scan over the kernels of one word; sc must be
// bound with a nonzero lane. Lanes of at least 8 bits leave at most 8
// partitions, so the codec's tiling plan (repMul, flagTab and the image
// arrays) exists. The winner's tiled kernel is its image, gathered back
// off the right digits on the MLC plane.
func (c *VCC) encodeLanes(d, left uint64, sc *SlicedCtx) (uint64, uint64) {
	imgs := c.laneImages(left, sc.mlcPlane)
	base := d
	if sc.mlcPlane {
		base = sc.wLeft | bitutil.SpreadEven(d)
	}
	var best int
	var flags uint64
	switch {
	case sc.obj == ObjFlips || sc.obj == ObjOnes:
		best, flags = c.laneScanCounts(base, imgs, sc)
	case sc.intKeys:
		best, flags = c.laneScanKeys(base, imgs, sc)
	default:
		best, flags = c.laneScanEnergy(base, imgs, sc)
	}
	tiled := imgs[best]
	if sc.mlcPlane {
		tiled = bitutil.CompressEven(tiled)
	}
	return d ^ tiled ^ c.flagTab[flags], uint64(best)<<uint(c.p) | flags
}

// laneScanCounts prices the integer objectives: changed cells (flips) or
// plane ones. Costs per lane stay below 128 and a whole kernel's below
// 256, so the orientation select and the partition sum run on all lanes
// at once, and one multiply sums the chosen lanes into a byte (the
// energy keys do not fit a byte and sum with laneTotal instead).
func (c *VCC) laneScanCounts(base uint64, imgs []uint64, sc *SlicedCtx) (int, uint64) {
	L, g, s := sc.lane, sc.pop, sc.sel
	old, sm, sv, f := sc.wOld, sc.wStuckMask, sc.wStuckVal, sc.flipMask
	fns := f &^ sm
	// Flag-bit aux costs per lane; the index bits cost one per bit that
	// differs from idxOld.
	var a0, a1 uint64
	for j := 0; j < c.p; j++ {
		o := sc.oldAux >> uint(j) & 1
		a0 |= uint64(sc.auxTab[o][0].Primary) << (uint(j) * L)
		a1 |= uint64(sc.auxTab[o][1].Primary) << (uint(j) * L)
	}
	ones := sc.obj == ObjOnes
	idxOld := sc.oldAux >> uint(c.p)
	if ones {
		a1 += s.one * uint64(c.m) // the complement has m - ones0 ones
		idxOld = 0
	}
	idxMask := bitutil.Mask(c.AuxBits() - c.p)
	top := uint(c.p-1) * L & 63
	mlc := sc.mode == pcm.MLC
	bestI, bestCost, bestLT := 0, 0, uint64(0)
	for i, img := range imgs {
		v := base ^ img
		var c0, c1 uint64
		switch {
		case ones:
			n0 := g.count(v & f)
			c0, c1 = n0+a0, a1-n0
		case mlc:
			x0 := (v&^sm | sv) ^ old
			x1 := x0 ^ fns
			c0 = g.fields((x0|x0>>1)&evenBits) + a0
			c1 = g.fields((x1|x1>>1)&evenBits) + a1
		default:
			x0 := (v&^sm | sv) ^ old
			c0 = g.count(x0) + a0
			c1 = g.count(x0^fns) + a1
		}
		lt := s.less(c0, c1)
		low := s.pick(c0, c1, lt)
		cost := int(low*s.one>>top&0xFF) + bits.OnesCount64((uint64(i)^idxOld)&idxMask)
		if i == 0 || cost < bestCost {
			bestI, bestCost, bestLT = i, cost, lt
		}
	}
	return bestI, s.flags(bestLT, c.p)
}

// laneScanKeys prices the energy objectives on integer keys (bindKeys
// chose this arm and fixed the layout): per lane
// hi*qHi + lo*qLo + flag aux in the energy field and the SAW count in the
// other, with qHi and qLo pre-shifted into the energy field. One
// laneSel.less picks every partition's orientation, laneTotal sums the
// chosen keys into the kernel's key, and two population counts price the
// index bits, each set bit written over a 0 at qHi and each cleared bit
// written over a 1 at qLo, as Evaluator.AuxBit does. On a stuck-free
// word with a drive-bit pair, a lane's two keys add up to the same kk in
// every kernel (hi0 + hi1 = pop(M1), lo0 + lo1 = pop(M2)), so k1 is
// kk - k0.
func (c *VCC) laneScanKeys(base uint64, imgs []uint64, sc *SlicedCtx) (int, uint64) {
	L, g, s, k := sc.lane, sc.pop, sc.sel, sc.foldFrom
	old, sm, sv, f := sc.wOld, sc.wStuckMask, sc.wStuckVal, sc.flipMask
	fns, fs := f&^sm, f&sm
	qh, ql, ss := sc.qHi, sc.qLo, sc.keyS&63
	// Flag-bit aux energies per lane: writing 0 over an old 1 costs qLo,
	// writing 1 over an old 0 costs qHi.
	var ol uint64
	for j := 0; j < c.p; j++ {
		ol |= sc.oldAux >> uint(j) & 1 << (uint(j) * L & 63)
	}
	a0, a1 := ol*ql, (s.one^ol)*qh
	kind, m1, m2, n1, n2 := sc.laneWord()
	kk := n1*qh + n2*ql + a0 + a1
	idxOld := sc.oldAux >> uint(c.p)
	idxMask := bitutil.Mask(c.AuxBits() - c.p)
	bestI, bestCost, bestLT := 0, uint64(0), uint64(0)
	for i, img := range imgs {
		v := base ^ img
		var k0, k1 uint64
		switch kind {
		case kindPair:
			k0 = g.count(v&m1)*qh + (n2-g.count(v&m2))*ql + a0
			k1 = kk - k0
		case kindPairFields:
			k0 = g.fields(v&m1)*qh + (n2-g.fields(v&m2))*ql + a0
			k1 = kk - k0
		case kindFour:
			x0 := v ^ old
			x1 := x0 ^ f
			ch0, ch1 := (x0|x0>>1)&evenBits, (x1|x1>>1)&evenBits
			k0 = g.fields(ch0&v)*qh + g.fields(ch0&^v)*ql + a0
			k1 = g.fields(ch1&^v)*qh + g.fields(ch1&v)*ql + a1
		case kindStuck:
			st0 := v&^sm | sv
			x0 := st0 ^ old
			st1, x1 := st0^fns, x0^fns
			w0 := (v ^ sv) & sm
			k0 = g.count(x0&st0)*qh + g.count(x0&^st0)*ql + g.count(w0)<<ss + a0
			k1 = g.count(x1&st1)*qh + g.count(x1&^st1)*ql + g.count(w0^fs)<<ss + a1
		default: // kindStuckFields
			st0 := v&^sm | sv
			x0 := st0 ^ old
			st1, x1 := st0^fns, x0^fns
			w0 := (v ^ sv) & sm
			w1 := w0 ^ fs
			ch0, ch1 := (x0|x0>>1)&evenBits, (x1|x1>>1)&evenBits
			k0 = g.fields(ch0&st0)*qh + g.fields(ch0&^st0)*ql + g.fields((w0|w0>>1)&evenBits)<<ss + a0
			k1 = g.fields(ch1&st1)*qh + g.fields(ch1&^st1)*ql + g.fields((w1|w1>>1)&evenBits)<<ss + a1
		}
		lt := s.less(k0, k1)
		ui := uint64(i)
		cost := laneTotal(s.pick(k0, k1, lt), k) +
			qh*uint64(bits.OnesCount64(ui&^idxOld&idxMask)) +
			ql*uint64(bits.OnesCount64(idxOld&^ui&idxMask))
		if i == 0 || cost < bestCost {
			bestI, bestCost, bestLT = i, cost, lt
		}
	}
	return bestI, s.flags(bestLT, c.p)
}

// laneScanEnergy prices the two energy objectives on float energies.
// Energies are float sums, so each partition is selected and added in
// partition order. It derives each word's counts as laneScanKeys does;
// on a stuck-free word both SAW counts are 0.
func (c *VCC) laneScanEnergy(base uint64, imgs []uint64, sc *SlicedCtx) (int, uint64) {
	L, g, p := sc.lane, sc.pop, c.p
	old, sm, sv, f := sc.wOld, sc.wStuckMask, sc.wStuckVal, sc.flipMask
	fns, fs := f&^sm, f&sm
	kind, m1, m2, n1, n2 := sc.laneWord()
	sawFirst := sc.obj == ObjSAWEnergy
	// aux[o][v] is the energy of writing aux bit v over old bit o.
	var aux [2][2]float64
	for o := range aux {
		for v := range aux[o] {
			aux[o][v] = sc.auxTab[o][v].Primary
			if sawFirst {
				aux[o][v] = sc.auxTab[o][v].Secondary
			}
		}
	}
	var a0, a1 [8]float64 // per-partition flag-bit aux energies; p <= 8
	for j := 0; j < p; j++ {
		o := sc.oldAux >> uint(j) & 1
		a0[j], a1[j] = aux[o][0], aux[o][1]
	}
	nb := c.AuxBits() - p
	idxOld := sc.oldAux >> uint(p)
	etab := &sc.etab
	nonneg, wide := sc.nonneg, L >= 16
	bestI, bestFlags := 0, uint64(0)
	var best Pair
	for i, img := range imgs {
		v := base ^ img
		var hi0, lo0, saw0, hi1, lo1, saw1 uint64
		switch kind {
		case kindPair:
			hi0, lo1 = g.count(v&m1), g.count(v&m2)
			lo0, hi1 = n2-lo1, n1-hi0
		case kindPairFields:
			hi0, lo1 = g.fields(v&m1), g.fields(v&m2)
			lo0, hi1 = n2-lo1, n1-hi0
		case kindFour:
			x0 := v ^ old
			x1 := x0 ^ f
			ch0, ch1 := (x0|x0>>1)&evenBits, (x1|x1>>1)&evenBits
			hi0, lo0 = g.fields(ch0&v), g.fields(ch0&^v)
			hi1, lo1 = g.fields(ch1&^v), g.fields(ch1&v)
		case kindStuck:
			st0 := v&^sm | sv
			x0 := st0 ^ old
			st1, x1 := st0^fns, x0^fns
			w0 := (v ^ sv) & sm
			hi0, lo0, saw0 = g.count(x0&st0), g.count(x0&^st0), g.count(w0)
			hi1, lo1, saw1 = g.count(x1&st1), g.count(x1&^st1), g.count(w0^fs)
		default: // kindStuckFields
			st0 := v&^sm | sv
			x0 := st0 ^ old
			st1, x1 := st0^fns, x0^fns
			w0 := (v ^ sv) & sm
			w1 := w0 ^ fs
			ch0, ch1 := (x0|x0>>1)&evenBits, (x1|x1>>1)&evenBits
			hi0, lo0, saw0 = g.fields(ch0&st0), g.fields(ch0&^st0), g.fields((w0|w0>>1)&evenBits)
			hi1, lo1, saw1 = g.fields(ch1&st1), g.fields(ch1&^st1), g.fields((w1|w1>>1)&evenBits)
		}
		if wide {
			// Each lane holds its etab index: hi | lo<<6 fits 12 bits.
			hi0 |= lo0 << 6
			hi1 |= lo1 << 6
		}
		var energy float64
		var saw, fl uint64
		for j := 0; j < p; j++ {
			sh := uint(j) * L & 63
			var i0, i1 uint64
			if wide {
				i0, i1 = hi0>>sh, hi1>>sh
			} else {
				i0 = lo0>>sh&0x3F<<6 | hi0>>sh&0x3F
				i1 = lo1>>sh&0x3F<<6 | hi1>>sh&0x3F
			}
			e0 := etab[i0&0xFFF] + a0[j&7]
			e1 := etab[i1&0xFFF] + a1[j&7]
			s0, s1 := saw0>>sh&0xFF, saw1>>sh&0xFF
			var w uint64
			if nonneg {
				// Nonnegative floats order like their IEEE bit patterns,
				// so Pair.Less is integer mask algebra.
				b0, b1 := math.Float64bits(e0), math.Float64bits(e1)
				if sawFirst {
					w = lexLess(s1, s0, b1, b0)
				} else {
					w = lexLess(b1, b0, s1, s0)
				}
				e0 = math.Float64frombits(b0 ^ (b0^b1)&w)
			} else if sawFirst && (Pair{float64(s1), e1}).Less(Pair{float64(s0), e0}) ||
				!sawFirst && (Pair{e1, float64(s1)}).Less(Pair{e0, float64(s0)}) {
				w, e0 = ^uint64(0), e1
			}
			energy += e0
			saw += s0 ^ (s0^s1)&w
			fl |= (w & 1) << uint(j)
		}
		for b := 0; b < nb; b++ {
			energy += aux[idxOld>>uint(b)&1][uint64(i)>>uint(b)&1]
		}
		cost := Pair{energy, float64(saw)}
		if sawFirst {
			cost = Pair{float64(saw), energy}
		}
		if i == 0 || cost.Less(best) {
			bestI, best, bestFlags = i, cost, fl
		}
	}
	return bestI, bestFlags
}

// lexLess returns all ones when (p1, q1) < (p0, q0) lexicographically,
// else 0. Every operand must be below 2^63.
func lexLess(p1, p0, q1, q0 uint64) uint64 {
	ne := p1 ^ p0
	ltP := uint64(int64(p1-p0) >> 63)
	ltQ := uint64(int64(q1-q0) >> 63)
	return ltP | ^uint64(int64(ne|-ne)>>63)&ltQ
}
