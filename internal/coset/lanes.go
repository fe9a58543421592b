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
// partition's integer counts at once.
//
// Bit-identity with EncodeRef: the counts are the exact integers the
// reference's Part derives per partition. Energies come from etab, which
// holds the reference's float64(hi)*cHi + float64(lo)*cLo expression for
// every count pair, and each partition adds its flag bit's aux cost to
// it, as the reference's Part(...).Add(AuxBit(...)) does. The
// orientation select follows Pair.Less, the kernel total sums the chosen
// partitions in partition order and then the index bits in bit order,
// and the incumbent moves only on a strict Less in kernel order: the same
// float operations, in the same order, on the same values. The integer
// objectives (flips, ones) are small exact integers in float64, so they
// are summed and compared as integers, all lanes at once.

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
	x -= x >> 1 & 0x5555555555555555
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	return x * g.mul >> (g.shift & 63) & g.low
}

// bindLanes fixes the lane geometry of the bound context. The lane scan
// takes lanes of 8, 16, 32 or 64 bits holding fewer than 64 cells (so
// the etab index fits): full-word m of 8, 16 and 32 (and 64 on MLC),
// and the MLC plane at m of 4, 8, 16 and 32. Other geometries leave
// lane at 0.
func (sc *SlicedCtx) bindLanes() {
	L := sc.m
	sc.flipMask = bitutil.Mask(sc.p * sc.m)
	sc.wordMask = sc.flipMask
	if sc.mlcPlane {
		L = 2 * sc.m
		sc.flipMask = bitutil.SpreadEven(sc.flipMask)
		sc.wordMask = bitutil.Mask(2 * sc.p * sc.m)
	}
	cells := L
	sc.cellMask, sc.cellShift = ^uint64(0), 0
	if sc.mode == pcm.MLC {
		cells = L / 2
		sc.cellMask, sc.cellShift = 0x5555555555555555, 1
	}
	sc.etabFits = cells < 64
	sc.lane = 0
	if !sc.etabFits || L < 8 || L&(L-1) != 0 {
		return
	}
	sc.lane = uint(L)
	sc.laneOne, sc.pop.low = 0, 0
	for j := 0; j < sc.p; j++ {
		sc.laneOne |= 1 << uint(j*L)
	}
	for sh := 0; sh < 64; sh += L {
		sc.pop.low |= 0xFF << uint(sh)
	}
	sc.pop.mul = 0x0101010101010101 >> uint(64-L)
	sc.pop.shift = uint(L - 8)
}

// laneImages returns every kernel tiled across the p partitions in the
// bound context's word coordinates. A stored ROM's images are computed
// once, at construction; a generated set is tiled per word into the
// codec's scratch.
func (c *VCC) laneImages(kernels []uint64, plane bool) []uint64 {
	if c.storedTiled != nil {
		if plane {
			return c.storedSpread
		}
		return c.storedTiled
	}
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
// partitions, so the codec's tiling plan (flagTab, storedTiled) exists.
func (c *VCC) encodeLanes(d uint64, kernels []uint64, sc *SlicedCtx) (uint64, uint64) {
	imgs := c.laneImages(kernels, sc.mlcPlane)
	base := d
	if sc.mlcPlane {
		base = sc.wLeft | bitutil.SpreadEven(d)
	}
	var best int
	var flags uint64
	if sc.obj == ObjFlips || sc.obj == ObjOnes {
		best, flags = c.laneScanCounts(base, imgs, sc)
	} else {
		best, flags = c.laneScanEnergy(base, imgs, sc)
	}
	return d ^ kernels[best]*c.repMul ^ c.flagTab[flags], uint64(best)<<uint(c.p) | flags
}

// laneScanCounts prices the integer objectives: changed cells (flips) or
// plane ones. Costs per lane stay below 128 and a whole kernel's below
// 256, so the orientation select and the partition sum run on all lanes
// at once: c1 < c0 exactly when lane bit 7 of (c0 + 127) - c1 is set.
func (c *VCC) laneScanCounts(base uint64, imgs []uint64, sc *SlicedCtx) (int, uint64) {
	L, one, g := sc.lane, sc.laneOne, sc.pop
	old, sm, sv, f := sc.wOld, sc.wStuckMask, sc.wStuckVal, sc.flipMask
	fns, cm, cs := f&^sm, sc.cellMask, sc.cellShift&63
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
		a1 += one * uint64(c.m) // the complement has m - ones0 ones
		idxOld = 0
	}
	idxMask := bitutil.Mask(c.AuxBits() - c.p)
	fill := uint64(1)<<L - 1
	k127 := one * 127
	top := uint(c.p-1) * L & 63
	bestI, bestCost, bestLT := 0, 0, uint64(0)
	for i, img := range imgs {
		v := base ^ img
		var c0, c1 uint64
		if ones {
			n0 := g.count(v & f)
			c0, c1 = n0+a0, a1-n0
		} else {
			x0 := (v&^sm | sv) ^ old
			x1 := x0 ^ fns
			c0 = g.count((x0|x0>>cs)&cm) + a0
			c1 = g.count((x1|x1>>cs)&cm) + a1
		}
		lt := (c0 + k127 - c1) >> 7 & one
		low := c0 ^ (c0^c1)&(lt*fill)
		cost := int(low*one>>top&0xFF) + bits.OnesCount64((uint64(i)^idxOld)&idxMask)
		if i == 0 || cost < bestCost {
			bestI, bestCost, bestLT = i, cost, lt
		}
	}
	var flags uint64
	for j := 0; j < c.p; j++ {
		flags |= bestLT >> (uint(j) * L) & 1 << uint(j)
	}
	return bestI, flags
}

// laneScanEnergy prices the two energy objectives. Energies are float
// sums, so each partition is selected and added in partition order.
func (c *VCC) laneScanEnergy(base uint64, imgs []uint64, sc *SlicedCtx) (int, uint64) {
	L, g, p := sc.lane, sc.pop, c.p
	old, sm, sv, f := sc.wOld, sc.wStuckMask, sc.wStuckVal, sc.flipMask
	fns, fs, cm, cs := f&^sm, f&sm, sc.cellMask, sc.cellShift&63
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
		st0 := v&^sm | sv
		x0 := st0 ^ old
		st1 := st0 ^ fns
		x1 := x0 ^ fns
		w0 := (v ^ sv) & sm
		w1 := w0 ^ fs
		ch0 := (x0 | x0>>cs) & cm
		ch1 := (x1 | x1>>cs) & cm
		hi0, lo0 := g.count(ch0&st0), g.count(ch0&^st0)
		hi1, lo1 := g.count(ch1&st1), g.count(ch1&^st1)
		saw0, saw1 := g.count((w0|w0>>cs)&cm), g.count((w1|w1>>cs)&cm)
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
