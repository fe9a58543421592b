package coset

import (
	"fmt"
	"math/bits"

	"repro/internal/bitutil"
)

// VCC is Virtual Coset Coding (Algorithm 1 of the paper). The n-bit data
// plane is split into p = n/m partitions; each of the r kernels (and its
// complement) is priced on every partition independently and in parallel,
// and the per-partition choices are concatenated into the best virtual
// coset that kernel can form. The overall winner among the r kernels is
// emitted together with its index:
//
//	aux = kernelIndex << p | flags
//
// where flag bit j records that partition j used the complemented kernel.
// One kernel thus stands in for 2^p virtual cosets, so VCC(n, N, r)
// evaluates N = r * 2^p candidates at the cost of r kernel passes — the
// 2^(p-1) complexity reduction over RCC quantified in Section IV.
//
// The per-partition minimization is exact for every Objective in this
// package because all of them decompose over cells: the lexicographic
// (primary, secondary) sum over partitions is minimized by choosing the
// lexicographic minimum within each partition.
type VCC struct {
	n, m, p int
	src     KernelSource

	// sc is the codec-owned sliced context backing the plain Encode
	// entry point; callers that batch words (memctrl) pass their own via
	// EncodeSliced. It makes a VCC, like the kernel sources it wraps,
	// single-goroutine state.
	sc SlicedCtx

	// Kernel tiling, fixed at construction. repMul tiles an m-bit kernel
	// across all p partitions with one multiply (ones at bit positions
	// j*m; kernels carry no bits above m, so the partial products never
	// overlap and the sum is exactly the OR of the shifted copies).
	// flagTab maps the p flag bits to the full-plane complement mask they
	// select. storedTiled caches the ROM kernels pre-tiled, and
	// storedSpread the same images spread onto the right digits of an MLC
	// word (planes of at most 32 bits only). For an Algorithm 2 source
	// (gen), genTiled and genSpread hold its masks tiled the same two
	// ways, from which laneImages composes every kernel's image. laneImg
	// is the lane scan's per-word scratch for the images of a non-stored
	// set. kat answers single non-stored kernels without expanding the
	// set. flagTab == nil (p too wide for the table) disables all of it
	// and DecodeWords falls back to Decode; no lane geometry has that many
	// partitions.
	repMul       uint64
	flagTab      []uint64
	storedTiled  []uint64
	storedSpread []uint64
	gen          *GeneratedKernels
	genTiled     []uint64
	genSpread    []uint64
	laneImg      []uint64
	kat          KernelAtSource
}

// vccFlagTabMaxP bounds the decode flag table at 256 entries (2 KiB).
// NewVCC admits p up to 16, but beyond 8 flag bits the table would
// outgrow its cache-residency budget for a rarely-used geometry, so
// those decode through the reference path instead.
const vccFlagTabMaxP = 8

// NewVCC builds a VCC codec over n-bit planes using kernels from src
// (whose width m must divide n).
func NewVCC(n int, src KernelSource) *VCC {
	m := src.KernelBits()
	if n <= 0 || n > 64 || n%m != 0 {
		panic(fmt.Sprintf("coset: VCC kernel width %d must divide plane width %d", m, n))
	}
	p := n / m
	if p > 16 {
		panic("coset: too many partitions")
	}
	c := &VCC{n: n, m: m, p: p, src: src}
	if p <= vccFlagTabMaxP {
		for j := 0; j < p; j++ {
			c.repMul |= 1 << uint(j*m)
		}
		mMask := bitutil.Mask(m)
		c.flagTab = make([]uint64, 1<<uint(p))
		for f := 1; f < len(c.flagTab); f++ {
			low := uint(bits.TrailingZeros(uint(f)))
			c.flagTab[f] = c.flagTab[f&(f-1)] | mMask<<(low*uint(m))
		}
		if src.Stored() {
			c.storedTiled, c.storedSpread = c.tile(src.Kernels(0))
		} else {
			c.laneImg = make([]uint64, src.NumKernels())
			if ka, ok := src.(KernelAtSource); ok {
				c.kat = ka
			}
			if g, ok := src.(*GeneratedKernels); ok {
				c.gen = g
				c.genTiled, c.genSpread = c.tile(g.tiled)
			}
		}
	}
	return c
}

// tile returns the m-bit values ks tiled across the p partitions and,
// on planes of at most 32 bits, the same images spread onto the right
// digits of an MLC word.
func (c *VCC) tile(ks []uint64) (tiled, spread []uint64) {
	tiled = make([]uint64, len(ks))
	for i, k := range ks {
		tiled[i] = k * c.repMul
	}
	if c.n <= 32 {
		spread = make([]uint64, len(ks))
		for i, t := range tiled {
			spread[i] = bitutil.SpreadEven(t)
		}
	}
	return tiled, spread
}

// NewVCCStored is shorthand for the paper's VCC(n, N, r) with a kernel
// ROM: r = N / 2^p kernels of m = n/p bits derived from seed.
func NewVCCStored(n, m, numVirtual int, seed uint64) *VCC {
	p := n / m
	r := numVirtual >> uint(p)
	if r < 1 || r<<uint(p) != numVirtual {
		panic(fmt.Sprintf("coset: N=%d not a multiple of 2^p=%d", numVirtual, 1<<uint(p)))
	}
	return NewVCC(n, NewStoredKernels(r, m, seed))
}

// NewVCCGenerated is shorthand for the MLC right-digit-plane
// configuration with Algorithm 2 kernels: plane width 32, kernels of m
// bits generated from the 32 left digits, N = r * 2^(32/m) virtual
// cosets.
func NewVCCGenerated(m, numVirtual int) *VCC {
	const n = 32
	p := n / m
	r := numVirtual >> uint(p)
	if r < 1 || r<<uint(p) != numVirtual {
		panic(fmt.Sprintf("coset: N=%d not a multiple of 2^p=%d", numVirtual, 1<<uint(p)))
	}
	return NewVCC(n, NewGeneratedKernels(n, m, r))
}

// Name implements Codec.
func (c *VCC) Name() string {
	kind := "Gen"
	if c.src.Stored() {
		kind = "Stored"
	}
	return fmt.Sprintf("VCC-%s(%d,%d,%d)", kind, c.n, c.NumVirtualCosets(), c.src.NumKernels())
}

// PlaneBits implements Codec.
func (c *VCC) PlaneBits() int { return c.n }

// Partitions returns p = n/m.
func (c *VCC) Partitions() int { return c.p }

// KernelBits returns m.
func (c *VCC) KernelBits() int { return c.m }

// NumKernels returns r.
func (c *VCC) NumKernels() int { return c.src.NumKernels() }

// NumVirtualCosets returns N = r * 2^p.
func (c *VCC) NumVirtualCosets() int { return c.src.NumKernels() << uint(c.p) }

// Source returns the kernel source.
func (c *VCC) Source() KernelSource { return c.src }

// AuxBits implements Codec: log2(r) kernel-select bits plus p flag bits,
// which equals log2(N) — the same auxiliary budget as RCC(n, N).
func (c *VCC) AuxBits() int { return log2(c.src.NumKernels()) + c.p }

// Encode implements Codec (Algorithm 1). Each partition decision folds in
// the write cost of its own flag bit (auxiliary cost decomposes per bit),
// and each kernel's total folds in its index bits, so the result is
// exactly the optimum over all N virtual cosets including auxiliary
// overhead — the quantity Algorithm 1 line 19 minimizes.
//
// Encode runs the partition-sliced fast path (EncodeSliced) against the
// codec-owned sliced context; EncodeRef retains the direct search. The
// two are bit-identical — enforced by TestFastEncodeMatchesReference and
// FuzzEncodeEquivalence.
func (c *VCC) Encode(data uint64, ev *Evaluator) (uint64, uint64) {
	return c.EncodeSliced(data, ev, &c.sc)
}

// EncodeRef is the reference Algorithm 1 search: every kernel prices
// both complements of every partition through the plain Evaluator. It is
// the correctness oracle the fast path is fuzzed against, and the
// fallback for contexts the sliced path cannot represent.
func (c *VCC) EncodeRef(data uint64, ev *Evaluator) (uint64, uint64) {
	d := data & bitutil.Mask(c.n)
	kernels := c.src.Kernels(ev.Ctx.NewLeft)
	mMask := bitutil.Mask(c.m)

	var bestEnc, bestAux uint64
	var bestCost Pair
	for i, k := range kernels {
		var enc, flags uint64
		var cost Pair
		for j := 0; j < c.p; j++ {
			dj := bitutil.SubBlock(d, j, c.m)
			y0 := (dj ^ k) << uint(j*c.m)
			y1 := (dj ^ (k ^ mMask)) << uint(j*c.m)
			c0 := ev.Part(y0, j, c.m).Add(ev.AuxBit(j, 0))
			c1 := ev.Part(y1, j, c.m).Add(ev.AuxBit(j, 1))
			if c1.Less(c0) {
				enc |= y1
				flags |= 1 << uint(j)
				cost = cost.Add(c1)
			} else {
				enc |= y0
				cost = cost.Add(c0)
			}
		}
		// Kernel-index bits occupy aux positions p and up.
		for b := c.p; b < c.AuxBits(); b++ {
			cost = cost.Add(ev.AuxBit(b, uint64(i)>>uint(b-c.p)&1))
		}
		aux := uint64(i)<<uint(c.p) | flags
		if i == 0 || cost.Less(bestCost) {
			bestEnc, bestAux, bestCost = enc, aux, cost
		}
	}
	return bestEnc, bestAux
}

// EncodeSliced implements FastCodec: Algorithm 1 priced through the
// sliced write context sc (rebound here; the caller only provides the
// reusable storage). When the bind found a lane geometry it runs the lane
// scan (encodeLanes), which prices all p partitions of a kernel in both
// orientations in one 64-bit word, for every objective: under the energy
// objectives on integer keys when BindLine found both coefficients whole
// and the keys fit the lanes (bindKeys), on float energies otherwise.
// Every other context runs EncodeRef. The scan is bit-identical to
// EncodeRef (TestFastEncodeMatchesReference and FuzzEncodeEquivalence
// hold it to it).
func (c *VCC) EncodeSliced(data uint64, ev *Evaluator, sc *SlicedCtx) (uint64, uint64) {
	// A context whose plane width disagrees with the codec's would slice
	// into partitions the search does not iterate; the reference path
	// defines the (degenerate) semantics of that misuse, so defer to it.
	// The bind is told the kernel count r, whose index takes log2(r) aux
	// bits.
	if ev.Ctx.N != c.n || !sc.BindFor(ev, c.m, c.src.NumKernels()) || sc.lane == 0 {
		return c.EncodeRef(data, ev)
	}
	return c.encodeLanes(data&bitutil.Mask(c.n), ev.Ctx.NewLeft, sc)
}

// Decode implements Codec: the inverse is a single XOR/XNOR per
// partition, selected by the stored flags (Section IV-A: "the process of
// decoding is simpler ... and incurs negligible latency overhead").
func (c *VCC) Decode(enc, aux, left uint64) uint64 {
	kernels := c.src.Kernels(left)
	i := aux >> uint(c.p)
	flags := aux & bitutil.Mask(c.p)
	if int(i) >= len(kernels) {
		panic(fmt.Sprintf("coset: VCC kernel index %d out of range", i))
	}
	k := kernels[i]
	mMask := bitutil.Mask(c.m)
	var out uint64
	for j := 0; j < c.p; j++ {
		yj := bitutil.SubBlock(enc, j, c.m)
		kj := k
		if flags>>uint(j)&1 == 1 {
			kj ^= mMask
		}
		out |= (yj ^ kj) << uint(j*c.m)
	}
	return out
}

// DecodeWords implements LineDecoder. Per word the whole partition loop
// of Decode collapses into three XORs against precomputed state:
//
//	out = (enc & Mask(n)) ^ tile(kernel) ^ flagTab[flags]
//
// Bit-identity with Decode is structural, not approximate: Decode
// assembles Sum_j (SubBlock(enc,j,m) ^ k_j) << j*m where k_j is the
// kernel or its m-bit complement per flag bit j. The sub-block
// reassembly of enc is enc & Mask(n); the kernel terms are the kernel
// tiled across all partitions (repMul); and the per-flag complements
// are Mask(m) at each flagged partition — exactly flagTab's entry. XOR
// is bitwise, so regrouping the terms cannot change any bit. Stored
// ROMs read their kernel pre-tiled from storedTiled; generated sources
// produce the single indexed kernel via KernelAt instead of expanding
// all r kernels per word as Decode must.
func (c *VCC) DecodeWords(enc, aux, left, out []uint64) {
	r := c.src.NumKernels()
	nMask := bitutil.Mask(c.n)
	pMask := bitutil.Mask(c.p)
	sh := uint(c.p)
	switch {
	case c.storedTiled != nil:
		for i, a := range aux {
			ki := a >> sh
			if ki >= uint64(r) {
				panic(fmt.Sprintf("coset: VCC kernel index %d out of range", ki))
			}
			out[i] = (enc[i] & nMask) ^ c.storedTiled[ki] ^ c.flagTab[a&pMask]
		}
	case c.kat != nil:
		for i, a := range aux {
			ki := a >> sh
			if ki >= uint64(r) {
				panic(fmt.Sprintf("coset: VCC kernel index %d out of range", ki))
			}
			k := c.kat.KernelAt(left[i], int(ki))
			out[i] = (enc[i] & nMask) ^ k*c.repMul ^ c.flagTab[a&pMask]
		}
	default:
		for i := range aux {
			out[i] = c.Decode(enc[i], aux[i], left[i])
		}
	}
}

// VirtualCoset materializes virtual coset candidate with the given aux
// index for a word whose left plane is left: the full n-bit XOR vector
// the encoder implicitly applied. Exposed for tests and for the analytic
// comparisons against RCC.
func (c *VCC) VirtualCoset(aux, left uint64) uint64 {
	kernels := c.src.Kernels(left)
	i := aux >> uint(c.p)
	flags := aux & bitutil.Mask(c.p)
	k := kernels[i]
	mMask := bitutil.Mask(c.m)
	var v uint64
	for j := 0; j < c.p; j++ {
		kj := k
		if flags>>uint(j)&1 == 1 {
			kj ^= mMask
		}
		v |= kj << uint(j*c.m)
	}
	return v
}
