package coset

import (
	"fmt"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/prng"
)

// FNW implements Flip-N-Write / data block inversion (Cho & Lee, MICRO
// 2009; Section II-C of the paper): the plane is split into k-bit
// sub-blocks and each is written directly or inverted, whichever is
// cheaper, with one auxiliary bit per sub-block. Viewed as coset coding
// this is BCC with the biased candidates {0...0, 1...1} per sub-block.
// The paper evaluates it at 16-bit granularity under the label "DBI/FNW".
type FNW struct {
	n, k int
	// sc backs the plain Encode entry point with the sliced fast path;
	// controllers pass their own context via EncodeSliced.
	sc SlicedCtx
	// flagTab maps the aux bits to the full-plane inversion mask they
	// select (built when the sub-block count fits the same table budget
	// as VCC's decode plan), making DecodeWords one XOR per word.
	flagTab []uint64
}

// NewFNW returns a Flip-N-Write codec over n-bit planes with k-bit
// sub-blocks. k must divide n.
func NewFNW(n, k int) *FNW {
	if n%k != 0 {
		panic(fmt.Sprintf("coset: FNW k=%d must divide n=%d", k, n))
	}
	c := &FNW{n: n, k: k}
	if p := n / k; p <= vccFlagTabMaxP {
		kMask := bitutil.Mask(k)
		c.flagTab = make([]uint64, 1<<uint(p))
		for f := 1; f < len(c.flagTab); f++ {
			low := uint(bits.TrailingZeros(uint(f)))
			c.flagTab[f] = c.flagTab[f&(f-1)] | kMask<<(low*uint(k))
		}
	}
	return c
}

// Name implements Codec.
func (c *FNW) Name() string { return "DBI/FNW" }

// PlaneBits implements Codec.
func (c *FNW) PlaneBits() int { return c.n }

// AuxBits implements Codec.
func (c *FNW) AuxBits() int { return c.n / c.k }

// Encode implements Codec. Selection is per sub-block, as in the
// hardware: for decomposable costs this is globally optimal. Like VCC,
// Encode runs the sliced fast path against codec-owned scratch;
// EncodeRef retains the direct Evaluator search the equivalence suite
// checks against.
func (c *FNW) Encode(data uint64, ev *Evaluator) (uint64, uint64) {
	return c.EncodeSliced(data, ev, &c.sc)
}

// EncodeRef is the reference per-sub-block search.
func (c *FNW) EncodeRef(data uint64, ev *Evaluator) (uint64, uint64) {
	p := c.n / c.k
	var enc, aux uint64
	for j := 0; j < p; j++ {
		d := bitutil.SubBlock(data, j, c.k)
		plain := d << uint(j*c.k)
		flipped := (d ^ bitutil.Mask(c.k)) << uint(j*c.k)
		costP := ev.Part(plain, j, c.k)
		costF := ev.Part(flipped, j, c.k)
		if costF.Less(costP) {
			enc |= flipped
			aux |= 1 << uint(j)
		} else {
			enc |= plain
		}
	}
	return enc, aux
}

// EncodeSliced implements FastCodec: each sub-block's two candidates are
// priced through the sliced context. FNW charges no aux cost in its
// per-block decision (one flag bit is written either way and the
// historical selection rule compares data cost alone), so the decision
// rule is exactly EncodeRef's, on bit-identical Pairs.
func (c *FNW) EncodeSliced(data uint64, ev *Evaluator, sc *SlicedCtx) (uint64, uint64) {
	// FNW binds as a one-kernel search: each partition prices one
	// candidate pair, and there is no kernel index.
	if ev.Ctx.N != c.n || !sc.BindFor(ev, c.k, 1) {
		return c.EncodeRef(data, ev)
	}
	p := c.n / c.k
	kMask := bitutil.Mask(c.k)
	var enc, aux uint64
	for j := 0; j < p; j++ {
		d := bitutil.SubBlock(data, j, c.k)
		costP, costF := sc.PartCost(j, d), sc.PartCost(j, d^kMask)
		if costF.Less(costP) {
			enc |= (d ^ kMask) << uint(j*c.k)
			aux |= 1 << uint(j)
		} else {
			enc |= d << uint(j*c.k)
		}
	}
	return enc, aux
}

// Decode implements Codec.
func (c *FNW) Decode(enc, aux, left uint64) uint64 {
	p := c.n / c.k
	out := enc & bitutil.Mask(c.n)
	for j := 0; j < p; j++ {
		if aux>>uint(j)&1 == 1 {
			out ^= bitutil.Mask(c.k) << uint(j*c.k)
		}
	}
	return out
}

// DecodeWords implements LineDecoder: Decode's per-sub-block flip loop
// is a pure function of the aux bits, so it collapses into one table
// lookup and XOR per word. Aux bits above the sub-block count are
// ignored, exactly as Decode's loop ignores them.
func (c *FNW) DecodeWords(enc, aux, left, out []uint64) {
	if c.flagTab == nil {
		for i := range aux {
			out[i] = c.Decode(enc[i], aux[i], left[i])
		}
		return
	}
	nMask := bitutil.Mask(c.n)
	pMask := uint64(len(c.flagTab) - 1)
	for i, a := range aux {
		out[i] = (enc[i] & nMask) ^ c.flagTab[a&pMask]
	}
}

// Flipcy (Imran et al., ICCAD 2019) writes the data, its one's
// complement, or its two's complement, choosing the cheapest; 2 auxiliary
// bits record the choice. Designed for biased data, it degrades to
// near-unencoded behaviour on encrypted workloads — which is exactly the
// paper's point in Figs. 11/12.
type Flipcy struct {
	n int
}

// NewFlipcy returns a Flipcy codec over n-bit planes.
func NewFlipcy(n int) *Flipcy { return &Flipcy{n: n} }

// Name implements Codec.
func (c *Flipcy) Name() string { return "Flipcy" }

// PlaneBits implements Codec.
func (c *Flipcy) PlaneBits() int { return c.n }

// AuxBits implements Codec.
func (c *Flipcy) AuxBits() int { return 2 }

// Encode implements Codec.
func (c *Flipcy) Encode(data uint64, ev *Evaluator) (uint64, uint64) {
	m := bitutil.Mask(c.n)
	d := data & m
	return bestOf(3, 2, func(i int) uint64 {
		switch i {
		case 0:
			return d
		case 1:
			return ^d & m // one's complement
		default:
			return (^d + 1) & m // two's complement
		}
	}, ev)
}

// Decode implements Codec.
func (c *Flipcy) Decode(enc, aux, left uint64) uint64 {
	m := bitutil.Mask(c.n)
	e := enc & m
	switch aux {
	case 0:
		return e
	case 1:
		return ^e & m
	case 2:
		return ^((e - 1) & m) & m
	default:
		panic(fmt.Sprintf("coset: Flipcy aux %d out of range", aux))
	}
}

// RCC is random coset coding (Jacobvitz et al., HPCA 2013): N
// independent uniformly random n-bit coset candidates held in a ROM; the
// encoder XORs the data with each and keeps the cheapest. It is the
// quality ceiling VCC approximates at a fraction of the hardware cost.
type RCC struct {
	n      int
	cosets []uint64
}

// NewRCC builds an RCC codec with N random cosets over n-bit planes,
// deterministically derived from seed (the ROM contents).
func NewRCC(n, N int, seed uint64) *RCC {
	if N < 1 || N&(N-1) != 0 {
		panic(fmt.Sprintf("coset: RCC N=%d must be a positive power of two", N))
	}
	rng := prng.NewFrom(seed, "rcc-rom")
	cosets := make([]uint64, N)
	for i := range cosets {
		cosets[i] = rng.Uint64() & bitutil.Mask(n)
	}
	// Convention from the literature: keep the identity coset at index 0
	// so RCC never does worse than unencoded on a lucky block.
	cosets[0] = 0
	return &RCC{n: n, cosets: cosets}
}

// Name implements Codec.
func (c *RCC) Name() string { return fmt.Sprintf("RCC(%d,%d)", c.n, len(c.cosets)) }

// PlaneBits implements Codec.
func (c *RCC) PlaneBits() int { return c.n }

// AuxBits implements Codec.
func (c *RCC) AuxBits() int { return log2(len(c.cosets)) }

// NumCosets returns N.
func (c *RCC) NumCosets() int { return len(c.cosets) }

// Coset exposes candidate i (for the hardware model and tests).
func (c *RCC) Coset(i int) uint64 { return c.cosets[i] }

// Encode implements Codec.
func (c *RCC) Encode(data uint64, ev *Evaluator) (uint64, uint64) {
	d := data & bitutil.Mask(c.n)
	return bestOf(len(c.cosets), c.AuxBits(), func(i int) uint64 {
		return d ^ c.cosets[i]
	}, ev)
}

// Decode implements Codec.
func (c *RCC) Decode(enc, aux, left uint64) uint64 {
	return (enc ^ c.cosets[aux]) & bitutil.Mask(c.n)
}
