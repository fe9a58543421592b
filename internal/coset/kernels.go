package coset

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/prng"
)

// KernelSource supplies the r m-bit coset kernels VCC composes virtual
// cosets from. Implementations must be deterministic functions of their
// inputs, because the decoder regenerates the same kernels.
type KernelSource interface {
	// Kernels returns the kernel set given the stored word's left-digit
	// plane (in the low 32 bits). Stored-kernel sources ignore it.
	Kernels(left uint64) []uint64
	// NumKernels returns r.
	NumKernels() int
	// KernelBits returns m.
	KernelBits() int
	// Stored reports whether kernels come from a ROM (true) or are
	// generated from the data (false) — the paper's VCC-Stored vs. VCC
	// distinction in Figs. 6 and 7.
	Stored() bool
}

// KernelAtSource is implemented by kernel sources that can produce a
// single kernel by index without materializing the whole set. The
// decode path consumes exactly one kernel per word (the stored index),
// so a generated source answering KernelAt replaces an r-kernel
// expansion per decoded word with one masked shift.
type KernelAtSource interface {
	// KernelAt returns kernel i of the set Kernels(left) would return.
	KernelAt(left uint64, i int) uint64
}

// StoredKernels is a ROM of r random m-bit kernels (the paper's
// "VCC-Stored" variant: slightly better encoding quality, but the kernel
// set is a secret that could in principle leak).
type StoredKernels struct {
	m       int
	kernels []uint64
}

// NewStoredKernels derives r random m-bit kernels from seed.
func NewStoredKernels(r, m int, seed uint64) *StoredKernels {
	if r < 1 {
		panic("coset: need at least one kernel")
	}
	if m < 1 || m > 64 {
		panic(fmt.Sprintf("coset: kernel width %d out of range", m))
	}
	rng := prng.NewFrom(seed, "vcc-kernel-rom")
	ks := make([]uint64, r)
	for i := range ks {
		ks[i] = rng.Uint64() & bitutil.Mask(m)
	}
	return &StoredKernels{m: m, kernels: ks}
}

// Kernels implements KernelSource.
func (s *StoredKernels) Kernels(left uint64) []uint64 { return s.kernels }

// KernelAt implements KernelAtSource.
func (s *StoredKernels) KernelAt(left uint64, i int) uint64 { return s.kernels[i] }

// NumKernels implements KernelSource.
func (s *StoredKernels) NumKernels() int { return len(s.kernels) }

// KernelBits implements KernelSource.
func (s *StoredKernels) KernelBits() int { return s.m }

// Stored implements KernelSource.
func (s *StoredKernels) Stored() bool { return true }

// GeneratedKernels implements the paper's Algorithm 2: kernels are
// derived at run time from the l = 32 left digits of the encrypted data
// block, so nothing secret is stored and the kernel set varies per word.
// The left digits are split into b = l/m base vectors; each of the r/b
// masks (of width 1 + log2(r/b); the extra bit keeps complementary
// patterns out of the set) is tiled across a base vector and XORed in,
// yielding r kernels.
//
// Because encoding leaves the left digits untouched (Section IV-B), the
// decoder regenerates the identical kernel set from the stored word.
type GeneratedKernels struct {
	l, m, b, r int
	maskWidth  int
	// tiled holds the r/b tiled masks, which depend only on the
	// generator geometry — precomputed so the per-word Kernels call is
	// pure XORs of base vectors against them.
	tiled []uint64
	// scratch avoids a per-word allocation; Kernels returns this slice,
	// valid until the next call.
	scratch []uint64
}

// NewGeneratedKernels builds an Algorithm 2 generator producing r kernels
// of m bits from an l-bit left-digit plane (l is 32 for 64-bit MLC
// words). Requires m | l and (r / (l/m)) a power of two >= 1.
func NewGeneratedKernels(l, m, r int) *GeneratedKernels {
	if l <= 0 || m <= 0 || l%m != 0 {
		panic(fmt.Sprintf("coset: kernel width m=%d must divide l=%d", m, l))
	}
	b := l / m
	if r < b || r%b != 0 {
		panic(fmt.Sprintf("coset: r=%d must be a multiple of b=%d", r, b))
	}
	perBase := r / b
	if perBase&(perBase-1) != 0 {
		panic(fmt.Sprintf("coset: r/b=%d must be a power of two", perBase))
	}
	g := &GeneratedKernels{
		l: l, m: m, b: b, r: r,
		maskWidth: 1 + log2(perBase),
		tiled:     make([]uint64, perBase),
		scratch:   make([]uint64, r),
	}
	for i := range g.tiled {
		g.tiled[i] = bitutil.TileMask(uint64(i), g.maskWidth, g.m)
	}
	return g
}

// Kernels implements KernelSource. Kernel index k maps to base vector
// k%b and mask k/b, matching Algorithm 2's R_{i*b+j} = M_i XOR base_j.
func (g *GeneratedKernels) Kernels(left uint64) []uint64 {
	mk := bitutil.Mask(g.m)
	for i, tiled := range g.tiled {
		rest := left
		for j := 0; j < g.b; j++ {
			g.scratch[i*g.b+j] = (rest & mk) ^ tiled
			rest >>= uint(g.m)
		}
	}
	return g.scratch
}

// KernelAt implements KernelAtSource without touching the scratch set.
func (g *GeneratedKernels) KernelAt(left uint64, i int) uint64 {
	return (left >> (uint(i%g.b) * uint(g.m)) & bitutil.Mask(g.m)) ^ g.tiled[i/g.b]
}

// NumKernels implements KernelSource.
func (g *GeneratedKernels) NumKernels() int { return g.r }

// KernelBits implements KernelSource.
func (g *GeneratedKernels) KernelBits() int { return g.m }

// Stored implements KernelSource.
func (g *GeneratedKernels) Stored() bool { return false }

// HybridKernels wraps another source and prepends the all-zeros kernel.
// With the zero kernel, each partition's choice degenerates to
// {identity, inversion} — i.e. Flip-N-Write — so the hybrid set serves
// both biased (unencrypted) and random (encrypted) data, the extension
// sketched in the paper's Section VII.
type HybridKernels struct {
	inner   KernelSource
	scratch []uint64
}

// WithHybridKernels adds the biased (zero) kernel to src.
func WithHybridKernels(src KernelSource) *HybridKernels {
	return &HybridKernels{inner: src,
		scratch: make([]uint64, src.NumKernels()+1)}
}

// Kernels implements KernelSource.
func (h *HybridKernels) Kernels(left uint64) []uint64 {
	h.scratch[0] = 0
	copy(h.scratch[1:], h.inner.Kernels(left))
	return h.scratch
}

// KernelAt implements KernelAtSource: index 0 is the zero kernel, the
// rest shift down onto the wrapped source.
func (h *HybridKernels) KernelAt(left uint64, i int) uint64 {
	if i == 0 {
		return 0
	}
	if ka, ok := h.inner.(KernelAtSource); ok {
		return ka.KernelAt(left, i-1)
	}
	return h.inner.Kernels(left)[i-1]
}

// NumKernels implements KernelSource.
func (h *HybridKernels) NumKernels() int { return h.inner.NumKernels() + 1 }

// KernelBits implements KernelSource.
func (h *HybridKernels) KernelBits() int { return h.inner.KernelBits() }

// Stored implements KernelSource.
func (h *HybridKernels) Stored() bool { return h.inner.Stored() }
