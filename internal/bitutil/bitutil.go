// Package bitutil provides the bit-level primitives used throughout the
// VCC reproduction: sub-block (partition) extraction and insertion within
// 64-bit data blocks, MLC digit-plane interleaving, popcount helpers and
// mask construction.
//
// # Conventions
//
// A "block" is up to 64 bits stored in the low bits of a uint64. Partition
// j of width m covers bits [j*m, (j+1)*m), counting from the least
// significant bit. An MLC word packs 32 two-bit Gray-coded symbols: symbol
// k occupies bits (2k+1, 2k) where bit 2k+1 is the "left" (most
// significant) digit and bit 2k is the "right" (least significant) digit.
// The paper's Table I shows write energy depends on the right digit of the
// new symbol, which is why the planes are split and re-merged so often.
package bitutil

import "math/bits"

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// SubBlock extracts the m-bit partition j (counted from the LSB) of x.
func SubBlock(x uint64, j, m int) uint64 {
	return (x >> uint(j*m)) & Mask(m)
}

// SetSubBlock returns x with partition j (width m) replaced by v. Bits of
// v above m are ignored.
func SetSubBlock(x uint64, j, m int, v uint64) uint64 {
	sh := uint(j * m)
	return (x &^ (Mask(m) << sh)) | ((v & Mask(m)) << sh)
}

// Repeat tiles the low m bits of kernel across p partitions, producing a
// p*m-bit value. This is the paper's construction of an n-bit virtual
// coset candidate from an m-bit kernel (Section IV).
func Repeat(kernel uint64, m, p int) uint64 {
	k := kernel & Mask(m)
	var out uint64
	for j := 0; j < p; j++ {
		out |= k << uint(j*m)
	}
	return out
}

// TileMask tiles the low w bits of mask across m bits (the final copy is
// truncated if w does not divide m). Used by the Algorithm 2 kernel
// generator, where a short mask is "independently XORed with sub-vectors"
// of each base vector.
func TileMask(mask uint64, w, m int) uint64 {
	if w <= 0 {
		return 0
	}
	mk := mask & Mask(w)
	var out uint64
	for off := 0; off < m; off += w {
		out |= mk << uint(off)
	}
	return out & Mask(m)
}

// OnesCount is bits.OnesCount64, re-exported for call-site uniformity.
func OnesCount(x uint64) int { return bits.OnesCount64(x) }

// HammingDistance counts bit positions where a and b differ.
func HammingDistance(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// HammingDistanceMasked counts differing bit positions within mask.
func HammingDistanceMasked(a, b, mask uint64) int {
	return bits.OnesCount64((a ^ b) & mask)
}

// evenMask selects the even-indexed bits 0,2,4,... of a 64-bit word,
// i.e. the right digits of the 32 MLC symbols.
const evenMask = 0x5555555555555555

// oddMask selects the odd-indexed bits 1,3,5,... i.e. the left digits.
const oddMask = 0xAAAAAAAAAAAAAAAA

// CompressEven gathers the 32 even-indexed bits of x (bits 0,2,...,62)
// into the low 32 bits of the result. For an MLC word this extracts the
// right-digit plane.
func CompressEven(x uint64) uint64 {
	x &= evenMask
	// Parallel bit-compress: shift pairs together in log steps.
	x = (x | (x >> 1)) & 0x3333333333333333
	x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0F
	x = (x | (x >> 4)) & 0x00FF00FF00FF00FF
	x = (x | (x >> 8)) & 0x0000FFFF0000FFFF
	x = (x | (x >> 16)) & 0x00000000FFFFFFFF
	return x
}

// CompressOdd gathers the 32 odd-indexed bits of x (bits 1,3,...,63) into
// the low 32 bits of the result. For an MLC word this extracts the
// left-digit plane.
func CompressOdd(x uint64) uint64 { return CompressEven(x >> 1) }

// SpreadEven is the inverse of CompressEven: it scatters the low 32 bits
// of x to even bit positions 0,2,...,62.
func SpreadEven(x uint64) uint64 {
	x &= 0x00000000FFFFFFFF
	x = (x | (x << 16)) & 0x0000FFFF0000FFFF
	x = (x | (x << 8)) & 0x00FF00FF00FF00FF
	x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F
	x = (x | (x << 2)) & 0x3333333333333333
	x = (x | (x << 1)) & evenMask
	return x
}

// SpreadOdd scatters the low 32 bits of x to odd bit positions 1,3,...,63.
func SpreadOdd(x uint64) uint64 { return SpreadEven(x) << 1 }

// SplitPlanes splits an MLC word into its (left, right) digit planes,
// each returned in the low 32 bits.
func SplitPlanes(word uint64) (left, right uint64) {
	return CompressOdd(word), CompressEven(word)
}

// MergePlanes is the inverse of SplitPlanes.
func MergePlanes(left, right uint64) uint64 {
	return SpreadOdd(left) | SpreadEven(right)
}

// Symbol extracts MLC symbol k (0-31) of word as a 2-bit value, with the
// left digit in bit 1 and the right digit in bit 0.
func Symbol(word uint64, k int) uint8 {
	return uint8((word >> uint(2*k)) & 3)
}

// SetSymbol returns word with MLC symbol k replaced by s (low 2 bits).
func SetSymbol(word uint64, k int, s uint8) uint64 {
	sh := uint(2 * k)
	return (word &^ (uint64(3) << sh)) | (uint64(s&3) << sh)
}

// SymbolDiffMask returns a mask with both bits of every symbol set where
// the symbols of a and b differ. Useful for counting changed MLC cells:
// OnesCount(SymbolDiffMask(a,b))/2 is the number of differing symbols.
func SymbolDiffMask(a, b uint64) uint64 {
	d := a ^ b
	// Smear each symbol's difference onto both of its bit positions.
	d = d | ((d & evenMask) << 1) | ((d & oddMask) >> 1)
	return d
}

// SymbolCount counts MLC symbols (cells) where a and b differ.
func SymbolCount(a, b uint64) int {
	d := a ^ b
	// A symbol differs if either of its two bits differs.
	or := (d & evenMask) | ((d & oddMask) >> 1)
	return bits.OnesCount64(or)
}

// ExpandSymbolMask turns a 32-bit per-symbol mask (bit k = symbol k) into
// a 64-bit per-bit mask with both bits of each selected symbol set.
func ExpandSymbolMask(symMask uint64) uint64 {
	e := SpreadEven(symMask)
	return e | (e << 1)
}

// CollapseBitMaskToSymbols turns a 64-bit per-bit mask into a 32-bit
// per-symbol mask where symbol k is set if either of its bits is set.
func CollapseBitMaskToSymbols(bitMask uint64) uint64 {
	or := (bitMask & evenMask) | ((bitMask & oddMask) >> 1)
	return CompressEven(or)
}

// ParityOf returns the parity (XOR of all bits) of x as 0 or 1.
func ParityOf(x uint64) uint64 {
	return uint64(bits.OnesCount64(x) & 1)
}

// ReverseBits reverses the low n bits of x (bit 0 swaps with bit n-1).
func ReverseBits(x uint64, n int) uint64 {
	return bits.Reverse64(x) >> uint(64-n)
}

// BytesToWords packs a little-endian byte slice into uint64 words. The
// length of b must be a multiple of 8.
func BytesToWords(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	BytesToWordsInto(out, b)
	return out
}

// BytesToWordsInto packs a little-endian byte slice into dst without
// allocating. len(b) must be a multiple of 8 and dst must hold exactly
// len(b)/8 words.
func BytesToWordsInto(dst []uint64, b []byte) {
	if len(b)%8 != 0 || len(dst) != len(b)/8 {
		panic("bitutil: BytesToWordsInto needs len(b) = 8*len(dst)")
	}
	for i := range dst {
		var w uint64
		for k := 0; k < 8; k++ {
			w |= uint64(b[i*8+k]) << uint(8*k)
		}
		dst[i] = w
	}
}

// WordsToBytes is the inverse of BytesToWords.
func WordsToBytes(ws []uint64) []byte {
	out := make([]byte, len(ws)*8)
	WordsToBytesInto(out, ws)
	return out
}

// WordsToBytesInto is the inverse of BytesToWordsInto: it unpacks ws
// into dst (which must hold exactly 8*len(ws) bytes) without allocating.
func WordsToBytesInto(dst []byte, ws []uint64) {
	if len(dst) != len(ws)*8 {
		panic("bitutil: WordsToBytesInto needs len(dst) = 8*len(ws)")
	}
	for i, w := range ws {
		for k := 0; k < 8; k++ {
			dst[i*8+k] = byte(w >> uint(8*k))
		}
	}
}
