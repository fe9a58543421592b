package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{-1, 0}, {0, 0}, {1, 1}, {2, 3}, {8, 0xFF}, {16, 0xFFFF},
		{32, 0xFFFFFFFF}, {63, 0x7FFFFFFFFFFFFFFF}, {64, ^uint64(0)},
		{100, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestSubBlockRoundTrip(t *testing.T) {
	x := uint64(0x0123456789ABCDEF)
	for _, m := range []int{4, 8, 16, 32} {
		p := 64 / m
		var rebuilt uint64
		for j := 0; j < p; j++ {
			rebuilt = SetSubBlock(rebuilt, j, m, SubBlock(x, j, m))
		}
		if rebuilt != x {
			t.Errorf("m=%d: rebuilt %#x != %#x", m, rebuilt, x)
		}
	}
}

func TestSubBlockValues(t *testing.T) {
	x := uint64(0x1111222233334444)
	if got := SubBlock(x, 0, 16); got != 0x4444 {
		t.Errorf("partition 0 = %#x, want 0x4444", got)
	}
	if got := SubBlock(x, 3, 16); got != 0x1111 {
		t.Errorf("partition 3 = %#x, want 0x1111", got)
	}
}

func TestSetSubBlockMasksValue(t *testing.T) {
	// Bits of v above m must be ignored.
	got := SetSubBlock(0, 1, 8, 0xFFF)
	if got != 0xFF00 {
		t.Errorf("SetSubBlock = %#x, want 0xFF00", got)
	}
}

func TestRepeat(t *testing.T) {
	if got := Repeat(0xAB, 8, 4); got != 0xABABABAB {
		t.Errorf("Repeat = %#x, want 0xABABABAB", got)
	}
	if got := Repeat(0xFFFF, 16, 4); got != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("Repeat = %#x", got)
	}
	// Kernel bits above m ignored.
	if got := Repeat(0x1FF, 8, 2); got != 0xFFFF {
		t.Errorf("Repeat with overlong kernel = %#x, want 0xFFFF", got)
	}
}

func TestTileMask(t *testing.T) {
	// Paper Algorithm 2 example: 2-bit mask 01 tiled over 16 bits.
	got := TileMask(0b01, 2, 16)
	if got != 0x5555 {
		t.Errorf("TileMask(01,2,16) = %#x, want 0x5555", got)
	}
	// Truncated final copy: 3-bit mask 101 tiled at offsets 0,3,6 over
	// 8 bits -> 0b(1)01_101_101 with the 9th bit cut off.
	got = TileMask(0b101, 3, 8)
	want := uint64(0b01101101)
	if got != want {
		t.Errorf("TileMask(101,3,8) = %#b, want %#b", got, want)
	}
	if TileMask(0b1, 0, 8) != 0 {
		t.Error("TileMask with w=0 should be 0")
	}
}

// TestAlgorithm2PaperVectors checks the tiled-mask XOR against the worked
// example in Section IV-B of the paper: base vectors
// 1101101100000100 and 0001000011000011 with masks 00 and 01 produce the
// four listed kernels.
func TestAlgorithm2PaperVectors(t *testing.T) {
	b0 := uint64(0b1101101100000100)
	b1 := uint64(0b0001000011000011)
	m1 := TileMask(0b01, 2, 16)
	if got := b0 ^ m1; got != 0b1000111001010001 {
		t.Errorf("b0^M1 = %016b, want 1000111001010001", got)
	}
	if got := b1 ^ m1; got != 0b0100010110010110 {
		t.Errorf("b1^M1 = %016b, want 0100010110010110", got)
	}
}

func TestPlanesRoundTrip(t *testing.T) {
	f := func(w uint64) bool {
		l, r := SplitPlanes(w)
		if l > 0xFFFFFFFF || r > 0xFFFFFFFF {
			return false
		}
		return MergePlanes(l, r) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanesKnownValues(t *testing.T) {
	// Word with all left digits set, right digits clear.
	l, r := SplitPlanes(0xAAAAAAAAAAAAAAAA)
	if l != 0xFFFFFFFF || r != 0 {
		t.Errorf("planes of 0xAA..: left=%#x right=%#x", l, r)
	}
	l, r = SplitPlanes(0x5555555555555555)
	if l != 0 || r != 0xFFFFFFFF {
		t.Errorf("planes of 0x55..: left=%#x right=%#x", l, r)
	}
	// Symbol 0 = 0b11, all else zero: word = 3.
	l, r = SplitPlanes(3)
	if l != 1 || r != 1 {
		t.Errorf("planes of 3: left=%#x right=%#x", l, r)
	}
}

func TestCompressSpreadInverse(t *testing.T) {
	f := func(x uint64) bool {
		lo := x & 0xFFFFFFFF
		return CompressEven(SpreadEven(lo)) == lo &&
			CompressOdd(SpreadOdd(lo)) == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymbolAccessors(t *testing.T) {
	var w uint64
	for k := 0; k < 32; k++ {
		w = SetSymbol(w, k, uint8(k%4))
	}
	for k := 0; k < 32; k++ {
		if got := Symbol(w, k); got != uint8(k%4) {
			t.Errorf("Symbol(%d) = %d, want %d", k, got, k%4)
		}
	}
}

func TestSymbolCount(t *testing.T) {
	a := uint64(0)
	b := SetSymbol(SetSymbol(0, 3, 2), 17, 1)
	if got := SymbolCount(a, b); got != 2 {
		t.Errorf("SymbolCount = %d, want 2", got)
	}
	if SymbolCount(a, a) != 0 {
		t.Error("SymbolCount of equal words must be 0")
	}
	// Both bits of one symbol differing is still one symbol.
	c := SetSymbol(0, 5, 3)
	if got := SymbolCount(0, c); got != 1 {
		t.Errorf("SymbolCount both-bit = %d, want 1", got)
	}
}

func TestSymbolCountAgainstNaive(t *testing.T) {
	f := func(a, b uint64) bool {
		n := 0
		for k := 0; k < 32; k++ {
			if Symbol(a, k) != Symbol(b, k) {
				n++
			}
		}
		return n == SymbolCount(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymbolDiffMask(t *testing.T) {
	f := func(a, b uint64) bool {
		m := SymbolDiffMask(a, b)
		for k := 0; k < 32; k++ {
			want := Symbol(a, k) != Symbol(b, k)
			both := (m>>(2*k))&3 == 3
			none := (m>>(2*k))&3 == 0
			if want && !both {
				return false
			}
			if !want && !none {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpandCollapseSymbolMask(t *testing.T) {
	f := func(sm uint64) bool {
		sm &= 0xFFFFFFFF
		bm := ExpandSymbolMask(sm)
		return CollapseBitMaskToSymbols(bm) == sm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollapseBitMaskSingleBit(t *testing.T) {
	// A single stuck bit marks its whole symbol.
	bm := uint64(1) << 7 // bit 7 = left digit of symbol 3
	if got := CollapseBitMaskToSymbols(bm); got != 1<<3 {
		t.Errorf("collapse = %#x, want %#x", got, uint64(1)<<3)
	}
}

func TestParity(t *testing.T) {
	if ParityOf(0) != 0 || ParityOf(1) != 1 || ParityOf(3) != 0 ||
		ParityOf(0xFFFFFFFFFFFFFFFF) != 0 || ParityOf(7) != 1 {
		t.Error("ParityOf wrong")
	}
}

func TestReverseBits(t *testing.T) {
	if got := ReverseBits(0b0011, 4); got != 0b1100 {
		t.Errorf("ReverseBits = %#b", got)
	}
	f := func(x uint64) bool {
		x &= Mask(16)
		return ReverseBits(ReverseBits(x, 16), 16) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesWordsRoundTrip(t *testing.T) {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(i * 7)
	}
	ws := BytesToWords(b)
	if len(ws) != 8 {
		t.Fatalf("len = %d", len(ws))
	}
	b2 := WordsToBytes(ws)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestBytesToWordsEndianness(t *testing.T) {
	b := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	if BytesToWords(b)[0] != 1 {
		t.Error("byte 0 should be the least significant")
	}
}

func TestBytesToWordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on odd length")
		}
	}()
	BytesToWords(make([]byte, 7))
}

func TestHammingDistance(t *testing.T) {
	if HammingDistance(0, 0xFF) != 8 {
		t.Error("HammingDistance(0,0xFF) != 8")
	}
	if HammingDistanceMasked(0, 0xFF, 0x0F) != 4 {
		t.Error("masked distance wrong")
	}
}

func TestOnesCountMatchesStdlib(t *testing.T) {
	f := func(x uint64) bool { return OnesCount(x) == bits.OnesCount64(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
