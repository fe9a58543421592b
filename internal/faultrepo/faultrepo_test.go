package faultrepo

import (
	"testing"

	"repro/internal/pcm"
	"repro/internal/prng"
)

func TestEmptyRepo(t *testing.T) {
	r := New(pcm.MLC, 4)
	d, hit := r.Lookup(0)
	if d.StuckMask != 0 || hit {
		t.Error("empty repo should return empty descriptor, cache miss")
	}
	if r.FaultyWords() != 0 || r.KnownStuckCells() != 0 {
		t.Error("fresh repo not empty")
	}
}

func TestDiscoveryViaVerify(t *testing.T) {
	r := New(pcm.MLC, 4)
	// Verify mismatch on symbol 3 (bits 6-7): desired 01, stored 10.
	desired := uint64(0b01) << 6
	stored := uint64(0b10) << 6
	if n := r.RecordVerify(9, desired, stored); n != 1 {
		t.Errorf("discovered %d cells, want 1", n)
	}
	d, _ := r.Lookup(9)
	if d.StuckMask != uint64(0b11)<<6 {
		t.Errorf("mask = %#x", d.StuckMask)
	}
	if d.StuckVal != stored {
		t.Errorf("val = %#x", d.StuckVal)
	}
	// Same mismatch again: nothing new.
	if n := r.RecordVerify(9, desired, stored); n != 0 {
		t.Errorf("rediscovered %d cells", n)
	}
}

func TestDiscoveryMarksWholeCell(t *testing.T) {
	// A single wrong bit in an MLC cell marks both digits stuck.
	r := New(pcm.MLC, 4)
	r.RecordVerify(0, 0, 1) // right digit of cell 0 differs
	d, _ := r.Lookup(0)
	if d.StuckMask != 0b11 {
		t.Errorf("mask = %#b, want whole cell", d.StuckMask)
	}
}

func TestSLCGranularity(t *testing.T) {
	r := New(pcm.SLC, 4)
	if n := r.RecordVerify(0, 0, 1); n != 1 {
		t.Errorf("discovered %d, want 1", n)
	}
	d, _ := r.Lookup(0)
	if d.StuckMask != 1 {
		t.Errorf("SLC mask = %#x, want single bit", d.StuckMask)
	}
}

func TestVerifyCleanWriteDiscoversNothing(t *testing.T) {
	r := New(pcm.MLC, 4)
	if n := r.RecordVerify(0, 0xDEAD, 0xDEAD); n != 0 {
		t.Errorf("clean verify discovered %d cells", n)
	}
}

func TestCacheHitsAndEvictions(t *testing.T) {
	r := New(pcm.MLC, 2)
	r.Lookup(0) // miss, insert
	r.Lookup(0) // hit
	if r.Stats.CacheHits != 1 || r.Stats.CacheMiss != 1 {
		t.Errorf("hits=%d miss=%d", r.Stats.CacheHits, r.Stats.CacheMiss)
	}
	r.Lookup(1) // miss, insert
	r.Lookup(2) // miss, evict LRU (word 0)
	if r.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", r.Stats.Evictions)
	}
	// Word 0 was evicted: next lookup misses again.
	r.Lookup(0)
	if r.Stats.CacheMiss != 4 {
		t.Errorf("miss = %d, want 4", r.Stats.CacheMiss)
	}
}

func TestLRUKeepsHotEntry(t *testing.T) {
	r := New(pcm.MLC, 2)
	r.Lookup(0)
	r.Lookup(1)
	r.Lookup(0) // refresh 0: word 1 is now LRU
	r.Lookup(2) // evicts 1
	r.Lookup(0) // must still hit
	if r.Stats.CacheHits != 2 {
		t.Errorf("hits = %d, want 2 (hot entry evicted?)", r.Stats.CacheHits)
	}
}

func TestUncachedMode(t *testing.T) {
	r := New(pcm.MLC, 0)
	r.Lookup(0)
	r.Lookup(0)
	if r.Stats.CacheHits != 0 || r.Stats.CacheMiss != 2 {
		t.Error("uncached repo should always miss")
	}
	if r.HitRate() != 0 {
		t.Error("hit rate should be 0")
	}
}

// TestTracksDeviceFaults drives a faulty device through verify-style
// discovery and checks the repository converges to the oracle for
// written words.
func TestTracksDeviceFaults(t *testing.T) {
	rng := prng.New(3)
	faults := pcm.Generate(pcm.MLC, 64, pcm.FaultParams{CellRate: 5e-2}, rng)
	dev := pcm.NewDevice(pcm.Config{Mode: pcm.MLC, Rows: 8, WordsPerRow: 8,
		Faults: faults})
	repo := New(pcm.MLC, 16)
	for pass := 0; pass < 4; pass++ {
		for w := 0; w < 64; w++ {
			desired := rng.Uint64()
			res := dev.Write(w, desired)
			repo.RecordVerify(w, desired, res.Stored)
		}
	}
	// Every stuck cell must have been discovered by now (each pass gives
	// a 3/4 chance per cell of a visible mismatch).
	missing := 0
	for w := 0; w < 64; w++ {
		oracleMask, _ := dev.Stuck(w)
		d, _ := repo.Lookup(w)
		if oracleMask&^d.StuckMask != 0 {
			missing++
		}
	}
	if missing > 2 {
		t.Errorf("%d words still have undiscovered stuck cells after 4 passes", missing)
	}
	// And nothing invented: repo mask must be a subset of the oracle.
	for w := 0; w < 64; w++ {
		oracleMask, oracleVal := dev.Stuck(w)
		d, _ := repo.Lookup(w)
		if d.StuckMask&^oracleMask != 0 {
			t.Fatalf("word %d: repo invented stuck bits", w)
		}
		if d.StuckVal&d.StuckMask != oracleVal&d.StuckMask {
			t.Fatalf("word %d: repo stuck values disagree with oracle", w)
		}
	}
}

func TestStorageBits(t *testing.T) {
	r := New(pcm.MLC, 4)
	if r.StorageBits(1024) != 0 {
		t.Error("empty repo should need no storage")
	}
	r.RecordVerify(5, 0, 1)
	want := 11 + 128 // ceil(log2(1024))+1 index bits + two 64-bit fields
	if got := r.StorageBits(1024); got != want {
		t.Errorf("storage = %d bits, want %d", got, want)
	}
}

func TestString(t *testing.T) {
	if New(pcm.MLC, 4).String() == "" {
		t.Error("empty String")
	}
}

func TestNewPanicsOnNegativeCache(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(pcm.MLC, -1)
}

// tickLRU is the reference model for the descriptor cache: every entry
// carries the time of its last use, and a miss on a full cache evicts
// the entry with the smallest timestamp by scanning them all.
// Timestamps are unique, so this is an exact LRU.
type tickLRU struct {
	size      int
	tick      int
	last      map[int]int
	hits      int64
	miss      int64
	evictions int64
}

func (m *tickLRU) lookup(word int) bool {
	m.tick++
	if _, ok := m.last[word]; ok {
		m.last[word] = m.tick
		m.hits++
		return true
	}
	m.miss++
	if len(m.last) >= m.size {
		oldest, oldestTick := -1, m.tick
		for w, tk := range m.last {
			if tk < oldestTick {
				oldest, oldestTick = w, tk
			}
		}
		delete(m.last, oldest)
		m.evictions++
	}
	m.last[word] = m.tick
	return false
}

// TestLRUMatchesTickScanModel drives the repository and the reference
// model with the same seeded word streams and requires the same hit or
// miss on every lookup and the same final counters.
func TestLRUMatchesTickScanModel(t *testing.T) {
	const lookups = 200_000
	for _, size := range []int{1, 2, 3, 16, 256} {
		r := New(pcm.MLC, size)
		ref := &tickLRU{size: size, last: make(map[int]int)}
		rng := prng.New(uint64(size))
		span := 3 * size
		for i := 0; i < lookups; i++ {
			w := rng.Intn(span)
			_, hit := r.Lookup(w)
			if want := ref.lookup(w); hit != want {
				t.Fatalf("size %d, lookup %d (word %d): hit=%v, reference %v", size, i, w, hit, want)
			}
		}
		if r.Stats.CacheHits != ref.hits || r.Stats.CacheMiss != ref.miss || r.Stats.Evictions != ref.evictions {
			t.Errorf("size %d: hits/miss/evictions = %d/%d/%d, reference %d/%d/%d", size,
				r.Stats.CacheHits, r.Stats.CacheMiss, r.Stats.Evictions, ref.hits, ref.miss, ref.evictions)
		}
		if r.Stats.Lookups != lookups {
			t.Errorf("size %d: lookups = %d, want %d", size, r.Stats.Lookups, lookups)
		}
	}
}

// BenchmarkLookup measures one descriptor-cache lookup at the default
// 256-entry cache: miss-heavy draws words uniformly over 32 times the
// cache size, so nearly every lookup evicts; hit-heavy keeps the working
// set inside the cache.
func BenchmarkLookup(b *testing.B) {
	const size = 256
	for _, bc := range []struct {
		name string
		span int
	}{
		{"miss-heavy", 32 * size},
		{"hit-heavy", size / 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := prng.New(1)
			words := make([]int, 4096)
			for i := range words {
				words[i] = rng.Intn(bc.span)
			}
			r := New(pcm.MLC, size)
			for _, w := range words {
				r.Lookup(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Lookup(words[i&(len(words)-1)])
			}
		})
	}
}
