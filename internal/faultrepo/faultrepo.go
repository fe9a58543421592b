// Package faultrepo implements the runtime fault repository the paper
// assumes is present (Section III: "Several fault repositories have been
// proposed for efficiently tracking faults up to fault rates approaching
// 1e-2... we assume some such mechanism is in place"), modeled on the
// FLOWER/ArchShield line of work it cites ([20], [26]).
//
// The repository answers the memory controller's per-write question —
// which cells of this word are stuck, and at what values — from a
// bounded on-chip structure instead of the oracle view the device holds:
//
//   - A small fully-associative SRAM cache of per-word fault descriptors
//     (hot words hit here at access time). Replacement is exact LRU, and
//     a lookup costs O(1) whatever the cache size: a map finds the
//     word's slot and an intrusive doubly linked list over a fixed slab
//     keeps recency order.
//   - A backing table in a reserved memory region holding descriptors
//     for every faulty word (cache misses model an extra memory access).
//
// Discovery is write-driven: a verify-after-write (the program-and-check
// PCM already performs) reports mismatching cells, which the controller
// records here. The repository therefore lags the oracle until a cell's
// first post-failure write, exactly like a real system.
package faultrepo

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/pcm"
)

// Descriptor records the stuck cells of one word.
type Descriptor struct {
	// StuckMask has every bit of every known-stuck cell set.
	StuckMask uint64
	// StuckVal holds the frozen values at stuck positions.
	StuckVal uint64
}

// Stats counts repository traffic.
type Stats struct {
	Lookups    int64
	CacheHits  int64
	CacheMiss  int64
	Discovered int64 // stuck cells recorded
	Evictions  int64
}

// Repo tracks discovered stuck-at faults per word with a bounded cache
// over a complete backing table.
type Repo struct {
	mode    pcm.CellMode
	table   map[int]Descriptor // backing store: word -> descriptor
	cache   map[int]int32      // word -> slot in nodes
	nodes   []lruNode          // cached words, linked most recent first
	head    int32              // most recently used slot (-1 when empty)
	tail    int32              // least recently used slot (-1 when empty)
	cacheSz int
	Stats   Stats
}

// lruNode is one descriptor-cache slot in the recency list.
type lruNode struct {
	word       int
	prev, next int32 // neighbouring slots, -1 at either end
}

// New creates a repository for the given cell mode with a descriptor
// cache of cacheWords entries (0 means uncached: every lookup is a
// miss).
func New(mode pcm.CellMode, cacheWords int) *Repo {
	if cacheWords < 0 {
		panic("faultrepo: negative cache size")
	}
	return &Repo{
		mode:    mode,
		table:   make(map[int]Descriptor),
		cache:   make(map[int]int32, cacheWords),
		nodes:   make([]lruNode, 0, cacheWords),
		head:    -1,
		tail:    -1,
		cacheSz: cacheWords,
	}
}

// Lookup returns the known fault descriptor for a word and whether the
// answer came from the cache (miss implies an extra backing access).
func (r *Repo) Lookup(word int) (Descriptor, bool) {
	r.Stats.Lookups++
	d := r.table[word]
	if r.cacheSz == 0 {
		r.Stats.CacheMiss++
		return d, false
	}
	if slot, ok := r.cache[word]; ok {
		r.unlink(slot)
		r.pushFront(slot)
		r.Stats.CacheHits++
		return d, true
	}
	r.Stats.CacheMiss++
	r.insert(word)
	return d, false
}

// insert caches word as the most recently used entry, reusing the least
// recently used slot when the cache is full.
func (r *Repo) insert(word int) {
	var slot int32
	if len(r.nodes) < r.cacheSz {
		slot = int32(len(r.nodes))
		r.nodes = append(r.nodes, lruNode{})
	} else {
		slot = r.tail
		delete(r.cache, r.nodes[slot].word)
		r.unlink(slot)
		r.Stats.Evictions++
	}
	r.nodes[slot].word = word
	r.cache[word] = slot
	r.pushFront(slot)
}

// unlink removes slot from the recency list.
func (r *Repo) unlink(slot int32) {
	n := &r.nodes[slot]
	if n.prev >= 0 {
		r.nodes[n.prev].next = n.next
	} else {
		r.head = n.next
	}
	if n.next >= 0 {
		r.nodes[n.next].prev = n.prev
	} else {
		r.tail = n.prev
	}
}

// pushFront links an unlinked slot in as the most recently used entry.
func (r *Repo) pushFront(slot int32) {
	n := &r.nodes[slot]
	n.prev, n.next = -1, r.head
	if r.head >= 0 {
		r.nodes[r.head].prev = slot
	} else {
		r.tail = slot
	}
	r.head = slot
}

// Peek returns the known fault descriptor for a word without modeling a
// repository access: no lookup is counted and the descriptor cache is
// untouched. It is the metadata view used by repair policy decisions
// (e.g. spare-line selection in memctrl's remapping decorator), as
// opposed to the per-write Lookup the datapath performs.
func (r *Repo) Peek(word int) Descriptor { return r.table[word] }

// RecordVerify digests a verify-after-write outcome: desired is what the
// controller asked the cells to store, stored is what read-back
// returned. Any mismatching cell is recorded as stuck at its read-back
// value. Returns the number of newly discovered stuck cells.
func (r *Repo) RecordVerify(word int, desired, stored uint64) int {
	diff := desired ^ stored
	if diff == 0 {
		return 0
	}
	d := r.table[word]
	var mask uint64
	if r.mode == pcm.MLC {
		mask = bitutil.ExpandSymbolMask(bitutil.CollapseBitMaskToSymbols(diff))
	} else {
		mask = diff
	}
	newBits := mask &^ d.StuckMask
	if newBits == 0 {
		return 0
	}
	d.StuckMask |= newBits
	d.StuckVal = (d.StuckVal &^ newBits) | (stored & newBits)
	r.table[word] = d
	var newly int
	if r.mode == pcm.MLC {
		newly = bitutil.OnesCount(bitutil.CollapseBitMaskToSymbols(newBits))
	} else {
		newly = bitutil.OnesCount(newBits)
	}
	r.Stats.Discovered += int64(newly)
	return newly
}

// KnownStuckCells returns the number of stuck cells recorded so far.
func (r *Repo) KnownStuckCells() int64 { return r.Stats.Discovered }

// FaultyWords returns how many words have at least one known fault.
func (r *Repo) FaultyWords() int { return len(r.table) }

// HitRate returns the cache hit fraction of lookups so far.
func (r *Repo) HitRate() float64 {
	if r.Stats.Lookups == 0 {
		return 0
	}
	return float64(r.Stats.CacheHits) / float64(r.Stats.Lookups)
}

// StorageBits estimates the backing-table footprint: per faulty word,
// one word index plus the descriptor pair. This is the overhead the
// FLOWER/ArchShield papers engineer down; the estimate lets experiments
// report it.
func (r *Repo) StorageBits(totalWords int) int {
	idxBits := 1
	for v := totalWords - 1; v > 0; v >>= 1 {
		idxBits++
	}
	return len(r.table) * (idxBits + 128)
}

// String summarizes the repository.
func (r *Repo) String() string {
	return fmt.Sprintf("faultrepo{words=%d, stuck=%d, hit=%.1f%%}",
		len(r.table), r.Stats.Discovered, 100*r.HitRate())
}
