// Package memctrl implements the paper's Fig. 4 memory-controller
// datapath: on a dirty eviction from the last-level cache, the 512-bit
// line is encrypted by the counter-mode AES unit, split into eight 64-bit
// blocks, each block is read-modified-written through the coset encoder
// against the currently-stored data and known stuck cells, and the
// encoded blocks plus their auxiliary bits go to the PCM device. Reads
// run the inverse pipeline (decode, then decrypt).
//
// The controller accounts for energy the way the paper does: device
// write energy for data cells plus the energy of writing the auxiliary
// bits ("Includes the cost of writing auxiliary information", Figs. 7
// and 9).
package memctrl

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/coset"
	"repro/internal/cryptmem"
	"repro/internal/faultrepo"
	"repro/internal/pcm"
)

// WordsPerLine is the number of 64-bit blocks in a 512-bit cache line.
const WordsPerLine = 8

// LineStore is the per-shard line storage abstraction: anything that can
// absorb 64-byte plaintext writebacks and serve 64-byte plaintext reads
// at line granularity. The concrete Controller is the bottom of every
// stack; decorators (internal/linecache) wrap an inner LineStore and
// forward what they do not handle themselves.
//
// Implementations are not safe for concurrent use; shard.Engine
// serializes access per shard.
type LineStore interface {
	// WriteLine absorbs one 64-byte plaintext writeback and returns the
	// per-word device outcomes, valid until the next call. Stores that
	// defer the device write (a write-back cache) return an empty slice:
	// the outcomes materialize later, on Flush or eviction, and are then
	// visible only through Stats. A non-nil error is a *DeviceError:
	// the write did not take effect cleanly (though a torn write may
	// have left corrupted cells behind — the caller must retry or
	// surface the error, never trust the stored state).
	WriteLine(line int, plaintext []byte) ([]WordOutcome, error)
	// ReadLine serves one 64-byte plaintext read into dst (allocated
	// when nil). A non-nil error is a *DeviceError; the returned bytes
	// must not be trusted in that case.
	ReadLine(line int, dst []byte) ([]byte, error)
	// Flush forces every deferred write down to the device. It is a
	// no-op for stores that write through. On error some dirty state
	// remains buffered; a later Flush retries it.
	Flush() error
	// Stats returns the accumulated statistics of the whole stack below
	// (and including) this store.
	Stats() Stats
	// ResetStats zeroes the accumulated statistics of the whole stack.
	ResetStats()
	// NumLines returns the line capacity of the store.
	NumLines() int
}

// Config assembles a controller.
type Config struct {
	// Device is the PCM array. Its geometry must hold an integer number
	// of cache lines.
	Device *pcm.Device
	// Crypt is the encryption unit; nil disables encryption (the
	// "unencrypted workload" ablation).
	Crypt *cryptmem.Unit
	// Codec encodes each 64-bit block (or its 32-bit right-digit plane).
	Codec coset.Codec
	// Objective drives candidate selection.
	Objective coset.Objective
	// FaultRepo, when non-nil, replaces the device's oracle fault view
	// with the repository's discovered view: the encoder only knows
	// about stuck cells previously observed by verify-after-write, and
	// every write's outcome is fed back into the repository. This models
	// the runtime fault tracking the paper assumes (Section III) rather
	// than perfect knowledge.
	FaultRepo *faultrepo.Repo
}

// Stats accumulates the counters of a LineStore stack. It is the shared
// statistics currency from the controller up through shard.Counters to
// vcc.Stats: the cache-decorator fields (CacheHits through
// CoalescedWrites) stay zero for a bare Controller.
type Stats struct {
	// LineWrites is the number of cache-line writebacks processed.
	LineWrites int64
	// EnergyPJ is total write energy: cell programming plus aux bits.
	EnergyPJ float64
	// AuxEnergyPJ is the aux-bit component of EnergyPJ.
	AuxEnergyPJ float64
	// BitFlips counts logical bit transitions in data cells.
	BitFlips int64
	// CellChanges counts physical cell state changes in data cells.
	CellChanges int64
	// SAWCells counts stuck-at-wrong data cells over all writes.
	SAWCells int64
	// SAWWords counts word writes that left at least one SAW cell.
	SAWWords int64
	// NewlyFailedCells counts endurance exhaustions (wear-enabled
	// devices).
	NewlyFailedCells int64
	// LineReads is the number of cache-line reads served.
	LineReads int64
	// WordsDecoded counts 64-bit words run through the coset decoder on
	// the read path.
	WordsDecoded int64
	// CacheHits counts reads served from a decoded-line cache without
	// touching the decode+decrypt pipeline (see internal/linecache).
	CacheHits int64
	// CacheMisses counts cached reads that had to fall through to the
	// inner store.
	CacheMisses int64
	// CacheEvictions counts lines evicted from a decoded-line cache.
	CacheEvictions int64
	// Writebacks counts deferred device writebacks issued by a
	// write-back cache on eviction or Flush.
	Writebacks int64
	// CoalescedWrites counts writes absorbed into an already-dirty
	// cached line — device work a write-back cache eliminated entirely.
	CoalescedWrites int64
	// RemappedLines counts repair relocations performed by a remapping
	// decorator: a logical line moved to a spare physical line after a
	// write-verify failure (see Remapper).
	RemappedLines int64
	// RepairFailures counts writes that still stored stuck-at-wrong
	// cells after the remapping decorator ran out of spare lines.
	RepairFailures int64
	// DeviceErrors counts transient device faults surfaced by the stack
	// (injected by internal/chaos or, someday, a real device model).
	DeviceErrors int64
	// ErrorRetries counts in-controller retries of a faulted op by the
	// shard backend before it gave up or succeeded.
	ErrorRetries int64
}

// Add folds o into s field-wise.
func (s *Stats) Add(o Stats) {
	s.LineWrites += o.LineWrites
	s.EnergyPJ += o.EnergyPJ
	s.AuxEnergyPJ += o.AuxEnergyPJ
	s.BitFlips += o.BitFlips
	s.CellChanges += o.CellChanges
	s.SAWCells += o.SAWCells
	s.SAWWords += o.SAWWords
	s.NewlyFailedCells += o.NewlyFailedCells
	s.LineReads += o.LineReads
	s.WordsDecoded += o.WordsDecoded
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
	s.Writebacks += o.Writebacks
	s.CoalescedWrites += o.CoalescedWrites
	s.RemappedLines += o.RemappedLines
	s.RepairFailures += o.RepairFailures
	s.DeviceErrors += o.DeviceErrors
	s.ErrorRetries += o.ErrorRetries
}

// HitRate returns CacheHits / (CacheHits + CacheMisses), or 0 before
// any cached read — the shared definition used by every stats surface
// (experiment tables, tracegen replay output).
func (s Stats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Delta returns s - o field-wise (the statistics accumulated between
// two snapshots).
func (s Stats) Delta(o Stats) Stats {
	return Stats{
		LineWrites:       s.LineWrites - o.LineWrites,
		EnergyPJ:         s.EnergyPJ - o.EnergyPJ,
		AuxEnergyPJ:      s.AuxEnergyPJ - o.AuxEnergyPJ,
		BitFlips:         s.BitFlips - o.BitFlips,
		CellChanges:      s.CellChanges - o.CellChanges,
		SAWCells:         s.SAWCells - o.SAWCells,
		SAWWords:         s.SAWWords - o.SAWWords,
		NewlyFailedCells: s.NewlyFailedCells - o.NewlyFailedCells,
		LineReads:        s.LineReads - o.LineReads,
		WordsDecoded:     s.WordsDecoded - o.WordsDecoded,
		CacheHits:        s.CacheHits - o.CacheHits,
		CacheMisses:      s.CacheMisses - o.CacheMisses,
		CacheEvictions:   s.CacheEvictions - o.CacheEvictions,
		Writebacks:       s.Writebacks - o.Writebacks,
		CoalescedWrites:  s.CoalescedWrites - o.CoalescedWrites,
		RemappedLines:    s.RemappedLines - o.RemappedLines,
		RepairFailures:   s.RepairFailures - o.RepairFailures,
		DeviceErrors:     s.DeviceErrors - o.DeviceErrors,
		ErrorRetries:     s.ErrorRetries - o.ErrorRetries,
	}
}

// WordOutcome describes one word of a line write.
type WordOutcome struct {
	// Word is the flat device word index.
	Word int
	// SAWCells is the number of stuck-at-wrong cells in the final
	// stored value.
	SAWCells int
	// Res is the raw device outcome.
	Res pcm.WriteResult
}

// Controller drives the datapath. It is the bottom LineStore of every
// per-shard stack. It is not safe for concurrent use.
type Controller struct {
	cfg      Config
	mlcPlane bool
	aux      []uint64
	// scratch state reused across calls so the steady-state write and
	// read paths perform no heap allocations: the encrypted-line buffer,
	// the word-packing buffer, the per-word outcome array and one coset
	// evaluator rebound (Reset) per word instead of reallocated.
	// words is shared by the write path (packing the encrypted line) and
	// the read path (collecting decoded words); the controller is
	// single-threaded per shard, so the two never overlap.
	lineBuf [cryptmem.LineSize]byte
	words   [WordsPerLine]uint64
	outc    [WordsPerLine]WordOutcome
	ev      coset.Evaluator
	// fast is non-nil when the codec exposes the partition-sliced encode
	// fast path (detected once at construction); sliced is the
	// controller-owned write context it rebinds per word, reused across
	// the eight words of a line and across lines without a heap
	// allocation. The context carries the 32KB energy multiply-accumulate
	// table (etab) as a fixed array, so embedding it by value keeps the
	// whole rebind cycle — the per-word bind, etab reuse across
	// energy-model-stable rebinds — inside one controller-owned
	// allocation made at New.
	fast   coset.FastCodec
	sliced coset.SlicedCtx
	// lineDec is non-nil when the codec exposes the batched decode fast
	// path (detected once at construction): ReadLine then decodes the
	// whole line with one dynamic dispatch instead of eight per-word
	// Decode calls. lefts/rights stage the split planes; for full-word
	// codecs lefts is never written and stays all-zero — the same left
	// value the per-word path passes.
	lineDec coset.LineDecoder
	lefts   [WordsPerLine]uint64
	rights  [WordsPerLine]uint64

	stats Stats
}

var _ LineStore = (*Controller)(nil)

// New builds a controller, validating geometry.
func New(cfg Config) (*Controller, error) {
	if cfg.Device == nil || cfg.Codec == nil {
		return nil, fmt.Errorf("memctrl: device and codec are required")
	}
	nw := cfg.Device.NumWords()
	if nw%WordsPerLine != 0 {
		return nil, fmt.Errorf("memctrl: device words %d not a multiple of %d", nw, WordsPerLine)
	}
	mlcPlane := false
	switch cfg.Codec.PlaneBits() {
	case 64:
	case 32:
		if cfg.Device.Config().Mode != pcm.MLC {
			return nil, fmt.Errorf("memctrl: 32-bit plane codec requires an MLC device")
		}
		mlcPlane = true
	default:
		return nil, fmt.Errorf("memctrl: unsupported codec plane width %d", cfg.Codec.PlaneBits())
	}
	if cfg.Crypt != nil && cfg.Crypt.NumLines() != nw/WordsPerLine {
		return nil, fmt.Errorf("memctrl: crypt unit sized for %d lines, device has %d",
			cfg.Crypt.NumLines(), nw/WordsPerLine)
	}
	c := &Controller{
		cfg:      cfg,
		mlcPlane: mlcPlane,
		aux:      make([]uint64, nw),
	}
	c.fast, _ = cfg.Codec.(coset.FastCodec)
	c.lineDec, _ = cfg.Codec.(coset.LineDecoder)
	return c, nil
}

// NumLines returns the number of cache lines the controller serves.
func (c *Controller) NumLines() int { return c.cfg.Device.NumWords() / WordsPerLine }

// Device returns the underlying device.
func (c *Controller) Device() *pcm.Device { return c.cfg.Device }

// Codec returns the codec in use.
func (c *Controller) Codec() coset.Codec { return c.cfg.Codec }

// Aux returns the stored auxiliary bits for a word (for tests).
func (c *Controller) Aux(word int) uint64 { return c.aux[word] }

// WriteLine processes one 64-byte writeback to the given line index and
// returns per-word outcomes (valid until the next call). The modeled
// device never fails on its own, so the error is always nil here; the
// return exists so fault-injecting decorators (internal/chaos) can
// satisfy the same LineStore contract. Passing a non-64-byte line is a
// programmer error and panics.
func (c *Controller) WriteLine(line int, plaintext []byte) ([]WordOutcome, error) {
	if len(plaintext) != cryptmem.LineSize {
		panic("memctrl: WriteLine needs a 64-byte line")
	}
	data := plaintext
	if c.cfg.Crypt != nil {
		c.cfg.Crypt.EncryptLine(line, c.lineBuf[:], plaintext)
		data = c.lineBuf[:]
	}
	bitutil.BytesToWordsInto(c.words[:], data)
	words := c.words[:]
	dev := c.cfg.Device
	energy := dev.Config().Energy
	mode := dev.Config().Mode
	repo := c.cfg.FaultRepo
	codec := c.cfg.Codec
	// The write context's configuration half (plane geometry, cell mode,
	// energy model) is identical for all eight words of the line; only
	// the stored-state half varies per word. Hoisting the template here
	// pairs with the codec-side line-scoped bind: SlicedCtx fingerprints
	// exactly these fields and skips its word-invariant bind layer when
	// they repeat.
	ctx := coset.Ctx{
		N:        codec.PlaneBits(),
		Mode:     mode,
		MLCPlane: c.mlcPlane,
		Energy:   energy,
	}

	for col, wv := range words {
		w := line*WordsPerLine + col
		oldStored := dev.Read(w)
		var stuckMask, stuckVal uint64
		if repo != nil {
			d, _ := repo.Lookup(w)
			stuckMask, stuckVal = d.StuckMask, d.StuckVal
		} else {
			stuckMask, stuckVal = dev.Stuck(w)
		}
		ctx.OldWord = oldStored
		ctx.StuckMask = stuckMask
		ctx.StuckVal = stuckVal
		ctx.OldAux = c.aux[w]
		ctx.NewLeft = 0
		var plane uint64
		if c.mlcPlane {
			var right uint64
			ctx.NewLeft, right = bitutil.SplitPlanes(wv)
			plane = right
		} else {
			plane = wv
		}
		c.ev.Reset(ctx, c.cfg.Objective)
		var enc, aux uint64
		if c.fast != nil {
			enc, aux = c.fast.EncodeSliced(plane, &c.ev, &c.sliced)
		} else {
			enc, aux = codec.Encode(plane, &c.ev)
		}

		var desired uint64
		if c.mlcPlane {
			desired = bitutil.MergePlanes(ctx.NewLeft, enc)
		} else {
			desired = enc
		}
		res := dev.Write(w, desired)
		if repo != nil {
			repo.RecordVerify(w, desired, res.Stored)
		}
		auxE := energy.AuxBitsEnergy(mode, c.aux[w], aux, codec.AuxBits())
		c.aux[w] = aux

		c.stats.EnergyPJ += res.EnergyPJ + auxE
		c.stats.AuxEnergyPJ += auxE
		c.stats.BitFlips += int64(res.BitFlips)
		c.stats.CellChanges += int64(res.CellChanges)
		c.stats.SAWCells += int64(res.SAWCells)
		if res.SAWCells > 0 {
			c.stats.SAWWords++
		}
		c.stats.NewlyFailedCells += int64(res.NewlyFailed)
		c.outc[col] = WordOutcome{Word: w, SAWCells: res.SAWCells, Res: res}
	}
	c.stats.LineWrites++
	return c.outc[:], nil
}

// ReadLine reads the line back through decode and decryption into dst
// (64 bytes, allocated if nil). If any cell of the line is stuck at a
// wrong value the plaintext will be correspondingly corrupted — exactly
// the failure the protection schemes try to avoid. The error is always
// nil for the concrete controller (see WriteLine); a non-64-byte dst
// panics as a programmer-error contract.
func (c *Controller) ReadLine(line int, dst []byte) ([]byte, error) {
	if dst == nil {
		dst = make([]byte, cryptmem.LineSize)
	}
	if len(dst) != cryptmem.LineSize {
		panic("memctrl: ReadLine needs a 64-byte buffer")
	}
	dev := c.cfg.Device
	base := line * WordsPerLine
	if c.lineDec != nil {
		// Batched decode fast path: the aux words of a line are stored
		// contiguously, so the whole line decodes with one dispatch.
		// For full-word codecs c.lefts is never written and stays
		// all-zero — the same left value the per-word path passes.
		auxs := c.aux[base : base+WordsPerLine]
		if c.mlcPlane {
			for col := 0; col < WordsPerLine; col++ {
				c.lefts[col], c.rights[col] = bitutil.SplitPlanes(dev.Read(base + col))
			}
			c.lineDec.DecodeWords(c.rights[:], auxs, c.lefts[:], c.words[:])
			for col := 0; col < WordsPerLine; col++ {
				c.words[col] = bitutil.MergePlanes(c.lefts[col], c.words[col])
			}
		} else {
			for col := 0; col < WordsPerLine; col++ {
				c.rights[col] = dev.Read(base + col)
			}
			c.lineDec.DecodeWords(c.rights[:], auxs, c.lefts[:], c.words[:])
		}
	} else {
		for col := 0; col < WordsPerLine; col++ {
			w := base + col
			stored := dev.Read(w)
			if c.mlcPlane {
				left, right := bitutil.SplitPlanes(stored)
				plane := c.cfg.Codec.Decode(right, c.aux[w], left)
				c.words[col] = bitutil.MergePlanes(left, plane)
			} else {
				c.words[col] = c.cfg.Codec.Decode(stored, c.aux[w], 0)
			}
		}
	}
	bitutil.WordsToBytesInto(dst, c.words[:])
	if c.cfg.Crypt != nil {
		c.cfg.Crypt.DecryptLine(line, c.cfg.Crypt.Counter(line), dst, dst)
	}
	c.stats.LineReads++
	c.stats.WordsDecoded += WordsPerLine
	return dst, nil
}

// Flush implements LineStore; the controller writes through, so there is
// nothing to flush.
func (c *Controller) Flush() error { return nil }

// Stats returns the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the accumulated statistics.
func (c *Controller) ResetStats() { c.stats = Stats{} }
