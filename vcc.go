// Package vcc is the public facade of the Virtual Coset Coding
// reproduction (Longofono, Seyedzadeh, Jones — "Virtual Coset Coding for
// Encrypted Non-Volatile Memories with Multi-Level Cells", HPCA 2022).
//
// It exposes, behind one import, the pieces a downstream user needs:
//
//   - Encoders: NewVCCEncoder (the paper's contribution), plus the RCC,
//     Flip-N-Write/DBI and Flipcy baselines, all selecting candidates
//     under pluggable cost objectives (bit flips, MLC write energy,
//     stuck-at-wrong masking).
//   - ShardedMemory: a simulated encrypted MLC/SLC PCM main memory —
//     AES-CTR encryption unit, coset encoder, fault injection,
//     endurance — with cache-line Read/Write, mixed Apply batches and
//     detailed energy/wear statistics. It is safe for concurrent use:
//     the line address space can be interleaved across independent
//     shards, and every request, synchronous or through the
//     asynchronous Session/Submit/Ticket path, flows through bounded
//     per-shard issue queues.
//   - The experiment registry regenerating every table and figure of the
//     paper (see cmd/vccrepro and EXPERIMENTS.md).
//
// Quick start (see examples/quickstart for the runnable version):
//
//	mem, _ := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
//		Lines:      1024,
//		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
//		Objective:  vcc.OptEnergy,
//		Seed:       42,
//	})
//	defer mem.Close()
//	mem.Write(7, line)          // encrypts, encodes, programs cells
//	data, _ := mem.Read(7, nil) // decodes, decrypts
//	fmt.Println(mem.Stats().EnergyPJ)
package vcc

import (
	"repro/internal/coset"
	"repro/internal/cryptmem"
	"repro/internal/memctrl"
)

// LineSize is the cache-line granularity of memory I/O, in bytes.
const LineSize = cryptmem.LineSize

// Objective selects what the encoder minimizes. OptEnergy and OptSAW are
// the paper's two lexicographic orderings (Section VI-A); OptFlips is
// the classic write-reduction objective.
type Objective = coset.Objective

// Objective values.
const (
	OptFlips  = coset.ObjFlips
	OptOnes   = coset.ObjOnes
	OptEnergy = coset.ObjEnergySAW
	OptSAW    = coset.ObjSAWEnergy
)

// Encoder is a coset codec over 64-bit blocks (or their 32-bit MLC
// right-digit planes). Implementations are provided by the constructors
// below; the interface is re-exported for custom pipelines.
type Encoder = coset.Codec

// NewVCCEncoder returns the paper's headline configuration: full-word
// VCC(64, n, n/16) with 16-bit stored kernels. n must be a multiple of
// 16 virtual cosets (the paper evaluates 32-256).
func NewVCCEncoder(numVirtualCosets int) Encoder {
	return coset.NewVCCStored(64, 16, numVirtualCosets, 0x5CC)
}

// NewVCCGeneratedEncoder returns the security-preserving MLC variant of
// Section IV-B: the 32-bit right-digit plane is encoded with Algorithm 2
// kernels generated at run time from the block's left digits, so no
// kernel material is stored anywhere.
func NewVCCGeneratedEncoder(numVirtualCosets int) Encoder {
	return coset.NewVCCGenerated(16, numVirtualCosets)
}

// NewRCCEncoder returns classic random coset coding with n stored
// cosets — the quality ceiling VCC approximates (n a power of two).
func NewRCCEncoder(numCosets int) Encoder {
	return coset.NewRCC(64, numCosets, 0xACC)
}

// NewFNWEncoder returns Flip-N-Write / DBI at k-bit granularity.
func NewFNWEncoder(k int) Encoder { return coset.NewFNW(64, k) }

// NewFlipcyEncoder returns the Flipcy baseline.
func NewFlipcyEncoder() Encoder { return coset.NewFlipcy(64) }

// NewUnencoded returns the identity (unencoded) baseline.
func NewUnencoded() Encoder { return coset.NewIdentity(64) }

// Stats reports accumulated access-path statistics.
type Stats struct {
	// LineWrites is the number of Write calls served.
	LineWrites int64
	// LineReads is the number of Read calls served (each runs the full
	// decode + decrypt pipeline).
	LineReads int64
	// EnergyPJ is the total write energy, including auxiliary bits.
	EnergyPJ float64
	// BitFlips counts logical bit transitions programmed.
	BitFlips int64
	// CellChanges counts physical cell state changes.
	CellChanges int64
	// SAWCells counts stuck-at-wrong cells over all writes (data that
	// could not be stored faithfully).
	SAWCells int64
	// FailedCells is the number of cells whose endurance is exhausted.
	FailedCells int64
	// CacheHits counts reads served from the decoded-line cache without
	// running decode+decrypt (always 0 without a cache; see
	// ShardedMemoryConfig.CacheLines).
	CacheHits int64
	// CacheMisses counts cached reads that fell through to the device
	// pipeline.
	CacheMisses int64
	// CacheEvictions counts lines evicted from the decoded-line cache —
	// the capacity-pressure signal for sizing CacheLines.
	CacheEvictions int64
	// Writebacks counts deferred device writebacks issued by the
	// write-back cache policy on eviction or Flush.
	Writebacks int64
	// CoalescedWrites counts writes absorbed into an already-dirty
	// cached line — device writebacks the write-back policy eliminated.
	CoalescedWrites int64
	// RemappedLines counts repair relocations performed by the remapping
	// decorator (ShardedMemoryConfig.RemapSpares): write-verify failures
	// moved onto spare physical lines.
	RemappedLines int64
	// RepairFailures counts writes left stuck-at-wrong because the spare
	// pool was exhausted.
	RepairFailures int64
	// DeviceErrors counts transient device faults surfaced by the stack
	// (injected by the chaos decorator; see ShardedMemoryConfig.Chaos).
	DeviceErrors int64
	// ErrorRetries counts in-engine retries of transiently-faulted ops
	// before they succeeded or surfaced an error.
	ErrorRetries int64
}

// Add folds o into s field-wise. Together with Delta it supports
// interval accounting over a shared engine: take a snapshot, keep
// serving, and attribute the difference — without ResetStats, which
// would clobber every other observer's baseline.
func (s *Stats) Add(o Stats) {
	s.LineWrites += o.LineWrites
	s.LineReads += o.LineReads
	s.EnergyPJ += o.EnergyPJ
	s.BitFlips += o.BitFlips
	s.CellChanges += o.CellChanges
	s.SAWCells += o.SAWCells
	s.FailedCells += o.FailedCells
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

// Delta returns s - o field-wise: the statistics accumulated between
// two snapshots. It is the tenant-scoped (or any interval-scoped) view
// of a shared engine: multiple observers can each difference their own
// snapshots concurrently, where a ResetStats-based scheme would race.
func (s Stats) Delta(o Stats) Stats {
	return Stats{
		LineWrites:      s.LineWrites - o.LineWrites,
		LineReads:       s.LineReads - o.LineReads,
		EnergyPJ:        s.EnergyPJ - o.EnergyPJ,
		BitFlips:        s.BitFlips - o.BitFlips,
		CellChanges:     s.CellChanges - o.CellChanges,
		SAWCells:        s.SAWCells - o.SAWCells,
		FailedCells:     s.FailedCells - o.FailedCells,
		CacheHits:       s.CacheHits - o.CacheHits,
		CacheMisses:     s.CacheMisses - o.CacheMisses,
		CacheEvictions:  s.CacheEvictions - o.CacheEvictions,
		Writebacks:      s.Writebacks - o.Writebacks,
		CoalescedWrites: s.CoalescedWrites - o.CoalescedWrites,
		RemappedLines:   s.RemappedLines - o.RemappedLines,
		RepairFailures:  s.RepairFailures - o.RepairFailures,
		DeviceErrors:    s.DeviceErrors - o.DeviceErrors,
		ErrorRetries:    s.ErrorRetries - o.ErrorRetries,
	}
}

// statsOf converts store-stack statistics plus a failed-cell count into
// the public Stats.
func statsOf(s memctrl.Stats, failedCells int64) Stats {
	return Stats{
		LineWrites:      s.LineWrites,
		LineReads:       s.LineReads,
		EnergyPJ:        s.EnergyPJ,
		BitFlips:        s.BitFlips,
		CellChanges:     s.CellChanges,
		SAWCells:        s.SAWCells,
		FailedCells:     failedCells,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		CacheEvictions:  s.CacheEvictions,
		Writebacks:      s.Writebacks,
		CoalescedWrites: s.CoalescedWrites,
		RemappedLines:   s.RemappedLines,
		RepairFailures:  s.RepairFailures,
		DeviceErrors:    s.DeviceErrors,
		ErrorRetries:    s.ErrorRetries,
	}
}
