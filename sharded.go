package vcc

import (
	"repro/internal/coset"
	"repro/internal/faultrepo"
	"repro/internal/linecache"
	"repro/internal/memctrl"
	"repro/internal/shard"
)

// FaultRepoStats counts runtime fault-repository traffic: lookups, hits
// and misses of the descriptor cache, and stuck cells discovered by
// verify-after-write (see ShardedMemoryConfig.UseFaultRepo).
type FaultRepoStats = faultrepo.Stats

// Op is one element of a mixed read/write stream for Apply.
type Op = shard.Op

// Outcome is the per-op result of Apply.
type Outcome = shard.Outcome

// Op kinds for Op.Kind.
const (
	// OpWrite stores a 64-byte line.
	OpWrite = shard.OpWrite
	// OpRead retrieves a 64-byte line.
	OpRead = shard.OpRead
)

// Ticket tracks one asynchronous Submit until completion; Wait blocks
// for the outcomes and recycles the ticket (see Session).
type Ticket = shard.Ticket

// Session is an asynchronous submission handle over a ShardedMemory's
// per-shard issue queues (see ShardedMemory.Session).
type Session = shard.Session

// ErrClosed is returned by Submit — and by Apply, Write and Read, which
// are wrappers over it — once the memory has been Closed.
var ErrClosed = shard.ErrClosed

// CachePolicy selects how the optional decoded-line cache handles
// writes (see ShardedMemoryConfig.CacheLines).
type CachePolicy = linecache.Policy

// ChaosSpec carries the fault-injection rates of the deterministic
// chaos decorator (see ShardedMemoryConfig.Chaos and internal/chaos
// for the fault taxonomy).
type ChaosSpec = shard.ChaosSpec

// IsDeviceError reports whether err is a typed transient device error
// surfaced by the engine (retryable: the op may succeed if reissued).
func IsDeviceError(err error) bool { return memctrl.IsTransient(err) }

// Cache write policies.
const (
	// WriteThrough sends every write to the device immediately; cache
	// hits only skip decode+decrypt on reads. Device state is
	// bit-identical to running uncached.
	WriteThrough = linecache.WriteThrough
	// WriteBack defers the device write (encode+encrypt+RMW) until
	// eviction or Flush, coalescing repeated writes to hot lines into
	// one device writeback.
	WriteBack = linecache.WriteBack
)

// ShardedMemoryConfig assembles a simulated encrypted PCM main memory.
type ShardedMemoryConfig struct {
	// Lines is the total capacity in 64-byte cache lines.
	Lines int
	// Shards partitions the line address space (round-robin interleave)
	// across this many independent pipelines, each with its own device,
	// controller, encryption unit and derived PRNG streams. 0 defaults
	// to 1.
	Shards int
	// QueueDepth bounds each shard's issue queue: at most this many
	// in-flight tickets may be queued per shard before Submit (and the
	// synchronous wrappers) block — the async path's backpressure bound.
	// 0 defaults to shard.DefaultQueueDepth.
	QueueDepth int
	// NewEncoder builds one encoder per shard; defaults to
	// NewVCCEncoder(256). A factory rather than an instance because
	// codecs may carry scratch state and must not be shared across
	// concurrently-running shards.
	NewEncoder func() Encoder
	// Objective drives candidate selection; the zero value is OptFlips
	// (classic write reduction). The paper's headline results use
	// OptEnergy or OptSAW — set one explicitly to reproduce them.
	Objective Objective
	// SLC selects single-level cells (default is the paper's 2-bit MLC).
	SLC bool
	// DisableEncryption bypasses the AES-CTR unit (ablations only; the
	// paper's threat model requires encryption).
	DisableEncryption bool
	// Key is the AES-256 key for the encryption units.
	Key [32]byte
	// FaultRate pre-generates per-shard stuck-at fault maps at this
	// per-cell rate (the paper's snapshot experiments use 1e-2). 0
	// disables.
	FaultRate float64
	// EnduranceWrites enables wear tracking with this mean cell lifetime
	// in energy-weighted wear units (see pcm.Wear), drawn per cell with
	// the paper's coefficient of variation 0.2. 0 disables.
	EnduranceWrites float64
	// Seed is the master seed; shards derive decorrelated child seeds
	// from it (the single-shard configuration uses it directly).
	Seed uint64
	// CacheLines, when positive, fronts every shard's controller with a
	// per-shard LRU cache of that many decoded 64-byte plaintext lines
	// (internal/linecache): read hits skip the decode+decrypt pipeline
	// entirely. 0 disables caching, leaving the engine bit-identical to
	// previous behavior.
	CacheLines int
	// CachePolicy selects WriteThrough (default) or WriteBack for the
	// per-shard caches; meaningful only with CacheLines > 0. WriteBack
	// defers device writebacks until eviction, Flush or Close.
	CachePolicy CachePolicy
	// RemapSpares, when positive, reserves that many spare physical
	// lines per shard and layers a fault-repair remapping decorator over
	// each shard's controller: a write that still stores stuck-at-wrong
	// cells after coset encoding relocates its logical line to a spare
	// row and is rewritten there. Logical capacity stays Lines; spares
	// are extra physical rows. 0 disables repair.
	RemapSpares int
	// UseFaultRepo replaces the encoders' oracle view of stuck cells
	// with a runtime fault repository per shard: only cells previously
	// caught by verify-after-write are masked, and every write's verify
	// outcome feeds the repository. It also informs spare selection when
	// RemapSpares > 0. Each repository caches the descriptors of 256
	// words.
	UseFaultRepo bool
	// Chaos, when non-nil, installs a deterministic fault-injecting
	// decorator at the top of every shard's pipeline: transient
	// read/write errors, torn writes, corrupted reads and latency
	// stalls at the configured rates, seeded per shard from the master
	// seed. Faulted ops are retried in place up to OpRetries times and
	// then surface typed errors (see Outcome.Err, IsDeviceError). A
	// spec with all rates zero installs an inert decorator that changes
	// nothing — bit-identical results, no allocations.
	Chaos *ChaosSpec
	// OpRetries bounds the engine's in-place retries of a
	// transiently-faulted op before its error surfaces. 0 defaults to
	// shard.DefaultOpRetries (2); negative disables retries.
	OpRetries int
}

// ShardedMemory is an encrypted, coset-encoded, fault- and wear-aware
// simulated PCM main memory addressed in cache lines. The line address
// space is interleaved across independent shards and every request
// flows through bounded per-shard issue queues — asynchronously via
// Session.Submit, or synchronously via the Apply/Write/Read wrappers
// over the same path. All methods are safe for concurrent use.
//
// With Shards == 1 every result — cells, energy, SAW counts, Stats —
// is bit-identical to driving the shard's pipeline op by op on one
// goroutine, so sequential experiments stay valid on this engine; and
// at any shard count, results are bit-identical at any async in-flight
// depth.
type ShardedMemory struct {
	eng *shard.Engine
}

// NewShardedMemory builds a ShardedMemory from cfg.
func NewShardedMemory(cfg ShardedMemoryConfig) (*ShardedMemory, error) {
	newEnc := cfg.NewEncoder
	if newEnc == nil {
		newEnc = func() Encoder { return NewVCCEncoder(256) }
	}
	eng, err := shard.New(shard.Config{
		Lines:             cfg.Lines,
		Shards:            cfg.Shards,
		QueueDepth:        cfg.QueueDepth,
		NewCodec:          func() coset.Codec { return newEnc() },
		Objective:         cfg.Objective,
		SLC:               cfg.SLC,
		DisableEncryption: cfg.DisableEncryption,
		Key:               cfg.Key,
		FaultRate:         cfg.FaultRate,
		EnduranceWrites:   cfg.EnduranceWrites,
		Seed:              cfg.Seed,
		CacheLines:        cfg.CacheLines,
		CachePolicy:       cfg.CachePolicy,
		RemapSpares:       cfg.RemapSpares,
		UseFaultRepo:      cfg.UseFaultRepo,
		Chaos:             cfg.Chaos,
		OpRetries:         cfg.OpRetries,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedMemory{eng: eng}, nil
}

// Lines returns the total capacity in cache lines.
func (m *ShardedMemory) Lines() int { return m.eng.Lines() }

// Shards returns the shard count.
func (m *ShardedMemory) Shards() int { return m.eng.Shards() }

// Write stores a 64-byte cache line at the given line index through the
// full encrypt-encode-program pipeline. It returns the number of
// stuck-at-wrong cells the write could not avoid (0 means the line is
// stored faithfully).
func (m *ShardedMemory) Write(line int, data []byte) (sawCells int, err error) {
	return m.eng.Write(line, data)
}

// Read retrieves a cache line through decode and decryption into dst
// (allocated when nil). Data stored over stuck-at-wrong cells reads back
// corrupted, exactly as it would from the physical device.
func (m *ShardedMemory) Read(line int, dst []byte) ([]byte, error) {
	return m.eng.Read(line, dst)
}

// Apply executes a mixed stream of reads and writes over the per-shard
// issue queues and returns one Outcome per op, indexed like ops. It is
// Submit+Wait — the synchronous view of the async path (see Session).
// Ops addressed to the same shard apply in slice order — reads and
// writes interleave exactly as submitted — so results are deterministic
// at any shard count or in-flight-ticket depth. Passing the previous
// call's outcome slice back as out makes steady-state dispatch
// allocation-free; read outcomes alias the op's Data buffer when one is
// provided. After Close it returns ErrClosed.
func (m *ShardedMemory) Apply(ops []Op, out []Outcome) ([]Outcome, error) {
	return m.eng.Apply(ops, out)
}

// Session returns an asynchronous submission handle over the memory's
// issue queues. Session.Submit enqueues a mixed op batch and returns a
// Ticket immediately, so one producer can keep several batches in
// flight and overlap op-stream generation with encoding across shards;
// Ticket.Wait blocks for the outcomes. Session.SubmitFunc is the
// completion-callback form, and Session.Drain blocks until everything
// submitted through the session has completed.
//
// Ordering and determinism match Apply exactly: per-shard submission
// order, bit-identical outcomes and statistics at any in-flight depth.
// Backpressure is ShardedMemoryConfig.QueueDepth tickets per shard.
// Multiple sessions may share one memory.
func (m *ShardedMemory) Session() *Session { return m.eng.NewSession() }

// Flush forces deferred writes (dirty write-back cache lines) down to
// the devices. It is a no-op without a cache, under WriteThrough, or
// after Close; with WriteBack the device state only reflects every
// submitted write after a Flush (or Close). Safe for concurrent use: it
// rides the issue queues as a barrier, covering everything submitted
// before it. On a device error during writeback the first failing
// shard's error is returned; affected lines stay dirty and a later
// Flush retries them.
func (m *ShardedMemory) Flush() error { return m.eng.Flush() }

// Close drains in-flight tickets, flushes deferred writes, and shuts
// down the issue queues. It is idempotent and safe for concurrent use.
// After Close, Submit and every wrapper over it (Apply, Write, Read)
// return ErrClosed; Stats, ShardStats and StuckCells keep working.
// Memories that live for the whole process need not be closed;
// write-back cached ones must be Flushed or Closed before their final
// statistics are read.
func (m *ShardedMemory) Close() { m.eng.Close() }

// Stats returns exact statistics merged across all shards.
func (m *ShardedMemory) Stats() Stats {
	return statsOf(m.eng.Stats(), m.eng.FailedCells())
}

// ShardStats returns the statistics of one shard, for load-balance
// inspection. Summed over every shard with Stats.Add, they equal Stats.
func (m *ShardedMemory) ShardStats(s int) Stats {
	return statsOf(m.eng.ShardStats(s), m.eng.ShardFailedCells(s))
}

// ResetStats clears accumulated statistics (device state is untouched).
func (m *ShardedMemory) ResetStats() { m.eng.ResetStats() }

// StuckCells returns the current number of permanently stuck cells
// across all shards.
func (m *ShardedMemory) StuckCells() int { return m.eng.StuckCells() }

// DropCaches simulates losing the volatile decoded-line caches (a power
// cut): dirty write-back lines are discarded without reaching the
// devices, and subsequent reads observe whatever the persistent cells
// last stored. A no-op without a cache or under WriteThrough. Like
// Flush it rides the issue queues as a barrier.
func (m *ShardedMemory) DropCaches() { m.eng.DropCaches() }

// DirtyLines returns the sorted global line indices currently dirty in
// the write-back caches — exactly the writes DropCaches would lose.
// Empty on uncached and write-through memories.
func (m *ShardedMemory) DirtyLines() []int { return m.eng.DirtyLines() }

// FaultRepoStats sums runtime fault-repository traffic across shards
// (all zero unless UseFaultRepo was set).
func (m *ShardedMemory) FaultRepoStats() FaultRepoStats { return m.eng.FaultRepoStats() }

// SpareLinesLeft returns the unused repair spare lines across shards
// (zero unless RemapSpares was set).
func (m *ShardedMemory) SpareLinesLeft() int { return m.eng.SpareLinesLeft() }
