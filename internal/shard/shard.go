// Package shard implements the concurrent sharded memory engine behind
// vcc.ShardedMemory: the line address space is interleaved across N
// independent shards, each owning a complete single-threaded write
// pipeline — its own pcm.Device, cryptmem.Unit, memctrl.Controller,
// coset codec instance and PRNG streams derived from the master seed —
// so shards share no mutable state whatsoever.
//
// Each shard's pipeline is assembled as a memctrl.LineStore stack: the
// controller at the bottom, optionally decorated by a per-shard
// decoded-line cache (internal/linecache) when the configuration asks
// for one. The engine dispatches every operation against the top of the
// stack, so enabling the cache changes no dispatch code anywhere — and
// with the cache disabled the stack is exactly the bare controller,
// bit-identical to the pre-cache engine.
//
// Requests flow through per-shard bounded issue queues (async.go):
// Submit groups a batch's ops by shard, enqueues one entry per touched
// shard and returns a Ticket immediately; a dedicated drainer goroutine
// per shard applies entries FIFO, so op-stream generation overlaps
// encoding across shards. Apply and the single-op Write/Read are
// synchronous Submit+Wait wrappers — every caller funnels through the
// one asynchronous path. Three consequences matter:
//
//   - A shard is only ever touched by its own drainer (plus a per-shard
//     mutex excluding snapshot readers), so no locks are needed inside
//     the pipeline. A one-shard engine therefore runs exactly the
//     Backend that NewBackend builds from the same configuration: same
//     seed → same cells, energy, SAW counts, as if that Backend were
//     driven directly, op by op, on the caller's goroutine.
//   - Results are deterministic regardless of scheduling: each shard's
//     device evolves only under its own FIFO request stream, so
//     (config, seed, request sequence) fully determines every statistic
//     and outcome, at any shard count or in-flight-ticket depth.
//   - Backpressure is structural: a shard's queue holds at most
//     QueueDepth tickets, so a fast producer blocks in Submit instead
//     of growing unbounded in-flight state.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/coset"
	"repro/internal/cryptmem"
	"repro/internal/faultrepo"
	"repro/internal/linecache"
	"repro/internal/memctrl"
	"repro/internal/pcm"
	"repro/internal/prng"
)

// LineSize is the cache-line granularity of engine I/O, in bytes.
const LineSize = cryptmem.LineSize

// Partition maps the global line address space onto shards by
// round-robin interleaving: global line g lives in shard g % Shards at
// local index g / Shards. Interleaving (rather than contiguous blocks)
// spreads streaming writers across all shards, which is what makes the
// throughput benchmarks scale on sequential traces.
type Partition struct {
	// Shards is the number of shards (>= 1).
	Shards int
	// Lines is the total number of cache lines across all shards.
	Lines int
}

// ShardOf returns the shard owning global line g.
func (p Partition) ShardOf(g int) int { return g % p.Shards }

// LocalOf returns g's line index within its owning shard.
func (p Partition) LocalOf(g int) int { return g / p.Shards }

// GlobalOf inverts (ShardOf, LocalOf).
func (p Partition) GlobalOf(shard, local int) int { return local*p.Shards + shard }

// ShardLines returns the number of lines owned by shard s.
func (p Partition) ShardLines(s int) int {
	if s >= p.Lines {
		return 0
	}
	return (p.Lines - s + p.Shards - 1) / p.Shards
}

// BackendConfig assembles one shard's pipeline. The engine builds every
// shard through it, which is what makes a Backend driven directly the
// exact sequential reference of a one-shard engine.
type BackendConfig struct {
	// Lines is the shard capacity in 64-byte cache lines.
	Lines int
	// Codec encodes each block. It must be owned exclusively by this
	// backend: codec implementations may carry scratch state (e.g.
	// generated-kernel buffers) and are not safe to share across shards.
	Codec coset.Codec
	// Objective drives candidate selection.
	Objective coset.Objective
	// SLC selects single-level cells (default 2-bit MLC).
	SLC bool
	// DisableEncryption bypasses the AES-CTR unit.
	DisableEncryption bool
	// Key is the AES-256 key for the encryption unit.
	Key [32]byte
	// FaultRate pre-generates a stuck-at fault map at this per-cell rate.
	FaultRate float64
	// EnduranceWrites enables wear tracking with this mean cell lifetime,
	// drawn per cell with the paper's coefficient of variation 0.2.
	EnduranceWrites float64
	// Seed drives all stochastic initialization of this shard.
	Seed uint64
	// CacheLines, when positive, fronts the controller with a
	// decoded-line LRU cache of that many 64-byte lines
	// (internal/linecache). 0 leaves the stack as the bare controller.
	CacheLines int
	// CachePolicy selects the cache's write policy (write-through by
	// default); meaningful only with CacheLines > 0.
	CachePolicy linecache.Policy
	// RemapSpares, when positive, reserves that many extra physical
	// lines (beyond Lines) as spare rows and layers a fault-repair
	// remapping decorator (memctrl.Remapper) over the controller: a
	// write-verify failure relocates the logical line to a spare and
	// rewrites it there. 0 disables repair; the logical capacity is
	// Lines either way.
	RemapSpares int
	// UseFaultRepo replaces the encoder's oracle fault view with a
	// runtime fault repository (internal/faultrepo): the controller only
	// knows about stuck cells previously observed by verify-after-write,
	// and feeds every write's outcome back in. The repository also
	// informs spare selection when RemapSpares > 0. The repository
	// caches the descriptors of 256 words.
	UseFaultRepo bool
	// Chaos, when non-nil, installs a deterministic fault-injecting
	// decorator (internal/chaos) at the top of this shard's stack,
	// seeded from the shard seed. A spec with all rates zero still
	// installs the (inert) decorator — useful for proving the healthy
	// path costs nothing.
	Chaos *ChaosSpec
	// OpRetries bounds the backend's in-place retries of an op that
	// failed with a transient device error before the error surfaces in
	// its Outcome. 0 defaults to DefaultOpRetries; negative disables
	// retries.
	OpRetries int
}

// ChaosSpec carries the fault-injection rates of the chaos decorator
// without its assembly details (the inner store and seed are supplied
// by the backend). See internal/chaos for the fault taxonomy.
type ChaosSpec struct {
	// ReadErrRate is the transient read-error probability per read.
	ReadErrRate float64
	// WriteErrRate is the transient write-error probability per write.
	WriteErrRate float64
	// TornWriteRate is the torn-write probability per write (corrupted
	// image stored, typed error returned).
	TornWriteRate float64
	// ReadCorruptRate is the corrupted-read probability per read
	// (bit-flipped data returned alongside a typed error).
	ReadCorruptRate float64
	// StallRate is the latency-stall probability per op.
	StallRate float64
	// StallDelay is the stall duration (default 100µs).
	StallDelay time.Duration
}

// DefaultOpRetries is the bounded in-place retry budget a backend
// spends on a transiently-faulted op before surfacing the error.
const DefaultOpRetries = 2

// Backend is one shard's fully-assembled pipeline, a LineStore stack.
// It is not safe for concurrent use; the Engine serializes access per
// shard.
type Backend struct {
	// Store is the top of the stack — the cache when one is configured,
	// then the remapping decorator, then the controller. All I/O
	// dispatches through it.
	Store memctrl.LineStore
	// Ctrl is the bottom of the stack, the controller that owns the
	// device datapath.
	Ctrl *memctrl.Controller
	Dev  *pcm.Device
	// Remap is the fault-repair remapping decorator (nil when
	// RemapSpares was 0).
	Remap *memctrl.Remapper
	// Repo is the runtime fault repository (nil when UseFaultRepo was
	// false).
	Repo *faultrepo.Repo
	// Cache is the decoded-line cache at the top of the stack (nil when
	// CacheLines was 0).
	Cache *linecache.Cache
	// Chaos is the fault-injecting decorator at the very top of the
	// stack (nil when no ChaosSpec was configured).
	Chaos *chaos.Store
	// opRetries is the bounded in-place retry budget for transiently
	// faulted ops; errorRetries counts retries actually spent. Both are
	// only touched by the owning shard's drainer (or under its lock).
	opRetries    int
	errorRetries int64
}

// NewBackend builds one pipeline from cfg. Its cells, faults and
// endurance draws come from fixed PRNG stream labels under cfg.Seed, so
// equal configurations initialize identical devices.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.Lines <= 0 {
		return nil, fmt.Errorf("shard: Lines must be positive, got %d", cfg.Lines)
	}
	if cfg.Codec == nil {
		return nil, fmt.Errorf("shard: Codec is required")
	}
	mode := pcm.MLC
	if cfg.SLC {
		mode = pcm.SLC
	}
	if cfg.RemapSpares < 0 {
		return nil, fmt.Errorf("shard: RemapSpares must be >= 0, got %d", cfg.RemapSpares)
	}
	// Spare rows for the remapping decorator are physical capacity beyond
	// the logical Lines; faults, wear and encryption cover them too.
	physLines := cfg.Lines + cfg.RemapSpares
	words := physLines * memctrl.WordsPerLine
	var faults *pcm.FaultMap
	if cfg.FaultRate > 0 {
		faults = pcm.Generate(mode, words, pcm.FaultParams{CellRate: cfg.FaultRate},
			prng.NewFrom(cfg.Seed, "vcc-faults"))
	}
	var wear *pcm.Wear
	if cfg.EnduranceWrites > 0 {
		wear = pcm.NewWear(words*mode.CellsPerWord(),
			pcm.WearParams{MeanWrites: cfg.EnduranceWrites, CoV: 0.2},
			prng.NewFrom(cfg.Seed, "vcc-endurance"))
	}
	dev := pcm.NewDevice(pcm.Config{
		Mode: mode, Rows: physLines, WordsPerRow: memctrl.WordsPerLine,
		Faults: faults, Wear: wear,
	})
	dev.InitRandom(prng.NewFrom(cfg.Seed, "vcc-init"))

	mcfg := memctrl.Config{Device: dev, Codec: cfg.Codec, Objective: cfg.Objective}
	if !cfg.DisableEncryption {
		crypt, err := cryptmem.New(cfg.Key, physLines)
		if err != nil {
			return nil, err
		}
		mcfg.Crypt = crypt
	}
	var repo *faultrepo.Repo
	if cfg.UseFaultRepo {
		repo = faultrepo.New(mode, 256)
		mcfg.FaultRepo = repo
	}
	ctrl, err := memctrl.New(mcfg)
	if err != nil {
		return nil, err
	}
	b := &Backend{Store: ctrl, Ctrl: ctrl, Dev: dev, Repo: repo}
	if cfg.RemapSpares > 0 {
		remap, err := memctrl.NewRemapper(memctrl.RemapConfig{
			Inner:  ctrl,
			Spares: cfg.RemapSpares,
			Repo:   repo,
		})
		if err != nil {
			return nil, err
		}
		b.Remap = remap
		b.Store = remap
	}
	if cfg.CacheLines > 0 {
		cache, err := linecache.New(linecache.Config{
			Inner:  b.Store,
			Lines:  cfg.CacheLines,
			Policy: cfg.CachePolicy,
		})
		if err != nil {
			return nil, err
		}
		b.Cache = cache
		b.Store = cache
	}
	if cfg.Chaos != nil {
		// Top of the stack: injected faults are visible to the backend's
		// retry (and past it, to clients) regardless of cache state, and
		// deferred cache writebacks below are never re-faulted.
		cs, err := chaos.New(chaos.Config{
			Inner:           b.Store,
			Seed:            cfg.Seed,
			ReadErrRate:     cfg.Chaos.ReadErrRate,
			WriteErrRate:    cfg.Chaos.WriteErrRate,
			TornWriteRate:   cfg.Chaos.TornWriteRate,
			ReadCorruptRate: cfg.Chaos.ReadCorruptRate,
			StallRate:       cfg.Chaos.StallRate,
			StallDelay:      cfg.Chaos.StallDelay,
		})
		if err != nil {
			return nil, err
		}
		b.Chaos = cs
		b.Store = cs
	}
	b.opRetries = cfg.OpRetries
	if b.opRetries == 0 {
		b.opRetries = DefaultOpRetries
	} else if b.opRetries < 0 {
		b.opRetries = 0
	}
	return b, nil
}

// WriteLine writes one line at a shard-local index and returns the
// stuck-at-wrong cell count of the stored result. Under a write-back
// cache a deferred write returns 0: its SAW cells materialize on
// eviction or Flush and are visible through Stats only.
//
// A transient device fault is retried in place up to the configured
// OpRetries budget — a retry re-runs the whole store-stack write, so
// the line is re-encoded against current device state (the same
// informed-retry discipline the Remapper uses for SAW failures). The
// error surfaces only once the budget is spent.
func (b *Backend) WriteLine(local int, data []byte) (int, error) {
	outs, err := b.Store.WriteLine(local, data)
	for attempt := 0; err != nil && memctrl.IsTransient(err) && attempt < b.opRetries; attempt++ {
		b.errorRetries++
		outs, err = b.Store.WriteLine(local, data)
	}
	if err != nil {
		return 0, err
	}
	saw := 0
	for _, o := range outs {
		saw += o.SAWCells
	}
	return saw, nil
}

// ReadLine reads one line at a shard-local index into dst (allocated
// when nil), with the same bounded in-place retry as WriteLine.
func (b *Backend) ReadLine(local int, dst []byte) ([]byte, error) {
	out, err := b.Store.ReadLine(local, dst)
	for attempt := 0; err != nil && memctrl.IsTransient(err) && attempt < b.opRetries; attempt++ {
		b.errorRetries++
		out, err = b.Store.ReadLine(local, dst)
	}
	return out, err
}

// StackStats returns the store stack's statistics plus the backend's
// own retry counter — the per-shard statistics currency the engine
// snapshots and deltas. The caller must hold the shard's lock (or be
// its drainer).
func (b *Backend) StackStats() memctrl.Stats {
	s := b.Store.Stats()
	s.ErrorRetries += b.errorRetries
	return s
}

// FailedCells returns the endurance-exhausted cell count (0 without
// wear tracking).
func (b *Backend) FailedCells() int64 {
	if w := b.Dev.Config().Wear; w != nil {
		return int64(w.FailedCells())
	}
	return 0
}

// Config assembles an Engine.
type Config struct {
	// Lines is the total capacity in cache lines across all shards.
	Lines int
	// Shards is the shard count; 0 defaults to 1. Must not exceed Lines.
	Shards int
	// QueueDepth bounds the per-shard issue queue: at most this many
	// tickets may be queued on one shard before Submit blocks
	// (backpressure). 0 defaults to DefaultQueueDepth.
	QueueDepth int
	// NewCodec builds one codec instance per shard (codecs may carry
	// scratch state and cannot be shared). Required.
	NewCodec func() coset.Codec
	// The remaining fields mirror BackendConfig and apply to every shard.
	Objective         coset.Objective
	SLC               bool
	DisableEncryption bool
	Key               [32]byte
	FaultRate         float64
	EnduranceWrites   float64
	// Seed is the master seed. With one shard it is used directly; with
	// more, each shard derives a decorrelated child seed from it.
	Seed uint64
	// CacheLines, when positive, gives every shard a decoded-line LRU
	// cache of that many lines in front of its controller. 0 disables
	// caching (the stack is then bit-identical to the pre-cache engine).
	CacheLines int
	// CachePolicy selects write-through (default) or write-back for the
	// per-shard caches.
	CachePolicy linecache.Policy
	// RemapSpares reserves that many spare physical lines per shard and
	// layers the fault-repair remapping decorator over each shard's
	// controller (see BackendConfig.RemapSpares). 0 disables.
	RemapSpares int
	// UseFaultRepo gives every shard a runtime fault repository in place
	// of the oracle fault view (see BackendConfig.UseFaultRepo).
	UseFaultRepo bool
	// Chaos, when non-nil, installs the fault-injecting decorator at
	// the top of every shard's stack (see BackendConfig.Chaos). Each
	// shard's injection schedule derives from its own shard seed, so
	// the streams are decorrelated.
	Chaos *ChaosSpec
	// OpRetries bounds per-op in-place retries on transient device
	// errors (see BackendConfig.OpRetries).
	OpRetries int
}

// ShardSeed returns the seed for shard i of n derived from the master
// seed. With n == 1 the master seed is used directly, so a one-shard
// engine is bit-identical to a Backend built with that seed.
func ShardSeed(seed uint64, i, n int) uint64 {
	if n == 1 {
		return seed
	}
	return prng.NewFrom(seed, fmt.Sprintf("vcc-shard-%d", i)).Uint64()
}

// shardKey returns shard i's AES key. Each shard's encryption unit
// counts lines locally, so giving every shard the master key verbatim
// would reuse one-time pads across shards (the pad tweak is local line
// + counter). With n > 1 the key is therefore whitened per shard,
// keeping ciphertext streams decorrelated; with n == 1 the master key
// is used directly, like the seed (see ShardSeed).
func shardKey(key [32]byte, seed uint64, i, n int) [32]byte {
	if n == 1 {
		return key
	}
	var mask [32]byte
	prng.NewFrom(seed, fmt.Sprintf("vcc-shard-key-%d", i)).Fill(mask[:])
	for k := range key {
		key[k] ^= mask[k]
	}
	return key
}

// Engine is the sharded, concurrency-safe memory engine. All methods,
// including Close, may be called from multiple goroutines.
type Engine struct {
	part     Partition
	backends []*Backend
	// mu[i] excludes the snapshot readers (Stats, ShardStats, ...) from
	// backends[i] while its drainer runs a queue entry.
	mu []sync.Mutex
	// tickets recycles Submit scratch state (see async.go).
	tickets sync.Pool
	// queues[s] is shard s's bounded issue queue, drained FIFO by a
	// dedicated goroutine for the life of the engine.
	queues []chan issue
	// qmu pairs Submit's enqueue (read lock) with Close's teardown
	// (write lock); closed is guarded by it.
	qmu    sync.RWMutex
	closed bool
	// closedCh is closed once teardown completes, so concurrent Close
	// calls can wait for the winner.
	closedCh chan struct{}
	// drained counts live drainer goroutines.
	drained sync.WaitGroup
}

// New builds an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if cfg.Lines <= 0 {
		return nil, fmt.Errorf("shard: Lines must be positive, got %d", cfg.Lines)
	}
	if cfg.NewCodec == nil {
		return nil, fmt.Errorf("shard: NewCodec is required")
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 0 || shards > cfg.Lines {
		return nil, fmt.Errorf("shard: Shards %d out of range [1,%d]", shards, cfg.Lines)
	}
	part := Partition{Shards: shards, Lines: cfg.Lines}
	backends := make([]*Backend, shards)
	for i := range backends {
		b, err := NewBackend(BackendConfig{
			Lines:             part.ShardLines(i),
			Codec:             cfg.NewCodec(),
			Objective:         cfg.Objective,
			SLC:               cfg.SLC,
			DisableEncryption: cfg.DisableEncryption,
			Key:               shardKey(cfg.Key, cfg.Seed, i, shards),
			FaultRate:         cfg.FaultRate,
			EnduranceWrites:   cfg.EnduranceWrites,
			Seed:              ShardSeed(cfg.Seed, i, shards),
			CacheLines:        cfg.CacheLines,
			CachePolicy:       cfg.CachePolicy,
			RemapSpares:       cfg.RemapSpares,
			UseFaultRepo:      cfg.UseFaultRepo,
			Chaos:             cfg.Chaos,
			OpRetries:         cfg.OpRetries,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		backends[i] = b
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	e := &Engine{
		part:     part,
		backends: backends,
		mu:       make([]sync.Mutex, shards),
		queues:   make([]chan issue, shards),
		closedCh: make(chan struct{}),
	}
	e.tickets.New = func() any {
		return &Ticket{e: e, byShard: make([][]int, shards), done: make(chan struct{}, 1)}
	}
	// The drainers exist for the engine's lifetime so dispatch never
	// creates goroutines or channels per batch; Close releases them.
	e.drained.Add(shards)
	for s := range e.queues {
		e.queues[s] = make(chan issue, depth)
		go e.drain(s)
	}
	return e, nil
}

// Lines returns the total capacity in cache lines.
func (e *Engine) Lines() int { return e.part.Lines }

// Shards returns the shard count.
func (e *Engine) Shards() int { return e.part.Shards }

// Partition returns the address-space partition.
func (e *Engine) Partition() Partition { return e.part }

func (e *Engine) checkLine(line int) error {
	if line < 0 || line >= e.part.Lines {
		return fmt.Errorf("shard: line %d out of range [0,%d)", line, e.part.Lines)
	}
	return nil
}

// Write stores one 64-byte line through its owning shard's pipeline and
// returns the number of stuck-at-wrong cells the write could not avoid.
// It is a single-op Apply, so it rides the shard's issue queue behind
// any ticket submitted before it; hot loops should batch through Apply
// or pipeline through Submit instead.
func (e *Engine) Write(line int, data []byte) (int, error) {
	ops := [1]Op{{Kind: OpWrite, Line: line, Data: data}}
	var outs [1]Outcome
	if _, err := e.Apply(ops[:], outs[:]); err != nil {
		return 0, err
	}
	return outs[0].SAWCells, outs[0].Err
}

// Read retrieves one line into dst (allocated when nil). Like Write it
// is a single-op Apply over the issue queues.
func (e *Engine) Read(line int, dst []byte) ([]byte, error) {
	ops := [1]Op{{Kind: OpRead, Line: line, Data: dst}}
	var outs [1]Outcome
	if _, err := e.Apply(ops[:], outs[:]); err != nil {
		return nil, err
	}
	return outs[0].Data, outs[0].Err
}

// Stats returns the exact merged store-stack statistics across shards,
// taking each shard's lock in turn. With one shard this is its
// Backend's StackStats verbatim.
func (e *Engine) Stats() memctrl.Stats {
	var total memctrl.Stats
	for i, b := range e.backends {
		e.mu[i].Lock()
		s := b.StackStats()
		e.mu[i].Unlock()
		total.Add(s)
	}
	return total
}

// ShardStats returns shard s's store-stack statistics.
func (e *Engine) ShardStats(s int) memctrl.Stats {
	e.mu[s].Lock()
	defer e.mu[s].Unlock()
	return e.backends[s].StackStats()
}

// ShardFailedCells returns shard s's endurance-exhausted cell count (0
// without wear tracking).
func (e *Engine) ShardFailedCells(s int) int64 {
	e.mu[s].Lock()
	defer e.mu[s].Unlock()
	return e.backends[s].FailedCells()
}

// FailedCells sums endurance-exhausted cells across shards.
func (e *Engine) FailedCells() int64 {
	var total int64
	for s := range e.backends {
		total += e.ShardFailedCells(s)
	}
	return total
}

// StuckCells sums permanently stuck cells (pre-generated faults plus
// endurance failures) across shards.
func (e *Engine) StuckCells() int {
	total := 0
	for i, b := range e.backends {
		e.mu[i].Lock()
		total += b.Dev.Faults().NumStuckCells()
		e.mu[i].Unlock()
	}
	return total
}

// DirtyLines returns the global line indices currently held dirty in
// the per-shard write-back caches — the exact set of writes that would
// be lost if the volatile caches vanished right now (see DropCaches).
// The result is sorted ascending; it is empty on uncached and
// write-through engines. Like Stats it takes each shard's lock in turn,
// so concurrent traffic may move lines between "dirty" and "written
// back" while the snapshot is assembled; quiesce submissions first for
// an exact answer.
func (e *Engine) DirtyLines() []int {
	var global []int
	var local []int
	for i, b := range e.backends {
		if b.Cache == nil {
			continue
		}
		e.mu[i].Lock()
		local = b.Cache.DirtyLineIDs(local[:0])
		e.mu[i].Unlock()
		for _, l := range local {
			global = append(global, e.part.GlobalOf(i, l))
		}
	}
	sort.Ints(global)
	return global
}

// FaultRepoStats sums runtime fault-repository traffic across shards.
// All zeros when the engine was built without UseFaultRepo.
func (e *Engine) FaultRepoStats() faultrepo.Stats {
	var total faultrepo.Stats
	for i, b := range e.backends {
		if b.Repo == nil {
			continue
		}
		e.mu[i].Lock()
		s := b.Repo.Stats
		e.mu[i].Unlock()
		total.Lookups += s.Lookups
		total.CacheHits += s.CacheHits
		total.CacheMiss += s.CacheMiss
		total.Discovered += s.Discovered
		total.Evictions += s.Evictions
	}
	return total
}

// SpareLinesLeft sums the unused repair spare lines across shards.
// Zero when the engine was built without RemapSpares.
func (e *Engine) SpareLinesLeft() int {
	total := 0
	for i, b := range e.backends {
		if b.Remap == nil {
			continue
		}
		e.mu[i].Lock()
		total += b.Remap.SparesLeft()
		e.mu[i].Unlock()
	}
	return total
}

// ResetStats clears store-stack statistics (device and cache contents
// are untouched).
func (e *Engine) ResetStats() {
	for i, b := range e.backends {
		e.mu[i].Lock()
		b.Store.ResetStats()
		b.errorRetries = 0
		e.mu[i].Unlock()
	}
}
