//go:build !race

package vcc

// The allocation guard is measured without the race detector: -race
// instrumentation itself allocates (sync.Pool tracking, channel
// shadowing), which would mask the engine's own behavior.

import (
	"testing"

	"repro/internal/prng"
)

// allocGuardOps builds a reusable mixed batch: every op carries its own
// 64-byte buffer (write plaintext or read destination), so repeated
// Apply calls recycle everything.
func allocGuardOps(batch, lines int, readFrac float64, seed uint64) []Op {
	rng := prng.New(seed)
	ops := make([]Op, batch)
	for i := range ops {
		data := make([]byte, LineSize)
		rng.Fill(data)
		kind := OpWrite
		if rng.Float64() < readFrac {
			kind = OpRead
		}
		ops[i] = Op{Kind: kind, Line: (i * 13) % lines, Data: data}
	}
	return ops
}

// testSteadyStateAllocs pins one (engine, op mix) combination at zero
// steady-state heap allocations per Apply.
func testSteadyStateAllocs(t *testing.T, cfg ShardedMemoryConfig, readFrac float64) {
	t.Helper()
	m, err := NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const batch = 64
	ops := allocGuardOps(batch, cfg.Lines, readFrac, 2)
	outs := make([]Outcome, batch)
	apply := func() {
		var err error
		if outs, err = m.Apply(ops, outs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the plan pool, per-shard scratch and (when configured) the
	// cache: after two rounds every touched line is resident, so the
	// steady state exercises hits plus recycled-entry evictions.
	apply()
	apply()
	if avg := testing.AllocsPerRun(20, apply); avg != 0 {
		t.Errorf("shards=%d cache=%d/%v readfrac=%.2f: steady-state Apply allocates %.2f/op, want 0",
			cfg.Shards, cfg.CacheLines, cfg.CachePolicy, readFrac, avg)
	}
}

// TestApplySteadyStateAllocs pins the steady-state Apply hot paths at
// zero heap allocations per op — write-only, read-only and mixed
// streams, at one shard and across four, uncached and behind both
// cache policies (hits, misses and recycled-entry evictions included).
func TestApplySteadyStateAllocs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, readFrac := range []float64{0, 0.5, 1} {
			cfg := ShardedMemoryConfig{
				Lines: 1 << 10, Shards: shards, Seed: 1,
				NewEncoder: func() Encoder { return NewVCCEncoder(256) },
			}
			testSteadyStateAllocs(t, cfg, readFrac)

			cached := cfg
			cached.CacheLines = 32 // far below the 64-op footprint: constant evictions
			for _, policy := range []CachePolicy{WriteThrough, WriteBack} {
				cached.CachePolicy = policy
				testSteadyStateAllocs(t, cached, readFrac)
			}

			// The remap-decorated path: mapping indirection plus per-word
			// fault-repository lookups on every write. No faults are
			// seeded, so no repairs fire — the guard pins the decorator's
			// pass-through overhead at zero. The repository keeps its
			// default 256-entry descriptor cache: at one shard the batch's
			// 512-word footprint cycles through it, so every lookup misses
			// and evicts, and the map churns by delete plus insert.
			remapped := cfg
			remapped.RemapSpares = 16
			remapped.UseFaultRepo = true
			testSteadyStateAllocs(t, remapped, readFrac)
		}
	}
}

// TestApplySteadyStateAllocsSlicedEncoders extends the 0-alloc guard
// across the partition-sliced encode fast path's codec variants: stored
// kernels on MLC and SLC, Algorithm 2 generated kernels on the MLC
// right-digit plane, and FNW's sliced per-sub-block path. The sliced
// context and search scratch are controller/codec-owned and warmed by
// the first Apply, so the steady state must stay allocation-free from
// Submit through EncodeSliced.
func TestApplySteadyStateAllocsSlicedEncoders(t *testing.T) {
	for _, enc := range []struct {
		name string
		mk   func() Encoder
		slc  bool
	}{
		{"VCCStored-MLC", func() Encoder { return NewVCCEncoder(256) }, false},
		{"VCCStored-SLC", func() Encoder { return NewVCCEncoder(256) }, true},
		{"VCCGenerated-MLC", func() Encoder { return NewVCCGeneratedEncoder(256) }, false},
		{"FNW16-MLC", func() Encoder { return NewFNWEncoder(16) }, false},
		{"FNW16-SLC", func() Encoder { return NewFNWEncoder(16) }, true},
	} {
		t.Run(enc.name, func(t *testing.T) {
			cfg := ShardedMemoryConfig{
				Lines: 1 << 10, Shards: 2, Seed: 1,
				NewEncoder: enc.mk, SLC: enc.slc,
			}
			testSteadyStateAllocs(t, cfg, 0.25)
		})
	}
}

// testSteadyStateAllocsAsync pins the pipelined Submit/Wait path at
// zero steady-state heap allocations per rotation: depth slots each own
// their op and outcome buffers, and one measured run submits every slot
// and waits the oldest, exactly like a pipelined producer loop.
func testSteadyStateAllocsAsync(t *testing.T, cfg ShardedMemoryConfig, readFrac float64, depth int) {
	t.Helper()
	m, err := NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess := m.Session()
	const batch = 64
	type slot struct {
		ops []Op
		out []Outcome
		tk  *Ticket
	}
	slots := make([]slot, depth)
	for i := range slots {
		slots[i].ops = allocGuardOps(batch, cfg.Lines, readFrac, uint64(3+i))
		slots[i].out = make([]Outcome, batch)
	}
	rotate := func() {
		for i := range slots {
			sl := &slots[i]
			if sl.tk != nil {
				if _, err := sl.tk.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			tk, err := sess.Submit(sl.ops, sl.out)
			if err != nil {
				t.Fatal(err)
			}
			sl.tk = tk
		}
	}
	drain := func() {
		for i := range slots {
			if slots[i].tk != nil {
				if _, err := slots[i].tk.Wait(); err != nil {
					t.Fatal(err)
				}
				slots[i].tk = nil
			}
		}
	}
	// Warm the ticket pool, per-shard scratch and (when configured) the
	// cache at full pipeline depth.
	rotate()
	rotate()
	avg := testing.AllocsPerRun(20, rotate)
	drain()
	if avg != 0 {
		t.Errorf("shards=%d cache=%d/%v readfrac=%.2f depth=%d: steady-state Submit/Wait allocates %.2f/rotation, want 0",
			cfg.Shards, cfg.CacheLines, cfg.CachePolicy, readFrac, depth, avg)
	}
}

// TestSubmitSteadyStateAllocs extends the 0-alloc guarantee to the
// asynchronous path: pooled tickets plus recycled per-slot buffers keep
// a pipelined producer at zero allocations per rotation, uncached and
// behind both cache policies, at one shard and across four.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	base := func(shards int) ShardedMemoryConfig {
		return ShardedMemoryConfig{
			Lines: 1 << 10, Shards: shards, Seed: 1,
			NewEncoder: func() Encoder { return NewVCCEncoder(256) },
		}
	}
	for _, shards := range []int{1, 4} {
		for _, readFrac := range []float64{0, 0.5} {
			cfg := base(shards)
			testSteadyStateAllocsAsync(t, cfg, readFrac, 4)

			cached := cfg
			cached.CacheLines = 32
			for _, policy := range []CachePolicy{WriteThrough, WriteBack} {
				cached.CachePolicy = policy
				testSteadyStateAllocsAsync(t, cached, readFrac, 4)
			}
		}
	}
}
