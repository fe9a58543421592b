package vcc

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/prng"
	"repro/internal/shard"
)

// fullConfig exercises every stochastic subsystem at once: MLC cells,
// encryption, a fault map and endurance tracking. Shards is left at 0,
// which builds one shard.
func fullConfig(lines int, seed uint64) ShardedMemoryConfig {
	return ShardedMemoryConfig{
		Lines:           lines,
		NewEncoder:      func() Encoder { return NewVCCEncoder(256) },
		Objective:       OptEnergy,
		Key:             [32]byte{1, 2, 3},
		FaultRate:       1e-2,
		EnduranceWrites: 5e3,
		Seed:            seed,
	}
}

// refBackend builds the sequential reference of a one-shard cfg: the
// shard.Backend the engine runs, driven directly on the test goroutine
// with no issue queue in between.
func refBackend(t *testing.T, cfg ShardedMemoryConfig) *shard.Backend {
	t.Helper()
	b, err := shard.NewBackend(shard.BackendConfig{
		Lines:             cfg.Lines,
		Codec:             cfg.NewEncoder(),
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
		t.Fatal(err)
	}
	return b
}

// checkCells compares the failed- and stuck-cell counts of a one-shard
// memory with its reference backend.
func checkCells(t *testing.T, m *ShardedMemory, ref *shard.Backend) {
	t.Helper()
	if got, want := m.Stats().FailedCells, ref.FailedCells(); got != want {
		t.Errorf("failed cells diverge: engine %d, reference %d", got, want)
	}
	if got, want := m.StuckCells(), ref.Dev.Faults().NumStuckCells(); got != want {
		t.Errorf("stuck cells diverge: engine %d, reference %d", got, want)
	}
}

// checkRef compares a one-shard memory with its reference backend: the
// full store-stack statistics (exact float equality) plus checkCells.
func checkRef(t *testing.T, m *ShardedMemory, ref *shard.Backend) {
	t.Helper()
	if got, want := m.eng.Stats(), ref.StackStats(); got != want {
		t.Errorf("stats diverge:\nengine    %+v\nreference %+v", got, want)
	}
	checkCells(t, m, ref)
}

// TestShardedPartition checks the cross-shard address split: writing
// every line exactly once must land ShardLines(i) writes on shard i and
// nothing anywhere else, and reads must round-trip across shard
// boundaries (fault-free config so data survives verbatim).
func TestShardedPartition(t *testing.T) {
	const lines, shards = 1031, 4 // deliberately not a multiple
	m, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: lines, Shards: shards, Seed: 5,
		NewEncoder: func() Encoder { return NewFNWEncoder(16) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, lines)
	rng := prng.New(11)
	for l := range ops {
		data := make([]byte, LineSize)
		rng.Fill(data)
		ops[l] = Op{Kind: OpWrite, Line: l, Data: data}
	}
	if _, err := m.Apply(ops, nil); err != nil {
		t.Fatal(err)
	}
	var total int64
	for s := 0; s < shards; s++ {
		got := m.ShardStats(s).LineWrites
		wantN := int64((lines - s + shards - 1) / shards)
		if got != wantN {
			t.Errorf("shard %d served %d writes, want %d", s, got, wantN)
		}
		total += got
	}
	if total != lines {
		t.Errorf("shards served %d writes total, want %d", total, lines)
	}
	rd := make([]Op, lines)
	for l := range rd {
		rd[l] = Op{Kind: OpRead, Line: l}
	}
	out, err := m.Apply(rd, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range out {
		if !bytes.Equal(out[l].Data, ops[l].Data) {
			t.Fatalf("line %d did not round-trip across the partition", l)
		}
	}
}

// TestShardStatsSumToStats: on a memory that tracks wear behind a
// write-back cache, the per-shard statistics folded with Stats.Add in
// shard order equal Stats exactly — failed cells and energy included.
func TestShardStatsSumToStats(t *testing.T) {
	const lines, shards = 64, 4
	m, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: lines, Shards: shards, Seed: 4, EnduranceWrites: 30,
		NewEncoder:  func() Encoder { return NewVCCEncoder(256) },
		CacheLines:  4,
		CachePolicy: WriteBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := prng.New(12)
	data := make([]byte, LineSize)
	for i := 0; i < 2000; i++ {
		rng.Fill(data)
		if _, err := m.Write(rng.Intn(lines), data); err != nil {
			t.Fatal(err)
		}
	}
	var sum Stats
	for s := 0; s < shards; s++ {
		sum.Add(m.ShardStats(s))
	}
	st := m.Stats()
	if st.FailedCells == 0 || st.Writebacks == 0 {
		t.Fatalf("workload exercised neither wear nor writebacks: %+v", st)
	}
	if sum != st {
		t.Errorf("per-shard stats do not sum to Stats:\nsum   %+v\nStats %+v", sum, st)
	}
}

// TestShardedConcurrentWriters hammers one engine from many goroutines
// mixing single writes, batches and reads, while the readers also poll
// the lock-taking Stats and ShardStats snapshots; run under -race this
// is the concurrency-safety check. Totals must come out exact.
func TestShardedConcurrentWriters(t *testing.T) {
	const (
		lines      = 512
		shards     = 8
		goroutines = 8
		perG       = 300
	)
	m, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: lines, Shards: shards, Seed: 3, FaultRate: 1e-3,
		NewEncoder: func() Encoder { return NewVCCGeneratedEncoder(256) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := prng.NewFrom(uint64(g), "writer")
			buf := make([]byte, LineSize)
			var batch []Op
			for i := 0; i < perG; i++ {
				line := rng.Intn(lines)
				rng.Fill(buf)
				switch i % 3 {
				case 0:
					if _, err := m.Write(line, buf); err != nil {
						t.Error(err)
						return
					}
				case 1:
					data := make([]byte, LineSize)
					copy(data, buf)
					batch = append(batch, Op{Kind: OpWrite, Line: line, Data: data})
					if len(batch) == 25 {
						if _, err := m.Apply(batch, nil); err != nil {
							t.Error(err)
							return
						}
						batch = batch[:0]
					}
				case 2:
					if _, err := m.Read(line, buf); err != nil {
						t.Error(err)
						return
					}
					// Poll the snapshots concurrently with the drainers.
					_ = m.Stats()
					_ = m.ShardStats(line % shards)
				}
			}
			if _, err := m.Apply(batch, nil); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	var wantWrites int64
	for g := 0; g < goroutines; g++ {
		n := 0
		for i := 0; i < perG; i++ {
			if i%3 != 2 {
				n++
			}
		}
		wantWrites += int64(n)
	}
	if got := m.Stats().LineWrites; got != wantWrites {
		t.Errorf("LineWrites %d after concurrent writers, want %d", got, wantWrites)
	}
	var perShard int64
	for s := 0; s < shards; s++ {
		perShard += m.ShardStats(s).LineWrites
	}
	if perShard != wantWrites {
		t.Errorf("per-shard LineWrites sum to %d, want %d", perShard, wantWrites)
	}
}

// TestShardedMultiShardDeterminism: the same workload on two
// identically-configured multi-shard engines yields identical stats.
func TestShardedMultiShardDeterminism(t *testing.T) {
	build := func() Stats {
		m, err := NewShardedMemory(ShardedMemoryConfig{
			Lines: 300, Shards: 3, Seed: 9, FaultRate: 1e-2,
			NewEncoder: func() Encoder { return NewRCCEncoder(64) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		rng := prng.New(17)
		ops := make([]Op, 900)
		for i := range ops {
			data := make([]byte, LineSize)
			rng.Fill(data)
			ops[i] = Op{Kind: OpWrite, Line: rng.Intn(300), Data: data}
		}
		if _, err := m.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("multi-shard stats differ across repeated runs:\nfirst  %+v\nsecond %+v", a, b)
	}
}
