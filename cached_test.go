package vcc

// Tests of the decoded-line cache stack (internal/linecache behind
// ShardedMemoryConfig.CacheLines): write-through must be op-for-op
// indistinguishable from the uncached backend (fault corruption
// included), write-back must match its directly driven backend exactly
// and converge to the written plaintext after Flush while strictly
// reducing device writebacks on hot workloads, and cached results must
// stay deterministic at any shard count. Cache-off bit-identity is
// pinned by TestMixedApplyOracle, which runs the default
// CacheLines == 0 configuration.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/prng"
)

// hotMixedOps builds a deterministic read-heavy op stream where 90% of
// the traffic lands on a small hot set — the SPEC-like locality that
// makes a line cache pay off.
func hotMixedOps(n, lines, hotLines int, readFrac float64, seed uint64) []Op {
	rng := prng.NewFrom(seed, "hot-mixed-ops")
	ops := make([]Op, n)
	for i := range ops {
		line := rng.Intn(lines)
		if rng.Float64() < 0.9 {
			line = rng.Intn(hotLines)
		}
		if rng.Float64() < readFrac {
			ops[i] = Op{Kind: OpRead, Line: line}
		} else {
			data := make([]byte, LineSize)
			rng.Fill(data)
			ops[i] = Op{Kind: OpWrite, Line: line, Data: data}
		}
	}
	return ops
}

// TestWriteThroughOracle: a write-through cached one-shard engine must
// be op-for-op identical to the uncached backend driven directly — same
// per-op SAW counts, same read plaintexts (stuck-at-wrong corruption
// included), same statistics and final contents. Hits only skip
// decode+decrypt, which touches LineReads/WordsDecoded and nothing
// else.
func TestWriteThroughOracle(t *testing.T) {
	const lines = 256
	cfg := fullConfig(lines, 31)
	ref := refBackend(t, cfg)
	cfg.CacheLines, cfg.CachePolicy = 64, WriteThrough
	sh, err := NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	checkCells(t, sh, ref)

	ops := mixedOps(3000, lines, 13)
	lastWritten := make([][]byte, lines)
	corruptedReads := 0
	for off := 0; off < len(ops); off += 97 {
		end := off + 97
		if end > len(ops) {
			end = len(ops)
		}
		batch := ops[off:end]
		outs, err := sh.Apply(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			op := &batch[i]
			if op.Kind == OpWrite {
				saw, err := ref.WriteLine(op.Line, op.Data)
				if err != nil {
					t.Fatal(err)
				}
				if outs[i].SAWCells != saw {
					t.Fatalf("op %d: cached SAW %d, oracle %d", off+i, outs[i].SAWCells, saw)
				}
				lastWritten[op.Line] = op.Data
				continue
			}
			want, err := ref.ReadLine(op.Line, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[i].Data, want) {
				t.Fatalf("op %d: cached read diverges from uncached oracle", off+i)
			}
			if lastWritten[op.Line] != nil && !bytes.Equal(want, lastWritten[op.Line]) {
				corruptedReads++
			}
		}
	}
	if corruptedReads == 0 {
		t.Error("no read observed stuck-at-wrong corruption; the fault-visibility check has no teeth")
	}

	got := sh.eng.Stats()
	if got.CacheHits == 0 {
		t.Error("write-through cache never hit")
	}
	// The uncached reference decoded every read; the cache's own
	// counters are the only other difference.
	want := ref.StackStats()
	want.LineReads -= got.CacheHits
	want.WordsDecoded -= got.CacheHits * memctrl.WordsPerLine
	want.CacheHits, want.CacheMisses, want.CacheEvictions = got.CacheHits, got.CacheMisses, got.CacheEvictions
	if got != want {
		t.Errorf("stats diverge beyond cache hits:\ncached   %+v\nuncached %+v", got, want)
	}
	checkCells(t, sh, ref)
	sh.Flush() // must be a no-op under write-through
	if st := sh.Stats(); st.Writebacks != 0 || st.CoalescedWrites != 0 {
		t.Errorf("write-through produced writebacks/coalesced: %+v", st)
	}
	for l := 0; l < lines; l++ {
		a, err := ref.ReadLine(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.Read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("line %d contents diverge", l)
		}
	}
}

// TestWriteBackOracle is the acceptance criterion for the deferred
// policy: the write-back engine must match its backend driven directly
// op for op, including every deferred writeback; in a fault-free
// configuration every line's plaintext after Flush must match an
// uncached backend that saw the same writes (written or not, so a
// defect shared by both write-back stacks still shows), while the hot
// workload's device writebacks come out strictly below the logical
// write count.
func TestWriteBackOracle(t *testing.T) {
	const lines = 256
	cfg := ShardedMemoryConfig{
		Lines:       lines,
		NewEncoder:  func() Encoder { return NewVCCEncoder(256) },
		Objective:   OptEnergy,
		Key:         [32]byte{4, 5, 6},
		Seed:        11,
		CacheLines:  64,
		CachePolicy: WriteBack,
	}
	ref := refBackend(t, cfg)
	uncachedCfg := cfg
	uncachedCfg.CacheLines = 0
	uncached := refBackend(t, uncachedCfg)
	sh, err := NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	checkRef(t, sh, ref)

	ops := hotMixedOps(4000, lines, 16, 0.6, 7)
	outs, err := sh.Apply(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastWritten := make([][]byte, lines)
	logicalWrites := int64(0)
	for i := range ops {
		if ops[i].Kind == OpWrite {
			logicalWrites++
			lastWritten[ops[i].Line] = ops[i].Data
			if _, err := uncached.WriteLine(ops[i].Line, ops[i].Data); err != nil {
				t.Fatal(err)
			}
			saw, err := ref.WriteLine(ops[i].Line, ops[i].Data)
			if err != nil {
				t.Fatal(err)
			}
			if outs[i].SAWCells != saw {
				t.Fatalf("op %d: engine SAW %d, oracle %d", i, outs[i].SAWCells, saw)
			}
			continue
		}
		want, err := ref.ReadLine(ops[i].Line, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outs[i].Data, want) {
			t.Fatalf("op %d: read diverges from oracle", i)
		}
	}
	// Push every dirty line down to both devices.
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Store.Flush(); err != nil {
		t.Fatal(err)
	}
	checkRef(t, sh, ref)

	st := sh.Stats()
	if st.LineWrites >= logicalWrites {
		t.Errorf("write-back did not reduce device writes: %d device RMWs for %d logical writes",
			st.LineWrites, logicalWrites)
	}
	if st.CoalescedWrites == 0 {
		t.Error("hot workload coalesced nothing")
	}
	if st.LineWrites+st.CoalescedWrites != logicalWrites {
		t.Errorf("post-flush accounting broken: LineWrites %d + CoalescedWrites %d != logical %d",
			st.LineWrites, st.CoalescedWrites, logicalWrites)
	}
	if st.Writebacks == 0 {
		t.Error("no deferred writebacks recorded")
	}
	for l := 0; l < lines; l++ {
		got, err := sh.Read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.ReadLine(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d: final plaintext diverges from the uncached backend", l)
		}
		if lastWritten[l] != nil && !bytes.Equal(got, lastWritten[l]) {
			t.Fatalf("line %d: final plaintext is not the last write", l)
		}
	}
}

// TestCachedApplyDeterministic: cached results — outcomes, stats and
// post-Flush contents — are identical across repeated runs, for both
// policies and several shard counts (run under -race this is also the
// cached-path concurrency check).
func TestCachedApplyDeterministic(t *testing.T) {
	const lines = 300
	for _, policy := range []CachePolicy{WriteThrough, WriteBack} {
		for _, shards := range []int{2, 5} {
			var refStats Stats
			var refOuts []Outcome
			var refData [][]byte
			var refLines [][]byte
			for run := 0; run < 2; run++ {
				m, err := NewShardedMemory(ShardedMemoryConfig{
					Lines: lines, Shards: shards, Seed: 9, FaultRate: 1e-2,
					NewEncoder:  func() Encoder { return NewVCCEncoder(256) },
					CacheLines:  32,
					CachePolicy: policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				ops := mixedOps(2000, lines, 5)
				outs, err := m.Apply(ops, nil)
				if err != nil {
					t.Fatal(err)
				}
				data := make([][]byte, len(outs))
				for i := range outs {
					if outs[i].Data != nil {
						data[i] = bytes.Clone(outs[i].Data)
					}
				}
				m.Flush()
				st := m.Stats()
				contents := make([][]byte, lines)
				for l := 0; l < lines; l++ {
					contents[l], err = m.Read(l, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				m.Close()
				if run == 0 {
					refStats, refOuts, refData, refLines = st, outs, data, contents
					continue
				}
				if st != refStats {
					t.Errorf("policy=%v shards=%d: stats %+v differ from the first run's %+v",
						policy, shards, st, refStats)
				}
				for i := range outs {
					if outs[i].SAWCells != refOuts[i].SAWCells || !bytes.Equal(data[i], refData[i]) {
						t.Fatalf("policy=%v shards=%d: op %d outcome diverges across runs",
							policy, shards, i)
					}
				}
				for l := range contents {
					if !bytes.Equal(contents[l], refLines[l]) {
						t.Fatalf("policy=%v shards=%d: line %d diverges post-Flush across runs",
							policy, shards, l)
					}
				}
			}
		}
	}
}

// TestCloseFlushesWriteBack: Close must persist dirty write-back lines
// (the documented Close flush semantics). Afterwards the engine is
// closed for I/O — Submit and every wrapper over it return ErrClosed
// instead of panicking, while the snapshot accessors keep working — and
// a second Close is a safe no-op.
func TestCloseFlushesWriteBack(t *testing.T) {
	const lines = 64
	m, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: lines, Shards: 2, Seed: 3,
		NewEncoder:  func() Encoder { return NewFNWEncoder(16) },
		CacheLines:  16,
		CachePolicy: WriteBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, lines)
	rng := prng.New(8)
	for l := 0; l < lines; l++ {
		want[l] = make([]byte, LineSize)
		rng.Fill(want[l])
		if _, err := m.Write(l, want[l]); err != nil {
			t.Fatal(err)
		}
	}
	// Before Close a read sees the flushed-and-verified contents; keep a
	// reference read so the post-Flush oracle below is not vacuous.
	m.Flush()
	for l := 0; l < lines; l++ {
		got, err := m.Read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[l]) {
			t.Fatalf("line %d lost after Flush", l)
		}
	}
	// Dirty the cache again so Close itself has deferred work to flush.
	for l := 0; l < lines; l++ {
		rng.Fill(want[l])
		if _, err := m.Write(l, want[l]); err != nil {
			t.Fatal(err)
		}
	}
	// Some of the second round must still sit dirty in the caches, so
	// Close has real deferred work (device writes accounted so far fall
	// short of the logical write count).
	if pre := m.Stats(); pre.LineWrites+pre.CoalescedWrites == 2*int64(lines) {
		t.Fatal("nothing was deferred; the write-back test is vacuous")
	}
	m.Close()
	st := m.Stats() // snapshot accessors stay valid after Close
	if st.Writebacks == 0 {
		t.Error("Close did not flush dirty lines")
	}
	if st.LineWrites+st.CoalescedWrites != 2*int64(lines) {
		t.Errorf("post-Close accounting broken: LineWrites %d + CoalescedWrites %d != logical %d",
			st.LineWrites, st.CoalescedWrites, 2*lines)
	}
	// Post-Close I/O returns the sentinel, never panics.
	if _, err := m.Read(0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: err = %v, want ErrClosed", err)
	}
	if _, err := m.Write(0, want[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after Close: err = %v, want ErrClosed", err)
	}
	if _, err := m.Apply([]Op{{Kind: OpWrite, Line: 0, Data: want[0]}}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply after Close: err = %v, want ErrClosed", err)
	}
	if _, err := m.Session().Submit([]Op{{Kind: OpRead, Line: 0}}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent: double Close must not panic or hang
	m.Flush() // and a post-Close Flush is a harmless no-op
}

// TestCacheActivityInStats: the cache counters reach Stats end to end
// on a multi-shard write-back memory under capacity pressure.
func TestCacheActivityInStats(t *testing.T) {
	m, err := NewShardedMemory(ShardedMemoryConfig{
		Lines: 128, Shards: 4, Seed: 5,
		NewEncoder:  func() Encoder { return NewFNWEncoder(16) },
		CacheLines:  8,
		CachePolicy: WriteBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ops := hotMixedOps(1500, 128, 8, 0.7, 21)
	if _, err := m.Apply(ops, nil); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	st := m.Stats()
	if st.CacheEvictions == 0 {
		t.Error("8-line caches over a 128-line footprint must evict")
	}
	if st.CacheHits == 0 || st.CoalescedWrites == 0 || st.Writebacks == 0 {
		t.Errorf("hot workload produced no cache activity: %+v", st)
	}
}
