package vcc

// Tests of the unified mixed read/write op-stream path (Apply): the
// oracle equivalence against the directly driven shard backend,
// determinism across repeated runs and shard counts, and op
// validation.

import (
	"bytes"
	"testing"

	"repro/internal/prng"
)

// mixedOps builds a deterministic interleaved read/write stream over
// lines, with every write carrying fresh data and every third read
// bringing its own destination buffer.
func mixedOps(n, lines int, seed uint64) []Op {
	rng := prng.NewFrom(seed, "mixed-ops")
	ops := make([]Op, n)
	for i := range ops {
		line := rng.Intn(lines)
		if rng.Float64() < 0.4 {
			ops[i] = Op{Kind: OpRead, Line: line}
			if i%3 == 0 {
				ops[i].Data = make([]byte, LineSize)
			}
		} else {
			data := make([]byte, LineSize)
			rng.Fill(data)
			ops[i] = Op{Kind: OpWrite, Line: line, Data: data}
		}
	}
	return ops
}

// TestMixedApplyOracle is the acceptance criterion: a mixed Apply batch
// on a one-shard ShardedMemory must be bit-identical — per-op SAW
// counts, read plaintexts, full store-stack statistics, failed and
// stuck cells, and final memory contents — to the same ops replayed one
// at a time through the shard's Backend driven directly.
func TestMixedApplyOracle(t *testing.T) {
	const lines = 256
	cfg := fullConfig(lines, 21)
	ref := refBackend(t, cfg)
	sh, err := NewShardedMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	checkRef(t, sh, ref)
	ops := mixedOps(3000, lines, 77)

	// The sharded engine sees the ops in batches of varying size; the
	// oracle replays them strictly sequentially.
	for off := 0; off < len(ops); {
		n := 1 + (off*7)%64
		if off+n > len(ops) {
			n = len(ops) - off
		}
		batch := ops[off : off+n]
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
					t.Fatalf("op %d: Apply SAW %d, oracle %d", off+i, outs[i].SAWCells, saw)
				}
				continue
			}
			want, err := ref.ReadLine(op.Line, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outs[i].Data, want) {
				t.Fatalf("op %d: read plaintext diverges from oracle", off+i)
			}
			if op.Data != nil && &outs[i].Data[0] != &op.Data[0] {
				t.Fatalf("op %d: outcome does not alias the provided read buffer", off+i)
			}
		}
		off += n
	}

	checkRef(t, sh, ref)
	if got := sh.Stats().LineReads; got == 0 {
		t.Error("LineReads not counted on the mixed path")
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

// TestMixedApplyDeterministic: the same mixed op stream produces
// identical outcomes and stats across repeated runs, for several shard
// counts (run under -race this is also the mixed-path concurrency
// check).
func TestMixedApplyDeterministic(t *testing.T) {
	const lines = 300
	for _, shards := range []int{2, 3, 8} {
		var refStats Stats
		var refOuts []Outcome
		var refData [][]byte
		for run := 0; run < 2; run++ {
			m, err := NewShardedMemory(ShardedMemoryConfig{
				Lines: lines, Shards: shards, Seed: 9, FaultRate: 1e-2,
				NewEncoder: func() Encoder { return NewVCCEncoder(256) },
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
			st := m.Stats()
			m.Close()
			if run == 0 {
				refStats, refOuts, refData = st, outs, data
				continue
			}
			if st != refStats {
				t.Errorf("shards=%d: stats %+v differ from the first run's %+v",
					shards, st, refStats)
			}
			for i := range outs {
				if outs[i].SAWCells != refOuts[i].SAWCells || !bytes.Equal(data[i], refData[i]) {
					t.Fatalf("shards=%d: op %d outcome diverges across runs", shards, i)
				}
			}
		}
	}
}

// TestApplyValidation: malformed ops are rejected up front, leaving the
// engine untouched.
func TestApplyValidation(t *testing.T) {
	m, err := NewShardedMemory(ShardedMemoryConfig{Lines: 16, Shards: 2, Seed: 1,
		NewEncoder: func() Encoder { return NewFNWEncoder(16) }})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]byte, LineSize)
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"line out of range", []Op{{Kind: OpWrite, Line: 16, Data: good}}},
		{"short write", []Op{{Kind: OpWrite, Line: 0, Data: make([]byte, 8)}}},
		{"short read buffer", []Op{{Kind: OpRead, Line: 0, Data: make([]byte, 8)}}},
		{"unknown kind", []Op{{Kind: 7, Line: 0, Data: good}}},
		{"late bad op", []Op{{Kind: OpWrite, Line: 0, Data: good}, {Kind: OpWrite, Line: -1, Data: good}}},
	} {
		if _, err := m.Apply(tc.ops, nil); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if n := m.Stats().LineWrites; n != 0 {
		t.Errorf("rejected batches must not write; LineWrites = %d", n)
	}
}
