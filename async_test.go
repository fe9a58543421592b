package vcc

// Tests of the public asynchronous submission surface (Session /
// Ticket): the oracle equivalence of pipelined Submit/Wait against the
// synchronous Apply path and the directly driven shard backend, at
// several shard counts and in-flight depths.

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/shard"
)

// opWindows carves [0, n) into the variable-size batches used by the
// mixed oracle tests.
func opWindows(n int) [][2]int {
	var wins [][2]int
	for off := 0; off < n; {
		sz := 1 + (off*7)%64
		if off+sz > n {
			sz = n - off
		}
		wins = append(wins, [2]int{off, off + sz})
		off += sz
	}
	return wins
}

// runWindowsAsync pipelines the windows through a Session, keeping up
// to depth tickets in flight, and returns per-op SAW counts and cloned
// read plaintexts.
func runWindowsAsync(t *testing.T, m *ShardedMemory, ops []Op, wins [][2]int, depth int) ([]int, [][]byte) {
	t.Helper()
	sess := m.Session()
	saw := make([]int, len(ops))
	data := make([][]byte, len(ops))
	var pending []*Ticket
	var pendingWin [][2]int
	collect := func() {
		tk, w := pending[0], pendingWin[0]
		pending, pendingWin = pending[1:], pendingWin[1:]
		outs, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			saw[w[0]+i] = outs[i].SAWCells
			if outs[i].Data != nil {
				data[w[0]+i] = bytes.Clone(outs[i].Data)
			}
		}
	}
	for _, w := range wins {
		if len(pending) == depth {
			collect()
		}
		tk, err := sess.Submit(ops[w[0]:w[1]], nil)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, tk)
		pendingWin = append(pendingWin, w)
	}
	for len(pending) > 0 {
		collect()
	}
	sess.Drain()
	return saw, data
}

// runWindowsSync replays the same windows through synchronous Apply.
func runWindowsSync(t *testing.T, m *ShardedMemory, ops []Op, wins [][2]int) ([]int, [][]byte) {
	t.Helper()
	saw := make([]int, len(ops))
	data := make([][]byte, len(ops))
	for _, w := range wins {
		outs, err := m.Apply(ops[w[0]:w[1]], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			saw[w[0]+i] = outs[i].SAWCells
			if outs[i].Data != nil {
				data[w[0]+i] = bytes.Clone(outs[i].Data)
			}
		}
	}
	return saw, data
}

// readAll snapshots every line's plaintext.
func readAll(t *testing.T, read func(int, []byte) ([]byte, error), lines int) [][]byte {
	t.Helper()
	out := make([][]byte, lines)
	for l := 0; l < lines; l++ {
		b, err := read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[l] = bytes.Clone(b)
	}
	return out
}

// TestAsyncApplyOracle is the acceptance criterion of the async
// redesign: pipelined Submit/Wait at any in-flight depth produces
// per-op outcomes, final statistics and final device state bit-identical
// to synchronous Apply — and, at one shard, so does synchronous Apply
// to the shard's Backend driven directly, one op at a time. mixedOps
// buffers are regenerated per run because reads write into provided op
// buffers.
func TestAsyncApplyOracle(t *testing.T) {
	const lines, nops = 256, 3000
	cfg := fullConfig(lines, 23)
	wins := opWindows(nops)
	for _, shards := range []int{1, 4} {
		cfg.Shards = shards
		// Synchronous sharded reference.
		syncMem, err := NewShardedMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ref *shard.Backend
		if shards == 1 {
			ref = refBackend(t, cfg)
			checkRef(t, syncMem, ref)
		}
		refSAW, refData := runWindowsSync(t, syncMem, mixedOps(nops, lines, 91), wins)
		refStats := syncMem.eng.Stats()
		refLines := readAll(t, syncMem.Read, lines)
		syncMem.Close()

		if shards == 1 {
			// Sequential oracle: the same ops, then the same final reads,
			// through the backend one at a time on this goroutine.
			ops := mixedOps(nops, lines, 91)
			for i := range ops {
				if ops[i].Kind == OpWrite {
					saw, err := ref.WriteLine(ops[i].Line, ops[i].Data)
					if err != nil {
						t.Fatal(err)
					}
					if saw != refSAW[i] {
						t.Fatalf("op %d: sync Apply SAW %d, sequential oracle %d", i, refSAW[i], saw)
					}
					continue
				}
				b, err := ref.ReadLine(ops[i].Line, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, refData[i]) {
					t.Fatalf("op %d: sync Apply read diverges from sequential oracle", i)
				}
			}
			seqLines := readAll(t, ref.ReadLine, lines)
			for l := range seqLines {
				if !bytes.Equal(seqLines[l], refLines[l]) {
					t.Fatalf("line %d: sync Apply contents diverge from sequential oracle", l)
				}
			}
			checkRef(t, syncMem, ref)
		}

		for _, depth := range []int{1, 3, 8} {
			m, err := NewShardedMemory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotSAW, gotData := runWindowsAsync(t, m, mixedOps(nops, lines, 91), wins, depth)
			for i := 0; i < nops; i++ {
				if gotSAW[i] != refSAW[i] || !bytes.Equal(gotData[i], refData[i]) {
					t.Fatalf("shards=%d depth=%d: op %d outcome diverges from sync Apply", shards, depth, i)
				}
			}
			if got := m.eng.Stats(); got != refStats {
				t.Errorf("shards=%d depth=%d: stats diverge:\nasync %+v\nsync  %+v", shards, depth, got, refStats)
			}
			gotLines := readAll(t, m.Read, lines)
			for l := 0; l < lines; l++ {
				if !bytes.Equal(gotLines[l], refLines[l]) {
					t.Fatalf("shards=%d depth=%d: line %d contents diverge from sync Apply", shards, depth, l)
				}
			}
			m.Close()
		}
	}
}

// TestAsyncCallbackTotals: the SubmitFunc + Drain flow observes exactly
// the totals the synchronous path reports, with outcome delivery
// happening entirely on drainer goroutines.
func TestAsyncCallbackTotals(t *testing.T) {
	const lines, nops = 128, 2000
	mk := func() *ShardedMemory {
		m, err := NewShardedMemory(ShardedMemoryConfig{
			Lines: lines, Shards: 4, Seed: 6, FaultRate: 1e-2,
			NewEncoder: func() Encoder { return NewVCCEncoder(256) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := mk()
	defer ref.Close()
	refOuts, err := ref.Apply(mixedOps(nops, lines, 17), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSAW := 0
	for i := range refOuts {
		wantSAW += refOuts[i].SAWCells
	}

	m := mk()
	defer m.Close()
	sess := m.Session()
	ops := mixedOps(nops, lines, 17)
	var gotSAW, gotOps atomic.Int64
	cb := func(outs []Outcome, err error) {
		if err != nil {
			t.Error(err)
		}
		for i := range outs {
			gotSAW.Add(int64(outs[i].SAWCells))
		}
		gotOps.Add(int64(len(outs)))
	}
	for _, w := range opWindows(nops) {
		if err := sess.SubmitFunc(ops[w[0]:w[1]], nil, cb); err != nil {
			t.Fatal(err)
		}
	}
	sess.Drain()
	if gotOps.Load() != nops {
		t.Fatalf("callbacks saw %d ops, want %d", gotOps.Load(), nops)
	}
	if int(gotSAW.Load()) != wantSAW {
		t.Errorf("callback SAW total %d, sync total %d", gotSAW.Load(), wantSAW)
	}
	if got, want := m.Stats(), ref.Stats(); got != want {
		t.Errorf("stats diverge:\nasync %+v\nsync  %+v", got, want)
	}
}
