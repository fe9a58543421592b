package shard

import (
	"testing"

	"repro/internal/coset"
	"repro/internal/memctrl"
)

func TestPartitionRoundTrip(t *testing.T) {
	for _, tc := range []struct{ shards, lines int }{
		{1, 1}, {1, 1024}, {2, 1024}, {3, 1031}, {4, 7}, {8, 8192}, {7, 100},
	} {
		p := Partition{Shards: tc.shards, Lines: tc.lines}
		sum := 0
		for s := 0; s < tc.shards; s++ {
			sum += p.ShardLines(s)
		}
		if sum != tc.lines {
			t.Errorf("Partition%+v: shard sizes sum to %d, want %d", p, sum, tc.lines)
		}
		seen := make(map[[2]int]bool)
		for g := 0; g < tc.lines; g++ {
			s, l := p.ShardOf(g), p.LocalOf(g)
			if s < 0 || s >= tc.shards {
				t.Fatalf("Partition%+v: line %d maps to shard %d", p, g, s)
			}
			if l < 0 || l >= p.ShardLines(s) {
				t.Fatalf("Partition%+v: line %d maps to local %d, shard %d has %d lines",
					p, g, l, s, p.ShardLines(s))
			}
			if p.GlobalOf(s, l) != g {
				t.Fatalf("Partition%+v: GlobalOf(%d,%d) = %d, want %d", p, s, l, p.GlobalOf(s, l), g)
			}
			key := [2]int{s, l}
			if seen[key] {
				t.Fatalf("Partition%+v: (shard,local) %v claimed twice", p, key)
			}
			seen[key] = true
		}
	}
}

func TestShardSeed(t *testing.T) {
	if got := ShardSeed(42, 0, 1); got != 42 {
		t.Errorf("single-shard seed must pass through, got %d", got)
	}
	seen := map[uint64]int{}
	for i := 0; i < 16; i++ {
		s := ShardSeed(42, i, 16)
		if prev, dup := seen[s]; dup {
			t.Errorf("shards %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if _, collides := seen[42]; collides {
		// Not fatal by construction, but with this derivation the master
		// seed should not reappear verbatim.
		t.Log("warning: a multi-shard seed equals the master seed")
	}
}

// TestShardKeyPadIndependence: each shard's encryption unit counts
// lines locally, so (local line, counter) tuples collide across shards.
// Without per-shard key whitening the same plaintext written to local
// line 0 of two shards at equal counters would store identical
// ciphertext — one-time pad reuse. Build two backends exactly as
// Engine.New would and compare stored words directly.
func TestShardKeyPadIndependence(t *testing.T) {
	master := [32]byte{1, 2, 3}
	if shardKey(master, 7, 0, 1) != master {
		t.Fatal("single-shard key must pass through unchanged")
	}
	k0, k1 := shardKey(master, 7, 0, 2), shardKey(master, 7, 1, 2)
	if k0 == k1 || k0 == master || k1 == master {
		t.Fatalf("multi-shard keys not whitened: %x %x", k0[:4], k1[:4])
	}
	stored := func(key [32]byte) [8]uint64 {
		b, err := NewBackend(BackendConfig{
			Lines: 1, Codec: coset.NewIdentity(64), Key: key, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, LineSize)
		for i := range plain {
			plain[i] = 0xA5
		}
		b.WriteLine(0, plain)
		var w [8]uint64
		for i := range w {
			w[i] = b.Dev.Read(i)
		}
		return w
	}
	// Identity codec + no faults: stored words are the raw ciphertext.
	if stored(k0) == stored(k1) {
		t.Error("identical ciphertext on two shards: one-time pad reused across shards")
	}
	if stored(k0) != stored(k0) {
		t.Error("ciphertext not deterministic for a fixed key")
	}
}

func newTestEngine(t *testing.T, shards, lines int) *Engine {
	t.Helper()
	e, err := New(Config{
		Lines:    lines,
		Shards:   shards,
		NewCodec: func() coset.Codec { return coset.NewFNW(64, 16) },
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCountersMatchStats: the per-shard counters (ShardStats and
// ShardFailedCells) sum exactly to the engine-wide Stats and
// FailedCells, and ResetStats clears the statistics.
func TestCountersMatchStats(t *testing.T) {
	e, err := New(Config{
		Lines: 16, Shards: 4,
		NewCodec:        func() coset.Codec { return coset.NewFNW(64, 16) },
		EnduranceWrites: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	data := make([]byte, LineSize)
	for i := 0; i < 640; i++ {
		data[i%LineSize] ^= byte(i)
		if _, err := e.Write(i%16, data); err != nil {
			t.Fatal(err)
		}
	}
	var sum memctrl.Stats
	var failed int64
	for s := 0; s < e.Shards(); s++ {
		sum.Add(e.ShardStats(s))
		failed += e.ShardFailedCells(s)
	}
	if st := e.Stats(); sum != st {
		t.Errorf("per-shard stats sum %+v != engine stats %+v", sum, st)
	}
	if failed == 0 || failed != e.FailedCells() {
		t.Errorf("per-shard failed cells sum %d, engine %d (want equal and nonzero)", failed, e.FailedCells())
	}
	e.ResetStats()
	if s := e.Stats(); s != (memctrl.Stats{}) {
		t.Errorf("stats not cleared by ResetStats: %+v", s)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{Lines: 0, NewCodec: func() coset.Codec { return coset.NewFNW(64, 16) }}); err == nil {
		t.Error("want error for zero lines")
	}
	if _, err := New(Config{Lines: 4, Shards: 8, NewCodec: func() coset.Codec { return coset.NewFNW(64, 16) }}); err == nil {
		t.Error("want error for more shards than lines")
	}
	if _, err := New(Config{Lines: 4}); err == nil {
		t.Error("want error for missing codec factory")
	}
	e := newTestEngine(t, 2, 8)
	if _, err := e.Write(8, make([]byte, LineSize)); err == nil {
		t.Error("want range error")
	}
	if _, err := e.Write(0, make([]byte, 8)); err == nil {
		t.Error("want size error")
	}
	if _, err := e.Apply([]Op{{Kind: OpWrite, Line: -1, Data: make([]byte, LineSize)}}, nil); err == nil {
		t.Error("want batch range error")
	}
	if _, err := e.Apply([]Op{{Kind: OpRead, Line: 0, Data: make([]byte, 3)}}, nil); err == nil {
		t.Error("want batch buffer-size error")
	}
}
