//go:build !race

package shard

// Measured without the race detector: -race instrumentation itself
// allocates (channel shadowing, pool tracking), which would mask the
// encode path's own behavior. The same convention as the top-level
// alloc_guard_test.go.

import (
	"testing"

	"repro/internal/coset"
	"repro/internal/prng"
)

// TestApplySteadyStateAllocsSlicedEncoders is the 0-alloc guard of the
// full line pipeline: once warm, Engine.Apply of a mixed read/write
// batch with a reused Outcome slice must not allocate — per-batch
// dispatch state lives in pooled tickets, every sliced encoder prices
// candidates out of the controller-owned SlicedCtx (rebinding through
// the line-scoped fingerprint), and reads decode through the batched
// DecodeWords fast path (all three codecs implement LineDecoder).
// VCC-Generated is the teeth of the write-side guard: its lane scan
// composes every kernel's image from the word's left digits on every
// word, so that per-word work is proven allocation-free, not just
// assumed — the images go into scratch the codec owns, overwritten in
// place. Read ops carry preallocated destination buffers, matching a
// steady-state caller.
func TestApplySteadyStateAllocsSlicedEncoders(t *testing.T) {
	codecs := []struct {
		name string
		mk   func() coset.Codec
	}{
		{"VCC-Gen(16,256)", func() coset.Codec { return coset.NewVCCGenerated(16, 256) }},
		{"VCC-Stored(64,256,16)", func() coset.Codec { return coset.NewVCCStored(64, 16, 256, 1) }},
		{"FNW(64,16)", func() coset.Codec { return coset.NewFNW(64, 16) }},
	}
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) {
			const lines = 64
			e, err := New(Config{
				Lines:     lines,
				Shards:    1,
				NewCodec:  cc.mk,
				Objective: coset.ObjEnergySAW,
				FaultRate: 1e-2, // stuck cells keep the SAW terms live
				Seed:      7,
				// A rate-0 chaos decorator on the stack must stay inert:
				// the error-free fast path through the fault-injection and
				// retry layers is part of the 0-alloc contract.
				Chaos: &ChaosSpec{},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const batch = 32
			rng := prng.New(11)
			ops := make([]Op, batch)
			for i := range ops {
				data := make([]byte, LineSize)
				rng.Fill(data)
				kind := OpWrite
				if i%4 == 3 { // every 4th op reads back through DecodeWords
					kind = OpRead
				}
				ops[i] = Op{Kind: kind, Line: (i * 7) % lines, Data: data}
			}
			outs := make([]Outcome, batch)
			// One warm pass settles lazily-built scratch (the issue-queue
			// ticket pool) before counting.
			if outs, err = e.Apply(ops, outs); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20, func() {
				var aerr error
				if outs, aerr = e.Apply(ops, outs); aerr != nil {
					t.Fatal(aerr)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Apply allocated %.2f times per batch, want 0", avg)
			}
		})
	}
}
