package workload

import (
	"testing"

	"repro/internal/coset"
	"repro/internal/prng"
	"repro/internal/shard"
)

// pipelineEngine builds a small engine for driver tests.
func pipelineEngine(t *testing.T, lines int) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Config{
		Lines: lines, Shards: 3,
		NewCodec:  func() coset.Codec { return coset.NewFNW(64, 16) },
		FaultRate: 1e-2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pipelineStream builds the reference mixed stream; fill must be
// re-derived per run so every engine sees identical plaintext.
func pipelineStream(lines int) (*Stream, func(uint64, []byte)) {
	s := NewStream(5, Phase{
		Pattern:  NewZipfHot(lines, 1.2, prng.NewFrom(5, "pipe-zipf")),
		ReadFrac: 0.5,
	})
	rng := prng.NewFrom(5, "pipe-data")
	return s, func(_ uint64, data []byte) { rng.Fill(data) }
}

// TestRunPipelinedMatchesSyncLoop: the pipelined driver must leave the
// engine in exactly the state a synchronous FillOp+Apply loop over the
// same stream produces, at any depth (including partial final batches).
func TestRunPipelinedMatchesSyncLoop(t *testing.T) {
	const lines, totalOps, batch = 200, 2500, 64 // 2500 % 64 != 0: partial tail
	ref := pipelineEngine(t, lines)
	defer ref.Close()
	stream, fill := pipelineStream(lines)
	ops := make([]shard.Op, batch)
	bufs := make([]byte, batch*shard.LineSize)
	var outs []shard.Outcome
	for done := 0; done < totalOps; {
		n := batch
		if totalOps-done < n {
			n = totalOps - done
		}
		for i := 0; i < n; i++ {
			ops[i].Data = bufs[i*shard.LineSize : (i+1)*shard.LineSize]
			stream.FillOp(&ops[i], fill)
		}
		var err error
		if outs, err = ref.Apply(ops[:n], outs); err != nil {
			t.Fatal(err)
		}
		done += n
	}
	want := ref.Stats()

	for _, depth := range []int{1, 3, 8} {
		e := pipelineEngine(t, lines)
		stream, fill := pipelineStream(lines)
		if err := RunPipelined(e, stream, totalOps, PipelineConfig{
			Batch: batch, Depth: depth, Fill: fill,
		}); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats(); got != want {
			t.Errorf("depth=%d: stats diverge from sync loop:\ngot  %+v\nwant %+v", depth, got, want)
		}
		e.Close()
	}

	// RunPipelinedFrom with a hand-rolled source must match too (the
	// CLI replay path).
	e := pipelineEngine(t, lines)
	defer e.Close()
	stream2, fill2 := pipelineStream(lines)
	issued := 0
	if err := RunPipelinedFrom(e, func(op *shard.Op) bool {
		if issued >= totalOps {
			return false
		}
		issued++
		stream2.FillOp(op, fill2)
		return true
	}, PipelineConfig{Batch: batch, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got != want {
		t.Errorf("RunPipelinedFrom: stats diverge from sync loop:\ngot  %+v\nwant %+v", got, want)
	}
}
