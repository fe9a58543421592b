package experiments

import (
	"fmt"

	"repro/internal/coset"
	"repro/internal/shard"
	"repro/internal/trace"
)

func init() {
	registerOpts("shard-replay",
		"sharded trace replay: per-benchmark energy/SAW and shard load balance",
		runShardReplay)
}

// runShardReplay replays each benchmark's writeback trace through the
// concurrent sharded engine (VCC 256, Opt.Energy, AES-CTR, 1e-2 faults
// — the fig9 configuration) and reports per-benchmark totals plus the
// shard load imbalance. With one shard the replay runs the exact
// sequential pipeline; with more, each shard draws its own fault map
// and initial cells from a derived seed, so absolutes shift while
// orderings persist. Deterministic in (mode, seed, shards).
func runShardReplay(o Opts) *Result {
	lines, writes := sizes(o.Mode)
	shards := o.Shards
	if shards <= 0 {
		shards = 1
	}
	res := &Result{
		ID:    "shard-replay",
		Title: fmt.Sprintf("Sharded trace replay (VCC 256, Opt.Energy, %d shard(s))", shards),
		Header: []string{"benchmark", "writes", "energy_pJ", "SAW_cells",
			"max_shard_writes", "min_shard_writes"},
		Notes: []string{
			"replay through the concurrent engine; 1 shard runs the exact sequential pipeline",
			"shards >1 derive independent per-shard seeds: compare orderings, not absolutes, across shard counts",
			"max/min shard writes expose the interleaved partition's load balance on Zipf+streaming traces",
		},
	}
	const batchSize = 256
	for _, bm := range benchSubset(o.Mode) {
		eng, err := shard.New(shard.Config{
			Lines:     lines,
			Shards:    shards,
			NewCodec:  func() coset.Codec { return coset.NewVCCStored(64, 16, 256, o.Seed) },
			Objective: coset.ObjEnergySAW,
			Key:       simKey,
			FaultRate: 1e-2,
			Seed:      o.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("shard-replay: %v", err))
		}
		gen := trace.NewGenerator(bm, o.Seed)
		var rec trace.Record
		ops := make([]shard.Op, 0, batchSize)
		outs := make([]shard.Outcome, batchSize)
		bufs := make([][]byte, batchSize)
		for i := range bufs {
			bufs[i] = make([]byte, shard.LineSize)
		}
		for done := 0; done < writes; {
			ops = ops[:0]
			for len(ops) < batchSize && done+len(ops) < writes {
				gen.Next(&rec)
				buf := bufs[len(ops)]
				copy(buf, rec.Data[:])
				ops = append(ops, shard.Op{
					Kind: shard.OpWrite, Line: int(rec.Line % uint64(lines)), Data: buf,
				})
			}
			var err error
			if outs, err = eng.Apply(ops, outs); err != nil {
				panic(fmt.Sprintf("shard-replay: %v", err))
			}
			for i := range outs {
				if outs[i].Err != nil {
					panic(fmt.Sprintf("shard-replay: %v", outs[i].Err))
				}
			}
			done += len(ops)
		}
		st := eng.Stats()
		maxW, minW := int64(-1), int64(-1)
		for s := 0; s < eng.Shards(); s++ {
			w := eng.ShardStats(s).LineWrites
			if maxW < 0 || w > maxW {
				maxW = w
			}
			if minW < 0 || w < minW {
				minW = w
			}
		}
		res.Rows = append(res.Rows, []string{
			bm.Name, fmtI(st.LineWrites), fmtF(st.EnergyPJ), fmtI(st.SAWCells),
			fmtI(maxW), fmtI(minW),
		})
		eng.Close() // release the per-shard drainer goroutines
	}
	return res
}
