package experiments

import (
	"fmt"
	"time"

	"repro/internal/coset"
	"repro/internal/prng"
	"repro/internal/shard"
	"repro/internal/workload"
)

func init() {
	registerOpts("async-sweep",
		"asynchronous submission path: sync Apply vs pipelined Submit/Wait across in-flight depth x shards x pattern",
		runAsyncSweep)
}

// runAsyncSweep drives the same op budget through the engine's request
// path synchronously (Apply per batch) and asynchronously (pipelined
// Submit/Wait at several in-flight depths), across shard counts and
// access patterns (VCC 256, Opt.Energy, AES-CTR, 1e-2 faults — the
// fig9 configuration, like workload-sweep). Every statistics column is
// required to be identical across submission modes for a given
// (pattern, shards) group — per-shard queues preserve submission order,
// so the async path changes wall-clock behavior only; the driver
// panics if that invariant ever breaks, making the sweep itself a
// determinism check. ops_per_sec is machine-dependent, and
// producer/consumer overlap only shows wall-clock gains on multi-core
// hosts (on one core the async rows cost a small queue-handoff
// overhead instead).
func runAsyncSweep(o Opts) *Result {
	lines, totalOps := sizes(o.Mode)
	totalOps /= 2 // two patterns x two shard counts x four modes: keep quick mode quick
	res := &Result{
		ID:    "async-sweep",
		Title: "Async submission sweep (VCC 256, Opt.Energy, sync Apply vs pipelined Submit)",
		Header: []string{"pattern", "shards", "submit", "inflight", "writes", "reads",
			"energy_pJ", "SAW_cells", "ops_per_sec"},
		Notes: []string{
			"every row replays the same op budget (read fraction 0.6); sync rows use Apply, async rows keep N tickets in flight via Session-style Submit/Wait",
			"statistics columns are identical across submission modes by construction (per-shard queues preserve submission order); the driver verifies this",
			"ops_per_sec is wall-clock and machine-dependent; producer/consumer overlap only helps on multi-core hosts",
		},
	}
	const batchSize = 256
	const readFrac = 0.6
	for _, pat := range []string{"seq", "zipf"} {
		for _, shards := range []int{1, 4} {
			type rowStats struct {
				writes, reads, sawCells int64
				energy                  float64
			}
			var ref *rowStats
			for _, depth := range []int{0, 1, 4, 16} { // 0 = synchronous Apply
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
					panic(fmt.Sprintf("async-sweep: %v", err))
				}
				phases := sweepPattern(pat, lines, o.Seed)
				for i := range phases {
					phases[i].ReadFrac = readFrac
				}
				stream := workload.NewStream(o.Seed, phases...)
				fillRng := prng.NewFrom(o.Seed, "async-sweep-data:"+pat)
				fill := func(_ uint64, data []byte) { fillRng.Fill(data) }
				start := time.Now()
				if depth == 0 {
					runSyncStream("async-sweep", eng, stream, totalOps, batchSize, fill)
				} else if err := workload.RunPipelined(eng, stream, totalOps, workload.PipelineConfig{
					Batch: batchSize, Depth: depth, Fill: fill,
				}); err != nil {
					panic(fmt.Sprintf("async-sweep: %v", err))
				}
				elapsed := time.Since(start)
				st := eng.Stats()
				row := rowStats{writes: st.LineWrites, reads: st.LineReads,
					sawCells: st.SAWCells, energy: st.EnergyPJ}
				if ref == nil {
					r := row
					ref = &r
				} else if row != *ref {
					panic(fmt.Sprintf("async-sweep: %s/%d-shard stats diverge between submission modes: %+v vs %+v",
						pat, shards, row, *ref))
				}
				submit, inflight := "sync", "-"
				if depth > 0 {
					submit, inflight = "async", fmtI(int64(depth))
				}
				res.Rows = append(res.Rows, []string{
					pat, fmtI(int64(shards)), submit, inflight,
					fmtI(st.LineWrites), fmtI(st.LineReads),
					fmtF(st.EnergyPJ), fmtI(st.SAWCells),
					fmtF(float64(totalOps) / elapsed.Seconds()),
				})
				eng.Close()
			}
		}
	}
	return res
}
