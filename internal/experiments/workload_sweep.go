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
	registerOpts("workload-sweep",
		"mixed read/write op streams: energy/SAW/throughput across access patterns and read fractions",
		runWorkloadSweep)
}

// sweepPattern builds one named access pattern over the sweep footprint.
// "phased" alternates a streaming phase with a pointer-chasing phase to
// exercise the workload package's phase mixing.
func sweepPattern(name string, lines int, seed uint64) []workload.Phase {
	mk := func(p workload.Pattern, frac float64) []workload.Phase {
		return []workload.Phase{{Pattern: p, ReadFrac: frac}}
	}
	switch name {
	case "seq":
		return mk(workload.NewSequential(lines), 0)
	case "zipf":
		return mk(workload.NewZipfHot(lines, 1.3, prng.NewFrom(seed, "sweep-zipf")), 0)
	case "stride":
		return mk(workload.NewStrided(lines, 17), 0)
	case "chase":
		return mk(workload.NewPointerChase(lines, prng.NewFrom(seed, "sweep-chase")), 0)
	case "phased":
		return []workload.Phase{
			{Pattern: workload.NewSequential(lines), Ops: 512},
			{Pattern: workload.NewPointerChase(lines, prng.NewFrom(seed, "sweep-phase-chase")), Ops: 512},
		}
	default:
		panic("workload-sweep: unknown pattern " + name)
	}
}

// runSyncStream replays totalOps accesses from the stream through the
// engine with synchronous batched Apply and reused buffers — the
// non-pipelined baseline loop shared by the workload-sweep, cache-sweep
// and async-sweep drivers. id labels the panic on engine errors.
func runSyncStream(id string, eng *shard.Engine, stream *workload.Stream,
	totalOps, batchSize int, fill func(uint64, []byte)) {
	ops := make([]shard.Op, batchSize)
	bufs := make([]byte, batchSize*shard.LineSize)
	var outs []shard.Outcome
	for done := 0; done < totalOps; {
		n := batchSize
		if totalOps-done < n {
			n = totalOps - done
		}
		for i := 0; i < n; i++ {
			ops[i].Data = bufs[i*shard.LineSize : (i+1)*shard.LineSize]
			stream.FillOp(&ops[i], fill)
		}
		var err error
		if outs, err = eng.Apply(ops[:n], outs); err != nil {
			panic(fmt.Sprintf("%s: %v", id, err))
		}
		done += n
	}
}

// runWorkloadSweep drives the sharded engine's mixed op path
// (Engine.Apply) with every workload pattern at read fractions 0-0.75
// (VCC 256, Opt.Energy, AES-CTR, 1e-2 faults — the fig9 configuration)
// and reports per-cell energy/SAW totals alongside wall-clock
// throughput. With Opts.CacheLines > 0 every engine runs behind the
// decoded-line cache and the cache columns light up (the uncached
// default reports them as zero/0.0%). All statistics columns are
// deterministic in (mode, seed, shards, cache); only the ops/sec
// column is machine-dependent.
func runWorkloadSweep(o Opts) *Result {
	lines, totalOps := sizes(o.Mode)
	shards := o.Shards
	if shards <= 0 {
		shards = 1
	}
	cacheDesc := ""
	if o.CacheLines > 0 {
		cacheDesc = fmt.Sprintf(", %d-line %s cache/shard", o.CacheLines, o.CachePolicy)
	}
	if o.InFlight > 0 {
		cacheDesc += fmt.Sprintf(", async x%d in flight", o.InFlight)
	}
	title := fmt.Sprintf("Mixed op-stream sweep (VCC 256, Opt.Energy, %d shard(s)%s)", shards, cacheDesc)
	res := &Result{
		ID:    "workload-sweep",
		Title: title,
		Header: []string{"pattern", "read_frac", "writes", "reads",
			"energy_pJ", "pJ_per_write", "SAW_cells", "hit_rate", "coalesced", "ops_per_sec"},
		Notes: []string{
			"every row replays the same op budget through Engine.Apply in mixed batches",
			"energy scales with the write fraction: reads decode without programming cells",
			"hit_rate/coalesced surface the decoded-line cache counters; they are zero at the uncached default (vccrepro -cachelines enables the cache; cache-sweep sweeps the cache dimension itself)",
			"with Opts.InFlight > 0 (vccrepro -inflight) the stream goes through the pipelined async Submit path; statistics are identical, only ops_per_sec can move (async-sweep sweeps the in-flight dimension itself)",
			"ops_per_sec is wall-clock and machine-dependent; all other columns are deterministic in (mode, seed, shards, cache)",
			"the phased pattern alternates 512-op streaming and pointer-chase phases (phase mixing)",
		},
	}
	const batchSize = 256
	for _, pat := range []string{"seq", "zipf", "stride", "chase", "phased"} {
		for _, rf := range []float64{0, 0.25, 0.5, 0.75} {
			eng, err := shard.New(shard.Config{
				Lines:       lines,
				Shards:      shards,
				NewCodec:    func() coset.Codec { return coset.NewVCCStored(64, 16, 256, o.Seed) },
				Objective:   coset.ObjEnergySAW,
				Key:         simKey,
				FaultRate:   1e-2,
				Seed:        o.Seed,
				CacheLines:  o.CacheLines,
				CachePolicy: o.CachePolicy,
			})
			if err != nil {
				panic(fmt.Sprintf("workload-sweep: %v", err))
			}
			phases := sweepPattern(pat, lines, o.Seed)
			for i := range phases {
				phases[i].ReadFrac = rf
			}
			stream := workload.NewStream(o.Seed, phases...)
			fillRng := prng.NewFrom(o.Seed, "sweep-data:"+pat)
			fill := func(_ uint64, data []byte) { fillRng.Fill(data) }
			start := time.Now()
			if o.InFlight > 0 {
				// Same op sequence through the pipelined async path:
				// statistics are unchanged, only wall clock can move.
				if err := workload.RunPipelined(eng, stream, totalOps, workload.PipelineConfig{
					Batch: batchSize, Depth: o.InFlight, Fill: fill,
				}); err != nil {
					panic(fmt.Sprintf("workload-sweep: %v", err))
				}
			} else {
				runSyncStream("workload-sweep", eng, stream, totalOps, batchSize, fill)
			}
			eng.Flush() // write-back caches: account deferred RMWs in this row
			elapsed := time.Since(start)
			st := eng.Stats()
			perWrite := 0.0
			if st.LineWrites > 0 {
				perWrite = st.EnergyPJ / float64(st.LineWrites)
			}
			res.Rows = append(res.Rows, []string{
				pat, fmtF(rf), fmtI(st.LineWrites), fmtI(st.LineReads),
				fmtF(st.EnergyPJ), fmtF(perWrite), fmtI(st.SAWCells),
				fmtPct(100 * st.HitRate()), fmtI(st.CoalescedWrites),
				fmtF(float64(totalOps) / elapsed.Seconds()),
			})
			eng.Close()
		}
	}
	return res
}
