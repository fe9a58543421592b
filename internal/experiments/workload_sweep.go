package experiments

import (
	"fmt"

	"repro/internal/coset"
	"repro/internal/prng"
	"repro/internal/shard"
	"repro/internal/workload"
)

func init() {
	registerOpts("workload-sweep",
		"mixed read/write op streams: energy and SAW across access patterns and read fractions",
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
// engine with workload.Drive — the loop shared by the workload-sweep and
// cache-sweep drivers. id labels the panic on engine errors.
func runSyncStream(id string, eng *shard.Engine, stream *workload.Stream,
	totalOps, batchSize int, fill func(uint64, []byte)) {
	left := totalOps
	next := func(op *shard.Op) bool {
		if left == 0 {
			return false
		}
		left--
		stream.FillOp(op, fill)
		return true
	}
	if err := workload.Drive(eng, next, batchSize); err != nil {
		panic(fmt.Sprintf("%s: %v", id, err))
	}
}

// runWorkloadSweep drives the sharded engine's mixed op path
// (Engine.Apply) with every workload pattern at read fractions 0-0.75
// (VCC 256, Opt.Energy, AES-CTR, 1e-2 faults — the fig9 configuration)
// and reports per-cell energy/SAW totals. With Opts.CacheLines > 0
// every engine runs behind the decoded-line cache and the cache columns
// light up (the uncached default reports them as zero/0.0%).
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
	title := fmt.Sprintf("Mixed op-stream sweep (VCC 256, Opt.Energy, %d shard(s)%s)", shards, cacheDesc)
	res := &Result{
		ID:    "workload-sweep",
		Title: title,
		Header: []string{"pattern", "read_frac", "writes", "reads",
			"energy_pJ", "pJ_per_write", "SAW_cells", "hit_rate", "coalesced"},
		Notes: []string{
			"every row replays the same op budget through Engine.Apply in mixed batches",
			"energy scales with the write fraction: reads decode without programming cells",
			"hit_rate/coalesced surface the decoded-line cache counters; they are zero at the uncached default (vccrepro -cachelines enables the cache; cache-sweep sweeps the cache dimension itself)",
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
			runSyncStream("workload-sweep", eng, stream, totalOps, batchSize, fill)
			eng.Flush() // write-back caches: account deferred RMWs in this row
			st := eng.Stats()
			perWrite := 0.0
			if st.LineWrites > 0 {
				perWrite = st.EnergyPJ / float64(st.LineWrites)
			}
			res.Rows = append(res.Rows, []string{
				pat, fmtF(rf), fmtI(st.LineWrites), fmtI(st.LineReads),
				fmtF(st.EnergyPJ), fmtF(perWrite), fmtI(st.SAWCells),
				fmtPct(100 * st.HitRate()), fmtI(st.CoalescedWrites),
			})
			eng.Close()
		}
	}
	return res
}
