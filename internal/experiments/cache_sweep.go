package experiments

import (
	"fmt"

	"repro/internal/coset"
	"repro/internal/linecache"
	"repro/internal/prng"
	"repro/internal/shard"
	"repro/internal/workload"
)

func init() {
	registerOpts("cache-sweep",
		"decoded-line cache in front of the controller: hit rate, device writes and energy across cache size x policy x pattern x read fraction",
		runCacheSweep)
}

// cacheSweepConfigs is the cache dimension of the sweep: off, then two
// capacities under each write policy.
var cacheSweepConfigs = []struct {
	lines  int
	policy linecache.Policy
}{
	{0, linecache.WriteThrough}, // uncached baseline
	{64, linecache.WriteThrough},
	{64, linecache.WriteBack},
	{256, linecache.WriteThrough},
	{256, linecache.WriteBack},
}

// runCacheSweep drives the sharded engine's mixed op path through the
// decoded-line cache stack (VCC 256, Opt.Energy, AES-CTR, 1e-2 faults —
// the fig9 configuration, like workload-sweep) over locality-heavy and
// streaming patterns at SPEC-like read fractions, for every cache
// configuration. Each engine is Flushed before its statistics are
// collected, so write-back rows account every deferred device RMW.
func runCacheSweep(o Opts) *Result {
	lines, totalOps := sizes(o.Mode)
	totalOps /= 2 // two patterns x two fractions x five cache configs: keep quick mode quick
	shards := o.Shards
	if shards <= 0 {
		shards = 1
	}
	res := &Result{
		ID:    "cache-sweep",
		Title: fmt.Sprintf("Decoded-line cache sweep (VCC 256, Opt.Energy, %d shard(s))", shards),
		Header: []string{"pattern", "read_frac", "cache", "policy", "device_writes",
			"hit_rate", "coalesced", "energy_pJ", "SAW_cells"},
		Notes: []string{
			"every row replays the same op budget through Engine.Apply; cache=0 is the uncached baseline",
			"hit_rate is reads served from decoded plaintext without decode+decrypt",
			"device_writes counts coset RMWs actually programmed; write-back rows include the final Flush",
			"coalesced counts writes absorbed into an already-dirty cached line (device work eliminated)",
			"energy falls with device_writes: deferral coalesces hot-line writebacks into one RMW",
		},
	}
	const batchSize = 256
	for _, pat := range []string{"zipf", "seq"} {
		for _, rf := range []float64{0.55, 0.78} { // the SPEC read-fraction envelope
			for _, cc := range cacheSweepConfigs {
				eng, err := shard.New(shard.Config{
					Lines:       lines,
					Shards:      shards,
					NewCodec:    func() coset.Codec { return coset.NewVCCStored(64, 16, 256, o.Seed) },
					Objective:   coset.ObjEnergySAW,
					Key:         simKey,
					FaultRate:   1e-2,
					Seed:        o.Seed,
					CacheLines:  cc.lines,
					CachePolicy: cc.policy,
				})
				if err != nil {
					panic(fmt.Sprintf("cache-sweep: %v", err))
				}
				phases := sweepPattern(pat, lines, o.Seed)
				for i := range phases {
					phases[i].ReadFrac = rf
				}
				stream := workload.NewStream(o.Seed, phases...)
				fillRng := prng.NewFrom(o.Seed, "cache-sweep-data:"+pat)
				fill := func(_ uint64, data []byte) { fillRng.Fill(data) }
				runSyncStream("cache-sweep", eng, stream, totalOps, batchSize, fill)
				eng.Flush() // write-back: account every deferred RMW
				st := eng.Stats()
				cacheCol, policyCol := "off", "-"
				if cc.lines > 0 {
					cacheCol, policyCol = fmtI(int64(cc.lines)), cc.policy.String()
				}
				res.Rows = append(res.Rows, []string{
					pat, fmtF(rf), cacheCol, policyCol, fmtI(st.LineWrites),
					fmtPct(100 * st.HitRate()), fmtI(st.CoalescedWrites),
					fmtF(st.EnergyPJ), fmtI(st.SAWCells),
				})
				eng.Close()
			}
		}
	}
	return res
}
