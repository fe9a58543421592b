package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	vcc "repro"
)

// window is what one measured window counted, over all lanes.
type window struct {
	tally
	timing  timing
	elapsed time.Duration
	// sim, simOps and simWrites cover only the window's fixed-length
	// head (spec.simOps per stream); repo too.
	sim               vcc.Stats
	repo              vcc.FaultRepoStats
	simOps, simWrites int64
	// rssMB is the process's peak resident set at the end of the head.
	rssMB  float64
	wire   int64
	allocs float64
	gcFrac float64
}

// runtimeSample reads the process's heap allocation count and its GC
// and total CPU time.
func runtimeSample() (allocs, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// measure runs the measured window on a system that has been prefilled
// and warmed up: the fixed head of spec.simOps per stream, then, when
// seconds > 0, more traffic until seconds have passed since the window
// began. Every request of the window is timed.
func measure(sys *system, lanes []lane, seconds float64) (window, error) {
	var win window
	// Start every window from a collected heap, so that when the
	// collector runs during the window, and how large the heap grows,
	// does not depend on what set-up and warm-up left behind.
	runtime.GC()
	s0, r0, b0 := sys.mem.Stats(), sys.mem.FaultRepoStats(), sys.wireBytes()
	a0, gc0, cpu0 := runtimeSample()
	t0 := time.Now()
	timed := newSlicer(sys.w.batch, t0)
	for _, l := range lanes {
		l.counts().reset(timed)
	}
	if err := runPhase(lanes, sys.w.simOps, time.Time{}); err != nil {
		return win, err
	}
	s1, r1 := sys.mem.Stats(), sys.mem.FaultRepoStats()
	// The head is the same work at any speed; past it, a faster build
	// serves more requests, and with them makes more garbage.
	rss, err := peakRSSMB()
	if err != nil {
		return win, err
	}
	win.rssMB = rss
	for _, l := range lanes {
		win.simOps += l.counts().ops
		win.simWrites += l.counts().writes
	}
	if seconds > 0 {
		deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
		if err := runPhase(lanes, 0, deadline); err != nil {
			return win, err
		}
	}
	win.elapsed = time.Since(t0)
	a1, gc1, cpu1 := runtimeSample()
	win.sim = s1.Delta(s0)
	win.repo = vcc.FaultRepoStats{
		Lookups:    r1.Lookups - r0.Lookups,
		CacheHits:  r1.CacheHits - r0.CacheHits,
		CacheMiss:  r1.CacheMiss - r0.CacheMiss,
		Discovered: r1.Discovered - r0.Discovered,
		Evictions:  r1.Evictions - r0.Evictions,
	}
	win.wire = sys.wireBytes() - b0
	win.allocs = a1 - a0
	if cpu1 > cpu0 {
		win.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	win.perShard = make([]int64, sys.w.shards)
	for _, l := range lanes {
		c := l.counts()
		win.ops += c.ops
		win.writes += c.writes
		win.reqs += c.reqs
		win.failed += c.failed
		for s, n := range c.perShard {
			win.perShard[s] += n
		}
		c.timed = nil
	}
	win.timing = timed.timing()
	return win, nil
}

// warm prefills and warms up a freshly built system, returning the
// lanes ready for measure and the number of failed warm-up ops.
func warm(sys *system, seed uint64, logs []*spanLog, direct bool) ([]lane, int64, error) {
	streams, err := newStreams(sys.w, seed)
	if err != nil {
		return nil, 0, err
	}
	failed, err := prefill(sys.mem, streams)
	if err != nil {
		return nil, failed, fmt.Errorf("prefill: %w", err)
	}
	lanes := newLanes(sys, streams, logs, direct)
	if err := runPhase(lanes, sys.w.warmOps, time.Time{}); err != nil {
		return nil, failed, fmt.Errorf("warm-up: %w", err)
	}
	for _, l := range lanes {
		failed += l.counts().failed
	}
	return lanes, failed, nil
}

// outcome is one invocation's result: the last line the benchmark
// prints, plus the detail it reports on the line before.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	checks            []string // failed output checks
	detail            map[string]any
}

func (o *outcome) checkf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// measureEndToEnd is the untraced run: set the system up several
// times, keep the last one, and measure one window of the given length.
func measureEndToEnd(w spec, seed uint64, seconds float64) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	const setups = 5
	var setup []float64
	var sys *system
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if sys, err = build(w, seed, w.newEncoder); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer sys.close()
	lanes, warmFailed, err := warm(sys, seed, nil, false)
	if err != nil {
		return nil, err
	}
	if warmFailed > 0 {
		o.checkf("%d ops failed before the measured window", warmFailed)
	}
	win, err := measure(sys, lanes, seconds)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = win.ops, win.failed
	t := win.timing
	m := o.metrics
	m["ops_per_s"] = t.opsPerS
	m["p50_us"] = t.p50 / 1e3
	m["p99_us"] = t.p99 / 1e3
	m["energy_pj_per_write"] = win.sim.EnergyPJ / float64(win.simWrites)
	m["write_amplification"] = float64(win.sim.LineWrites) / float64(win.simWrites)
	m["setup_s"] = median(setup)
	m["peak_rss_mb"] = win.rssMB
	o.detail["requests"] = t.requests
	o.detail["slices"] = t.slices
	o.detail["tail_percentile"] = t.tail
	o.detail["window_s"] = win.elapsed.Seconds()
	o.detail["window_ops_per_s"] = float64(win.ops) / win.elapsed.Seconds()
	o.detail["setup_runs_s"] = setup
	o.detail["sim_ops"] = win.simOps
	o.detail["sim_stats"] = win.sim
	return o, nil
}

// measureLayers is the traced run. It measures the window head three
// times on fresh systems: untraced (for the overhead baseline and the
// runtime counters), with span logs on, and for served workloads
// through direct Apply calls instead of the wire. Then it replays
// shard 0's op stream through a hand-built, timed store stack.
func measureLayers(w spec, seed uint64, traceOut string) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
	m := o.metrics
	pass := func(newEnc func() vcc.Encoder, logs []*spanLog, on *atomic.Bool, direct bool) (window, error) {
		bw := w
		if direct {
			bw.served = false
		}
		sys, err := build(bw, seed, newEnc)
		if err != nil {
			return window{}, err
		}
		defer sys.close()
		lanes, warmFailed, err := warm(sys, seed, logs, direct)
		if err != nil {
			return window{}, err
		}
		if warmFailed > 0 {
			o.checkf("%d ops failed before the measured window", warmFailed)
		}
		if on != nil {
			on.Store(true)
			defer on.Store(false)
		}
		win, err := measure(sys, lanes, 0)
		o.attempted += win.ops
		o.failed += win.failed
		return win, err
	}

	plain, err := pass(w.newEncoder, nil, nil, false)
	if err != nil {
		return nil, err
	}

	epoch := time.Now()
	on := new(atomic.Bool)
	var mu sync.Mutex
	var codecLogs []*spanLog
	tracedEnc := func() vcc.Encoder {
		mu.Lock()
		defer mu.Unlock()
		log := newSpanLog(fmt.Sprintf("codec-%d", len(codecLogs)), epoch, 4096, on)
		codecLogs = append(codecLogs, log)
		return traceCodec(w.newEncoder(), log)
	}
	laneLogs := make([]*spanLog, w.streams)
	for i := range laneLogs {
		laneLogs[i] = newSpanLog(fmt.Sprintf("lane-%d", i), epoch, 1<<16, on)
	}
	traced, err := pass(tracedEnc, laneLogs, on, false)
	if err != nil {
		return nil, err
	}
	if w.deterministic() && !sameStats(plain.sim, traced.sim, !w.served) {
		o.checkf("traced run's simulated stats %+v differ from the untraced run's %+v", traced.sim, plain.sim)
	}

	perReq := func(logs []*spanLog, name spanName) float64 { return sumAgg(logs, name).mean() / 1e3 }
	m["loadgen.gen_us_per_req"] = perReq(laneLogs, spanGen)
	m["shard.submit_block_us_per_req"] = perReq(laneLogs, spanSubmit)
	if w.served {
		direct, err := pass(w.newEncoder, nil, nil, true)
		if err != nil {
			return nil, err
		}
		m["server.wire_bytes_per_op"] = ratio(plain.wire, plain.ops)
		m["server.overhead_us_per_req"] = (plain.timing.meanLat - direct.timing.meanLat) / 1e3
	} else {
		m["server.wire_bytes_per_op"] = 0
		m["server.overhead_us_per_req"] = 0
	}
	var maxShard int64
	for _, n := range plain.perShard {
		maxShard = max(maxShard, n)
	}
	m["shard.imbalance"] = ratio(float64(maxShard)*float64(len(plain.perShard)), float64(plain.ops))

	sim, writes, ops := plain.sim, float64(plain.simWrites), float64(plain.simOps)
	m["shard.error_retries"] = float64(sim.ErrorRetries)
	m["linecache.hit_frac"] = ratio(sim.CacheHits, sim.CacheHits+sim.CacheMisses)
	m["linecache.coalesced_frac"] = ratio(float64(sim.CoalescedWrites), writes)
	m["linecache.evictions_per_kop"] = ratio(float64(sim.CacheEvictions)*1e3, ops)
	m["memctrl.remap.remapped_per_kwrite"] = ratio(float64(sim.RemappedLines)*1e3, writes)
	m["memctrl.remap.repair_failures"] = float64(sim.RepairFailures)
	m["faultrepo.hit_frac"] = ratio(plain.repo.CacheHits, plain.repo.Lookups)
	m["faultrepo.discovered_per_kwrite"] = ratio(float64(plain.repo.Discovered)*1e3, writes)
	m["device.saw_cells_per_kwrite"] = ratio(float64(sim.SAWCells)*1e3, writes)
	m["coset.bit_flips_per_write"] = ratio(sim.BitFlips, sim.LineWrites)
	m["coset.cell_changes_per_write"] = ratio(sim.CellChanges, sim.LineWrites)
	enc, dec := sumAgg(codecLogs, spanEncode), sumAgg(codecLogs, spanDecode)
	m["coset.encode_ns_per_word"] = enc.mean()
	m["coset.encode_busy_frac"] = float64(enc.ns) / (float64(traced.elapsed) * float64(w.shards))
	m["coset.decode_ns_per_line"] = ratio(dec.ns, traced.sim.LineReads)
	m["runtime.allocs_per_op"] = ratio(plain.allocs, ops)
	m["runtime.gc_cpu_frac"] = plain.gcFrac
	untracedRate, tracedRate := plain.timing.opsPerS, traced.timing.opsPerS
	m["trace.overhead_frac"] = 1 - ratio(tracedRate, untracedRate)

	rep, err := replay(w, seed, epoch)
	if err != nil {
		return nil, err
	}
	o.checks = append(o.checks, rep.checks...)
	o.attempted += rep.ops
	o.failed += rep.failed
	perOp := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += rep.self[n]
		}
		return ratio(ns, rep.ops)
	}
	perSpan := func(name spanName) float64 { return ratio(rep.self[name], rep.log.agg[name].n) }
	var attributed int64
	for _, ns := range rep.self {
		attributed += ns
	}
	m["replay.ns_per_op"] = ratio(int64(rep.wall), rep.ops)
	m["replay.attributed_frac"] = ratio(attributed, int64(rep.wall))
	m["linecache.self_ns_per_op"] = perOp(spanCacheW, spanCacheR)
	m["memctrl.remap.self_ns_per_op"] = perOp(spanRemapW, spanRemapR)
	m["memctrl.write_self_ns_per_line"] = perSpan(spanCtlWrite)
	m["memctrl.read_self_ns_per_line"] = perSpan(spanCtlRead)
	m["memctrl.remap.inplace_retries_per_kwrite"] = ratio(float64(rep.inPlaceRetries)*1e3, float64(rep.writes))

	o.detail["untraced_ops_per_s"] = untracedRate
	o.detail["traced_ops_per_s"] = tracedRate
	o.detail["sim_stats"] = plain.sim
	selfNS := map[string]int64{}
	for n, ns := range rep.self {
		if ns != 0 {
			selfNS[spanName(n).String()] = ns
		}
	}
	o.detail["replay_self_ns"] = selfNS
	if traceOut != "" {
		logs := append(append(laneLogs, codecLogs...), rep.log)
		if err := writeSpans(traceOut, logs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sameStats reports whether two runs simulated the same thing. Served
// runs sum each shard's energy in the order the two connections'
// requests happened to reach it, so their float total may differ in
// the last bits; every count must still match exactly.
func sameStats(a, b vcc.Stats, exact bool) bool {
	if exact {
		return a == b
	}
	ea, eb := a.EnergyPJ, b.EnergyPJ
	a.EnergyPJ, b.EnergyPJ = 0, 0
	return a == b && math.Abs(ea-eb) <= 1e-9*math.Max(math.Abs(ea), math.Abs(eb))
}

func ratio[T int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
