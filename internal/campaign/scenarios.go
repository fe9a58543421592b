package campaign

// This file registers the built-in scenarios. Each is deterministic in
// its Params at any shard count, builds its engines from
// internal/shard directly (the same convention the experiments drivers
// follow), and reports a machine-checkable Summary alongside the table.

import (
	"bytes"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/coset"
	"repro/internal/linecache"
	"repro/internal/prng"
	"repro/internal/shard"
	"repro/internal/wearlevel"
)

func init() {
	Register("fault-aging",
		"age a wear-enabled memory until cells stick; checkpoint the lifetime-extension curve against the analytic ERCC model",
		runFaultAging)
	Register("remap-repair",
		"discover faults by verify-after-write and repair failing lines onto spares via the remapping decorator",
		runRemapRepair)
	Register("wearlevel-rotation",
		"rotate a hot write stream with Start-Gap and measure writes-to-first-cell-failure against the unrotated baseline",
		runWearRotation)
	Register("crash-recovery",
		"drop a write-back cache mid-stream and verify the recovered device against write-through oracle semantics",
		runCrashRecovery)
}

var campaignKey = [32]byte{0xC4, 0x3E, 0x19}

// cosetN is the paper's headline candidate count, shared by every
// scenario so the analytic comparisons line up.
const cosetN = 256

func orI(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func orI64(v, def int64) int64 {
	if v <= 0 {
		return def
	}
	return v
}

// --- fault-aging -------------------------------------------------------

// runFaultAging writes uniformly random (encrypted) data over a
// wear-enabled SLC memory until the write horizon, checkpointing the
// measured lifetime extension — unencoded expected flips per 64-bit
// word (32) over measured flips per word — against the analytic model
// 32/ERCC(64, N) from Equation 1. SLC is used because ERCC counts
// changed *bits* of the 64-bit block, which is exactly what an SLC cell
// stores; as wear accumulates, cells stick and the stuck-at-wrong count
// climbs, tracing how the encoder degrades with age.
func runFaultAging(p Params) *Result {
	lines := orI(p.Lines, 128)
	horizon := orI64(p.Horizon, 120_000)
	checkpoints := orI(p.Checkpoints, 8)
	eng, err := shard.New(shard.Config{
		Lines:           lines,
		Shards:          orI(p.Shards, 1),
		NewCodec:        func() coset.Codec { return coset.NewVCCStored(64, 16, cosetN, p.Seed) },
		Objective:       coset.ObjFlips,
		SLC:             true,
		Key:             campaignKey,
		EnduranceWrites: 6000,
		Seed:            p.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("campaign fault-aging: %v", err))
	}
	defer eng.Close()

	modelExt := 32 / analytic.ERCC(64, cosetN)
	res := &Result{
		Name:  "fault-aging",
		Title: fmt.Sprintf("Lifetime-extension curve vs analytic ERCC model (VCC %d, SLC, wear-enabled)", cosetN),
		Header: []string{"checkpoint", "line_writes", "flips_per_word",
			"ext_measured", "ext_model", "rel_err", "saw_cells", "failed_cells"},
		Notes: []string{
			"ext_measured = 32 / measured flips per 64-bit word; 32 is the unencoded expectation for random data",
			fmt.Sprintf("ext_model = 32 / ERCC(64, %d) = %.4g (Equation 1, best-of-N random cosets)", cosetN, modelExt),
			"VCC approximates random coset coding with stored kernels, so a modest gap to the model is expected",
			"saw_cells and failed_cells climb as wear exhausts cells: the encoder keeps masking until it cannot",
		},
		Summary: map[string]float64{"ext_model": modelExt},
	}

	addrRNG := prng.NewFrom(p.Seed, "campaign-aging-addr")
	dataRNG := prng.NewFrom(p.Seed, "campaign-aging-data")
	const batch = 256
	ops := make([]shard.Op, 0, batch)
	bufs := make([]byte, batch*shard.LineSize)
	var outs []shard.Outcome
	var written int64
	prev := eng.Stats()
	perCheckpoint := horizon / int64(checkpoints)
	if perCheckpoint < 1 {
		perCheckpoint = 1
	}
	for ck := 1; ck <= checkpoints; ck++ {
		target := written + perCheckpoint
		for written < target {
			n := batch
			if rem := target - written; rem < int64(n) {
				n = int(rem)
			}
			ops = ops[:0]
			for i := 0; i < n; i++ {
				data := bufs[i*shard.LineSize : (i+1)*shard.LineSize]
				dataRNG.Fill(data)
				ops = append(ops, shard.Op{
					Kind: shard.OpWrite, Line: addrRNG.Intn(lines), Data: data,
				})
			}
			out, err := eng.Apply(ops, outs)
			if err != nil {
				panic(fmt.Sprintf("campaign fault-aging: %v", err))
			}
			outs = out
			written += int64(n)
		}
		st := eng.Stats()
		d := st.Delta(prev)
		prev = st
		flipsPerWord := float64(d.BitFlips) / (8 * float64(d.LineWrites))
		extMeasured := 32 / flipsPerWord
		relErr := (extMeasured - modelExt) / modelExt
		if relErr < 0 {
			relErr = -relErr
		}
		res.Rows = append(res.Rows, []string{
			fmtI(int64(ck)), fmtI(written), fmtF(flipsPerWord),
			fmtF(extMeasured), fmtF(modelExt), fmtF(relErr),
			fmtI(st.SAWCells), fmtI(eng.FailedCells()),
		})
		res.Summary["rel_err_final"] = relErr
		res.Summary["ext_measured_final"] = extMeasured
	}
	res.Summary["failed_cells"] = float64(eng.FailedCells())
	res.Summary["line_writes"] = float64(written)
	return res
}

// --- remap-repair ------------------------------------------------------

// runRemapRepair runs the same faulty write workload against two
// engines — spares disabled and spares enabled — under the runtime
// fault repository. Faults are unknown until a verify-after-write
// catches them, so first writes to faulty words store stuck-at-wrong
// cells; with spares the remapping decorator relocates those lines and
// rewrites them, and the final read-back pass checks the repair
// contract: every line whose last write reported zero SAW cells must
// read back exactly what was written.
func runRemapRepair(p Params) *Result {
	lines := orI(p.Lines, 128)
	passes := int(orI64(p.Horizon, int64(3*lines)) / int64(lines))
	if passes < 1 {
		passes = 1
	}
	spares := lines / 4
	if spares < 1 {
		spares = 1
	}
	res := &Result{
		Name:  "remap-repair",
		Title: fmt.Sprintf("Fault discovery and line repair (VCC %d, MLC, 1e-2 faults, runtime fault repository)", cosetN),
		Header: []string{"config", "line_writes", "remapped", "repair_failures",
			"spares_left", "repo_stuck", "corrupt_lines", "clean_violations"},
		Notes: []string{
			"faults are discovered by verify-after-write: the repository starts empty and lags the device",
			"corrupt_lines counts lines whose read-back differs from the last written plaintext",
			"clean_violations counts corrupt lines whose final write nevertheless reported zero SAW cells — must be 0",
			"with spares=0 the decorator is absent and discovered-but-unmaskable faults stay corrupt",
		},
		Summary: map[string]float64{},
	}
	for _, cfg := range []struct {
		label  string
		spares int
	}{{"no-remap", 0}, {fmt.Sprintf("remap-%d", spares), spares}} {
		eng, err := shard.New(shard.Config{
			Lines:        lines,
			Shards:       orI(p.Shards, 1),
			NewCodec:     func() coset.Codec { return coset.NewVCCStored(64, 16, cosetN, p.Seed) },
			Objective:    coset.ObjSAWEnergy,
			Key:          campaignKey,
			FaultRate:    1e-2,
			Seed:         p.Seed,
			RemapSpares:  cfg.spares,
			UseFaultRepo: true,
		})
		if err != nil {
			panic(fmt.Sprintf("campaign remap-repair: %v", err))
		}
		dataRNG := prng.NewFrom(p.Seed, "campaign-remap-data:"+cfg.label)
		expected := make([]byte, lines*shard.LineSize)
		cleanWrite := make([]bool, lines)
		var lineWrites int64
		for pass := 0; pass < passes; pass++ {
			for l := 0; l < lines; l++ {
				data := expected[l*shard.LineSize : (l+1)*shard.LineSize]
				dataRNG.Fill(data)
				saw, err := eng.Write(l, data)
				if err != nil {
					panic(fmt.Sprintf("campaign remap-repair: %v", err))
				}
				cleanWrite[l] = saw == 0
				lineWrites++
			}
		}
		corrupt, violations := 0, 0
		rd := make([]byte, shard.LineSize)
		for l := 0; l < lines; l++ {
			got, err := eng.Read(l, rd)
			if err != nil {
				panic(fmt.Sprintf("campaign remap-repair: %v", err))
			}
			if !bytes.Equal(got, expected[l*shard.LineSize:(l+1)*shard.LineSize]) {
				corrupt++
				if cleanWrite[l] {
					violations++
				}
			}
		}
		st := eng.Stats()
		repo := eng.FaultRepoStats()
		res.Rows = append(res.Rows, []string{
			cfg.label, fmtI(lineWrites), fmtI(st.RemappedLines), fmtI(st.RepairFailures),
			fmtI(int64(eng.SpareLinesLeft())), fmtI(repo.Discovered),
			fmtI(int64(corrupt)), fmtI(int64(violations)),
		})
		if cfg.spares == 0 {
			res.Summary["corrupt_baseline"] = float64(corrupt)
		} else {
			res.Summary["corrupt_remap"] = float64(corrupt)
			res.Summary["remapped_lines"] = float64(st.RemappedLines)
			res.Summary["spares_left"] = float64(eng.SpareLinesLeft())
		}
		res.Summary["verify_violations"] += float64(violations)
		eng.Close()
	}
	return res
}

// --- wearlevel-rotation ------------------------------------------------

// runWearRotation drives an identical hot-spot write stream into two
// identically-seeded wear-enabled engines — one addressed directly, one
// through Start-Gap rotation (gap copies are real engine writes and
// wear cells, as in internal/lifetime) — and measures how many writes
// each survives before the first cell exhausts its endurance.
func runWearRotation(p Params) *Result {
	lines := orI(p.Lines, 32)
	horizon := orI64(p.Horizon, 120_000)
	// The gap must sweep the whole array many times before the weakest
	// hot cell dies, or the mapping never rotates hot lines off their
	// physical rows; one full sweep costs (lines+1)*gapInterval writes.
	const gapInterval = 8
	const pollEvery = 64
	hot := lines / 8
	if hot < 1 {
		hot = 1
	}
	res := &Result{
		Name:  "wearlevel-rotation",
		Title: fmt.Sprintf("Start-Gap rotation under a hot-spot stream (VCC %d, MLC, wear-enabled)", cosetN),
		Header: []string{"config", "writes_to_first_fail", "capped",
			"gap_moves", "failed_cells"},
		Notes: []string{
			fmt.Sprintf("70%% of writes hit the first %d of %d lines; both engines replay the same logical stream", hot, lines),
			fmt.Sprintf("rotation: Start-Gap over %d physical lines, gap moves every %d writes; each move copies one line through the engine (real wear)", lines+1, gapInterval),
			"first-fail is polled every " + fmt.Sprint(pollEvery) + " writes, so counts are quantized to that grain",
		},
		Summary: map[string]float64{},
	}
	firstFail := map[string]float64{}
	for _, rotate := range []bool{false, true} {
		// Both engines have lines+1 physical rows (the rotated one needs
		// the Start-Gap spare; the baseline just never touches it), so
		// the per-cell endurance draws are identical.
		eng, err := shard.New(shard.Config{
			Lines:           lines + 1,
			Shards:          1,
			NewCodec:        func() coset.Codec { return coset.NewVCCStored(64, 16, cosetN, p.Seed) },
			Objective:       coset.ObjFlips,
			Key:             campaignKey,
			EnduranceWrites: 4000,
			Seed:            p.Seed,
		})
		if err != nil {
			panic(fmt.Sprintf("campaign wearlevel-rotation: %v", err))
		}
		var sg *wearlevel.StartGap
		label := "direct"
		if rotate {
			sg = wearlevel.NewStartGap(lines, gapInterval)
			label = "start-gap"
		}
		addrRNG := prng.NewFrom(p.Seed, "campaign-rotate-addr")
		dataRNG := prng.NewFrom(p.Seed, "campaign-rotate-data")
		data := make([]byte, shard.LineSize)
		copyBuf := make([]byte, shard.LineSize)
		var writes int64
		failedAt := int64(-1)
		for writes < horizon {
			logical := addrRNG.Intn(lines)
			if addrRNG.Float64() < 0.7 {
				logical = addrRNG.Intn(hot)
			}
			dataRNG.Fill(data)
			row := logical
			if sg != nil {
				row = sg.Map(logical)
			}
			if _, err := eng.Write(row, data); err != nil {
				panic(fmt.Sprintf("campaign wearlevel-rotation: %v", err))
			}
			writes++
			if sg != nil {
				if from, to, moved := sg.OnWrite(); moved {
					// Relocate the displaced row through the engine: the
					// copy re-encodes and wears cells, the real Start-Gap
					// overhead.
					got, err := eng.Read(from, copyBuf)
					if err != nil {
						panic(fmt.Sprintf("campaign wearlevel-rotation: %v", err))
					}
					if _, err := eng.Write(to, got); err != nil {
						panic(fmt.Sprintf("campaign wearlevel-rotation: %v", err))
					}
				}
			}
			if failedAt < 0 && writes%pollEvery == 0 && eng.FailedCells() > 0 {
				failedAt = writes
				break
			}
		}
		capped := "no"
		if failedAt < 0 {
			failedAt = horizon
			capped = "yes"
		}
		var moves int64
		if sg != nil {
			moves = sg.GapMoves()
		}
		res.Rows = append(res.Rows, []string{
			label, fmtI(failedAt), capped, fmtI(moves), fmtI(eng.FailedCells()),
		})
		firstFail[label] = float64(failedAt)
		eng.Close()
	}
	res.Summary["first_fail_direct"] = firstFail["direct"]
	res.Summary["first_fail_rotated"] = firstFail["start-gap"]
	res.Summary["extension"] = firstFail["start-gap"] / firstFail["direct"]
	return res
}

// --- crash-recovery ----------------------------------------------------

// runCrashRecovery fills a write-back cached engine, commits everything
// with a Flush, rewrites a subset of lines without flushing, then drops
// the volatile caches mid-stream (a simulated power cut) and verifies
// the recovered device against write-through oracle semantics: a
// rewritten line that was still dirty at the crash must read back its
// last committed (phase-1) content, a rewritten line that had already
// been evicted to the device must read back its phase-2 content, and
// every untouched line keeps phase-1. Exactly one phase-2 write per
// line makes the oracle exact: the dirty set snapshot fully determines
// which version the device holds.
func runCrashRecovery(p Params) *Result {
	lines := orI(p.Lines, 256)
	shards := orI(p.Shards, 1)
	perShardCache := orI(lines/(8*shards), 4)
	eng, err := shard.New(shard.Config{
		Lines:       lines,
		Shards:      shards,
		NewCodec:    func() coset.Codec { return coset.NewVCCStored(64, 16, cosetN, p.Seed) },
		Objective:   coset.ObjEnergySAW,
		Key:         campaignKey,
		Seed:        p.Seed,
		CacheLines:  perShardCache,
		CachePolicy: linecache.WriteBack,
	})
	if err != nil {
		panic(fmt.Sprintf("campaign crash-recovery: %v", err))
	}
	defer eng.Close()

	dataRNG := prng.NewFrom(p.Seed, "campaign-crash-data")
	phase1 := make([]byte, lines*shard.LineSize)
	phase2 := make([]byte, lines*shard.LineSize)

	// Phase 1: write every line, then Flush — all of it is committed.
	for l := 0; l < lines; l++ {
		data := phase1[l*shard.LineSize : (l+1)*shard.LineSize]
		dataRNG.Fill(data)
		if _, err := eng.Write(l, data); err != nil {
			panic(fmt.Sprintf("campaign crash-recovery: %v", err))
		}
	}
	eng.Flush()

	// Phase 2: rewrite every other line once, no flush. The subset is
	// larger than the cache, so some rewrites are evicted to the device
	// (committed) and the rest are still dirty when the power cuts.
	rewritten := make([]bool, lines)
	for l := 0; l < lines; l += 2 {
		data := phase2[l*shard.LineSize : (l+1)*shard.LineSize]
		dataRNG.Fill(data)
		if _, err := eng.Write(l, data); err != nil {
			panic(fmt.Sprintf("campaign crash-recovery: %v", err))
		}
		rewritten[l] = true
	}

	// Crash: snapshot what is about to be lost, then lose it.
	dirty := eng.DirtyLines()
	isDirty := make(map[int]bool, len(dirty))
	for _, l := range dirty {
		isDirty[l] = true
	}
	eng.DropCaches()

	// Recovery: read every line from device state and check the oracle.
	violations, committed := 0, 0
	rd := make([]byte, shard.LineSize)
	for l := 0; l < lines; l++ {
		want := phase1[l*shard.LineSize : (l+1)*shard.LineSize]
		if rewritten[l] && !isDirty[l] {
			want = phase2[l*shard.LineSize : (l+1)*shard.LineSize]
			committed++
		}
		got, err := eng.Read(l, rd)
		if err != nil {
			panic(fmt.Sprintf("campaign crash-recovery: %v", err))
		}
		if !bytes.Equal(got, want) {
			violations++
		}
	}
	st := eng.Stats()
	res := &Result{
		Name:  "crash-recovery",
		Title: fmt.Sprintf("Write-back cache power loss and device-state recovery (%d lines, %d shard(s), %d cache lines/shard)", lines, shards, perShardCache),
		Header: []string{"lines", "rewritten", "dirty_lost", "evicted_committed",
			"writebacks", "verify_violations"},
		Rows: [][]string{{
			fmtI(int64(lines)), fmtI(int64((lines + 1) / 2)), fmtI(int64(len(dirty))),
			fmtI(int64(committed)), fmtI(st.Writebacks), fmtI(int64(violations)),
		}},
		Notes: []string{
			"dirty_lost lines revert to their last committed (phase-1) content; evicted_committed lines keep phase-2",
			"the coset aux bits and any remap table live in the device's persistent metadata region, so both survive the crash",
			"verify_violations must be 0: device state after DropCaches is exactly the committed write-through history",
		},
		Summary: map[string]float64{
			"verify_violations": float64(violations),
			"dirty_lost":        float64(len(dirty)),
			"evicted_committed": float64(committed),
		},
	}
	return res
}
