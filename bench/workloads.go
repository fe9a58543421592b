package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	vcc "repro"
	"repro/internal/prng"
	"repro/internal/workload"
)

// spec is one workload: a fixed system configuration plus a fixed
// traffic mix. Nothing in it varies between runs; the seed given on the
// command line is the only input that does.
type spec struct {
	name string
	// served workloads reach the engine through an in-process
	// server.Server over loopback TCP; the others drive the
	// vcc.ShardedMemory facade directly.
	served bool

	lines, shards int
	slc           bool
	objective     vcc.Objective
	newEncoder    func() vcc.Encoder
	faultRate     float64
	faultRepo     bool
	spares        int // remap spare lines per shard (0 = no remapper)
	cacheLines    int // write-back cache lines per shard (0 = uncached)

	mix      string
	readFrac float64
	// streams is the number of producers (engine) or connections
	// (served). Stream i owns lines [i*lines/streams, (i+1)*lines/streams),
	// which for served workloads is exactly tenant i's slice.
	streams int
	batch   int // ops per ticket (engine) or per BATCH frame (served)
	// inflight is how many tickets an engine producer keeps submitted;
	// a served connection always has one request in flight.
	inflight int

	// warmOps is the untimed warm-up per stream, after every line has
	// been written once.
	warmOps int
	// simOps is the head of the measured window, per stream, over which
	// the simulated metrics (energy, write amplification, device
	// counters) are taken. Fixing it in ops rather than seconds keeps
	// those metrics a function of the seed alone: a faster build does
	// more ops in the window but simulates the same ones here.
	simOps int
	// replayOps is how many shard-0 ops the traced stack replay times.
	replayOps int
}

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []spec{
	{
		// The paper's headline path: encrypted MLC writes under the
		// energy objective. Coset encode dominates; no server, no cache.
		name:       "write-uniform-energy",
		lines:      262144,
		shards:     2,
		objective:  vcc.OptEnergy,
		newEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		mix:        "chase:1",
		streams:    1,
		batch:      64,
		inflight:   4,
		warmOps:    32768,
		simOps:     262144,
		replayOps:  16384,
	},
	{
		// A hot set that fits the write-back cache: the wire, admission,
		// per-ticket stats folding and the cache dominate, so a codec
		// change should leave this workload unchanged.
		name:       "served-zipf-cached",
		served:     true,
		lines:      262144,
		shards:     2,
		objective:  vcc.OptFlips,
		newEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		cacheLines: 1024,
		mix:        "zipf:0.7,seq:0.3",
		readFrac:   0.6,
		streams:    2,
		batch:      16,
		warmOps:    262144,
		simOps:     1048576,
		replayOps:  65536,
	},
	{
		// Every op reaches the controller and reads (decode plus decrypt)
		// sit beside writes (encode plus encrypt): a change that helps
		// writes or the wire but costs reads shows here.
		name:       "served-uniform-rw",
		served:     true,
		lines:      262144,
		shards:     2,
		objective:  vcc.OptEnergy,
		newEncoder: func() vcc.Encoder { return vcc.NewVCCGeneratedEncoder(256) },
		mix:        "chase:1",
		readFrac:   0.5,
		streams:    2,
		batch:      16,
		warmOps:    32768,
		simOps:     131072,
		replayOps:  16384,
	},
	{
		// The only workload that exercises the fault repository, the
		// remapper and the SAW-first encode objective.
		name:       "aged-remap-saw",
		lines:      65536,
		shards:     2,
		slc:        true,
		objective:  vcc.OptSAW,
		newEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		faultRate:  5e-4,
		faultRepo:  true,
		spares:     1024,
		mix:        "chase:1",
		readFrac:   0.3,
		streams:    1,
		batch:      64,
		inflight:   4,
		warmOps:    65536,
		simOps:     131072,
		replayOps:  16384,
	},
}

// lookup returns the named workload.
func lookup(name string) (spec, error) {
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(specs))
	for i, w := range specs {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// deterministic reports whether the workload's simulated statistics
// are a function of the seed alone. The cached served workload is not:
// its two connections share each shard's LRU cache, so evictions depend
// on how their requests interleave.
func (w spec) deterministic() bool { return !w.served || w.cacheLines == 0 }

// config returns the engine configuration for seed.
func (w spec) config(seed uint64, newEnc func() vcc.Encoder) vcc.ShardedMemoryConfig {
	cfg := vcc.ShardedMemoryConfig{
		Lines:        w.lines,
		Shards:       w.shards,
		NewEncoder:   newEnc,
		Objective:    w.objective,
		SLC:          w.slc,
		FaultRate:    w.faultRate,
		Seed:         seed,
		RemapSpares:  w.spares,
		UseFaultRepo: w.faultRepo,
	}
	if w.cacheLines > 0 {
		cfg.CacheLines = w.cacheLines
		cfg.CachePolicy = vcc.WriteBack
	}
	return cfg
}

// stream is one producer's or connection's deterministic op source over
// its line range, together with the shadow that verifies its reads.
// Write data is a pure function of (seed, line, version), so the shadow
// keeps two version numbers per line instead of the data itself.
type stream struct {
	base, n  int
	pat      *workload.Stream
	dataSeed uint64
	// ver is the last version issued per line; acked is the version of
	// the last acknowledged write that stored with zero stuck-at-wrong
	// cells, or 0 when the line's content is not trustworthy (never
	// written, or its last write failed or stored SAW cells).
	ver, acked []uint32
}

// newStreams builds the workload's streams for seed.
func newStreams(w spec, seed uint64) ([]*stream, error) {
	out := make([]*stream, w.streams)
	n := w.lines / w.streams
	for i := range out {
		label := fmt.Sprintf("bench-stream-%d", i)
		pat, err := workload.ParseMix(w.mix, workload.MixOpts{
			Lines: n, ZipfSkew: 1.2, Seed: seed, Label: label,
		})
		if err != nil {
			return nil, err
		}
		out[i] = &stream{
			base: i * n,
			n:    n,
			pat: workload.NewStream(prng.NewFrom(seed, label).Uint64(),
				workload.Phase{Pattern: pat, ReadFrac: w.readFrac}),
			dataSeed: prng.NewFrom(seed, label+"-data").Uint64(),
			ver:      make([]uint32, n),
			acked:    make([]uint32, n),
		}
	}
	return out, nil
}

// next draws the stream's next op: a global line, whether it reads, and
// for a write the version it stores.
func (s *stream) next() (line int, read bool, ver uint32) {
	l, read := s.pat.Next()
	if read {
		return s.base + int(l), true, 0
	}
	s.ver[l]++
	return s.base + int(l), false, s.ver[l]
}

// prefill issues the write that gives relative line rel its first
// version.
func (s *stream) prefill(rel int) (line int, ver uint32) {
	s.ver[rel]++
	return s.base + rel, s.ver[rel]
}

// fill writes the 64 data bytes of (line, ver) into dst.
func (s *stream) fill(dst []byte, line int, ver uint32) {
	x := mix64(s.dataSeed ^ mix64(uint64(line)<<32|uint64(ver)))
	for i := 0; i < vcc.LineSize/8; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], mix64(x+uint64(i+1)*0x9E3779B97F4A7C15))
	}
}

// ackWrite records a completed write and reports whether it failed.
func (s *stream) ackWrite(line int, ver uint32, saw int, err error) bool {
	rel := line - s.base
	if err != nil || saw > 0 {
		s.acked[rel] = 0
		return err != nil
	}
	s.acked[rel] = ver
	return false
}

// checkRead verifies a completed read and reports whether it failed:
// the op returned an error, or the line's last clean write is known and
// the data differs from it.
func (s *stream) checkRead(line int, data []byte, err error) bool {
	if err != nil {
		return true
	}
	v := s.acked[line-s.base]
	if v == 0 {
		return false
	}
	var want [vcc.LineSize]byte
	s.fill(want[:], line, v)
	return !bytes.Equal(want[:], data)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
