package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	vcc "repro"
	"repro/internal/linecache"
	"repro/internal/memctrl"
	"repro/internal/shard"
)

// replayResult is what the stack replay measured over its window.
type replayResult struct {
	ops, writes, failed int64
	wall                time.Duration
	// self is the summed self time per span name.
	self           [numSpanNames]int64
	inPlaceRetries int64
	log            *spanLog
	checks         []string
}

// replayOp is one shard-0 op of the replay window.
type replayOp struct {
	src   *stream
	line  int // global
	local int
	read  bool
	ver   uint32
}

// replay drives the workload's shard-0 op stream, on one goroutine,
// through a store stack built by hand from the public constructors with
// a timing store at every layer boundary, and through an untimed
// reference stack that shard.NewBackend assembles from the same
// configuration. The timed stack must end in exactly the reference's
// state and return exactly its reads; its spans give each layer's self
// time.
func replay(w spec, seed uint64, epoch time.Time) (*replayResult, error) {
	shardLines := (w.lines + w.shards - 1) / w.shards
	on := new(atomic.Bool)
	// 24 spans per op covers a remapped write: the remapper, two
	// controller writes and their eight encodes each.
	log := newSpanLog("replay", epoch, 24*w.replayOps, on)
	base := shard.BackendConfig{
		Objective:    w.objective,
		SLC:          w.slc,
		FaultRate:    w.faultRate,
		Seed:         shard.ShardSeed(seed, 0, w.shards),
		UseFaultRepo: w.faultRepo,
	}

	// A bare backend sized to hold the spares supplies the controller
	// (device, encryption unit and fault repository seeded exactly as
	// NewBackend seeds them); the decorators go on top by hand.
	tcfg := base
	tcfg.Lines = shardLines + w.spares
	tcfg.Codec = traceCodec(w.newEncoder(), log)
	bare, err := shard.NewBackend(tcfg)
	if err != nil {
		return nil, err
	}
	var top memctrl.LineStore = &timedStore{LineStore: bare.Ctrl, log: log, write: spanCtlWrite, read: spanCtlRead}
	var remap *memctrl.Remapper
	if w.spares > 0 {
		if remap, err = memctrl.NewRemapper(memctrl.RemapConfig{Inner: top, Spares: w.spares, Repo: bare.Repo}); err != nil {
			return nil, err
		}
		top = &timedStore{LineStore: remap, log: log, write: spanRemapW, read: spanRemapR}
	}
	if w.cacheLines > 0 {
		c, err := linecache.New(linecache.Config{Inner: top, Lines: w.cacheLines, Policy: linecache.WriteBack})
		if err != nil {
			return nil, err
		}
		top = &timedStore{LineStore: c, log: log, write: spanCacheW, read: spanCacheR}
	}

	rcfg := base
	rcfg.Lines = shardLines
	rcfg.Codec = w.newEncoder()
	rcfg.RemapSpares = w.spares
	rcfg.CacheLines = w.cacheLines
	rcfg.CachePolicy = linecache.WriteBack
	ref, err := shard.NewBackend(rcfg)
	if err != nil {
		return nil, err
	}

	streams, err := newStreams(w, seed)
	if err != nil {
		return nil, err
	}
	r := &replayResult{log: log}
	var data, got [vcc.LineSize]byte
	// both applies one op to the timed stack and the reference.
	both := func(op replayOp) error {
		if op.read {
			_, errT := top.ReadLine(op.local, got[:])
			want, errR := ref.ReadLine(op.local, data[:])
			if (errT == nil) != (errR == nil) || !bytes.Equal(got[:], want) {
				return fmt.Errorf("replay: read of line %d differs from the reference stack", op.line)
			}
			if op.src.checkRead(op.line, want, errR) {
				r.failed++
			}
			return nil
		}
		op.src.fill(data[:], op.line, op.ver)
		_, errT := top.WriteLine(op.local, data[:])
		saw, errR := ref.WriteLine(op.local, data[:])
		if (errT == nil) != (errR == nil) {
			return fmt.Errorf("replay: write of line %d: timed stack error %v, reference %v", op.line, errT, errR)
		}
		if op.src.ackWrite(op.line, op.ver, saw, errR) {
			r.failed++
		}
		return nil
	}
	for _, s := range streams {
		for rel := 0; rel < s.n; rel++ {
			line, ver := s.prefill(rel)
			if line%w.shards == 0 {
				if err := both(replayOp{src: s, line: line, local: line / w.shards, ver: ver}); err != nil {
					return nil, err
				}
			}
		}
	}
	var werr error
	roundRobin(streams, w.batch, w.warmOps, func(op replayOp) bool {
		if op.line%w.shards == 0 {
			op.local = op.line / w.shards
			werr = both(op)
		}
		return werr == nil
	})
	if werr != nil {
		return nil, werr
	}
	if r.failed > 0 {
		r.checks = append(r.checks, fmt.Sprintf("replay: %d ops failed before the window", r.failed))
		r.failed = 0
	}

	// The window is generated before the clock starts, so the timed
	// loop holds nothing but calls into the stack.
	ops := make([]replayOp, 0, w.replayOps)
	roundRobin(streams, w.batch, 0, func(op replayOp) bool {
		if op.line%w.shards == 0 {
			op.local = op.line / w.shards
			ops = append(ops, op)
		}
		return len(ops) < w.replayOps
	})
	in := make([]byte, len(ops)*vcc.LineSize)
	out := make([]byte, len(ops)*vcc.LineSize)
	for i, op := range ops {
		if !op.read {
			op.src.fill(in[i*vcc.LineSize:(i+1)*vcc.LineSize], op.line, op.ver)
			r.writes++
		}
	}
	var retries0 int64
	if remap != nil {
		retries0 = remap.InPlaceRetries()
	}
	var errs int
	on.Store(true)
	start := time.Now()
	for i := range ops {
		log.request(int64(i + 1))
		var err error
		if ops[i].read {
			_, err = top.ReadLine(ops[i].local, out[i*vcc.LineSize:(i+1)*vcc.LineSize])
		} else {
			_, err = top.WriteLine(ops[i].local, in[i*vcc.LineSize:(i+1)*vcc.LineSize])
		}
		if err != nil {
			errs++
		}
	}
	r.wall = time.Since(start)
	on.Store(false)
	if remap != nil {
		r.inPlaceRetries = remap.InPlaceRetries() - retries0
	}
	r.ops = int64(len(ops))

	for i, op := range ops {
		if op.read {
			want, err := ref.ReadLine(op.local, data[:])
			if !bytes.Equal(out[i*vcc.LineSize:(i+1)*vcc.LineSize], want) {
				r.checks = append(r.checks, fmt.Sprintf("replay: window read %d of line %d differs from the reference stack", i, op.line))
			}
			if op.src.checkRead(op.line, want, err) {
				r.failed++
			}
		} else {
			saw, err := ref.WriteLine(op.local, in[i*vcc.LineSize:(i+1)*vcc.LineSize])
			if op.src.ackWrite(op.line, op.ver, saw, err) {
				r.failed++
			}
		}
	}
	if errs > 0 {
		r.checks = append(r.checks, fmt.Sprintf("replay: %d timed ops returned errors", errs))
	}
	if got, want := top.Stats(), ref.StackStats(); got != want {
		r.checks = append(r.checks, fmt.Sprintf("replay: timed stack stats %+v differ from shard.NewBackend's %+v", got, want))
	}
	if log.full() {
		r.checks = append(r.checks, fmt.Sprintf("replay: span log full at %d spans", log.limit))
	}
	r.self = selfTimes(log.spans)
	return r, nil
}

// roundRobin draws ops from the streams a batch at a time, taking the
// streams in turn the way concurrent connections would if they
// alternated, and passes each op to fn until fn returns false or, with
// perStream > 0, every stream has issued perStream ops.
func roundRobin(streams []*stream, batch, perStream int, fn func(replayOp) bool) {
	for issued := 0; perStream == 0 || issued < perStream; issued += batch {
		for _, s := range streams {
			for i := 0; i < batch; i++ {
				line, read, ver := s.next()
				if !fn(replayOp{src: s, line: line, read: read, ver: ver}) {
					return
				}
			}
		}
	}
}
