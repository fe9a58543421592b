package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	vcc "repro"
	"repro/internal/server"
)

// system is one built instance of a workload: the engine and, for a
// served workload, an in-process server on a loopback listener with one
// connected, tenant-bound client per stream.
type system struct {
	w       spec
	mem     *vcc.ShardedMemory
	srv     *server.Server
	serving chan error
	clients []*server.Client
	conns   []*countingConn
}

// build assembles w for seed. For a served workload it is everything a
// client needs before its first data request: engine, server, listener
// and one HELLO per connection.
func build(w spec, seed uint64, newEnc func() vcc.Encoder) (*system, error) {
	mem, err := vcc.NewShardedMemory(w.config(seed, newEnc))
	if err != nil {
		return nil, err
	}
	s := &system{w: w, mem: mem}
	if !w.served {
		return s, nil
	}
	s.srv, err = server.New(server.Config{Mem: mem, Tenants: w.streams})
	if err != nil {
		mem.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mem.Close()
		return nil, err
	}
	s.serving = make(chan error, 1)
	go func() { s.serving <- s.srv.Serve(l) }()
	for t := 0; t < w.streams; t++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		cc := &countingConn{Conn: nc}
		c := server.NewClient(cc)
		s.clients = append(s.clients, c)
		s.conns = append(s.conns, cc)
		n, err := c.Hello(t)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("hello(tenant %d): %w", t, err)
		}
		if int(n) != w.lines/w.streams {
			s.close()
			return nil, fmt.Errorf("tenant %d owns %d lines, want %d", t, n, w.lines/w.streams)
		}
	}
	return s, nil
}

// close tears the system down and waits for every goroutine it started.
func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Stop()
		<-s.serving
	}
	s.mem.Close()
}

// wireBytes returns the bytes moved over every client connection so far.
func (s *system) wireBytes() int64 {
	var n int64
	for _, c := range s.conns {
		n += c.rx + c.tx
	}
	return n
}

// countingConn counts the bytes a client reads and writes. A
// server.Client uses its connection from one goroutine at a time, and
// the totals are read between phases, after that goroutine has joined.
type countingConn struct {
	net.Conn
	rx, tx int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx += int64(n)
	return n, err
}

// tally is what one lane counted during a phase.
type tally struct {
	ops, writes, reqs, failed int64
	perShard                  []int64
	// timed, when set, receives every request's start and end.
	timed *slicer
}

func (t *tally) reset(timed *slicer) {
	t.ops, t.writes, t.reqs, t.failed = 0, 0, 0, 0
	clear(t.perShard)
	t.timed = timed
}

// completed counts a request that ran from start to end.
func (t *tally) completed(start, end time.Time) {
	t.reqs++
	if t.timed != nil {
		t.timed.add(start, end)
	}
}

// settle verifies one completed op against its stream's shadow.
func (t *tally) settle(src *stream, shards int, line int, read bool, ver uint32, saw int, data []byte, err error) {
	var failed bool
	if read {
		failed = src.checkRead(line, data, err)
	} else {
		failed = src.ackWrite(line, ver, saw, err)
		t.writes++
	}
	if failed {
		t.failed++
	}
	t.ops++
	t.perShard[line%shards]++
}

// lane issues one stream's ops against a system.
type lane interface {
	// run issues ops until n more have been issued (n > 0) or the
	// deadline has passed (n == 0), then waits for all of them.
	run(n int, deadline time.Time) error
	counts() *tally
}

func finished(n, issued int, deadline time.Time) bool {
	if n > 0 {
		return issued >= n
	}
	return !time.Now().Before(deadline)
}

// runPhase runs every lane concurrently and waits for all of them.
func runPhase(lanes []lane, n int, deadline time.Time) error {
	if len(lanes) == 1 {
		return lanes[0].run(n, deadline)
	}
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.run(n, deadline)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newLanes builds one lane per stream: a pipelined Session producer
// for engine workloads, a BATCH client per connection for served ones.
// With direct set, a served workload's lanes Apply the same batches to
// the engine instead of sending them over the wire. logs, when non-nil,
// gives each lane its span log.
func newLanes(sys *system, streams []*stream, logs []*spanLog, direct bool) []lane {
	lanes := make([]lane, len(streams))
	for i, src := range streams {
		var log *spanLog
		if logs != nil {
			log = logs[i]
		}
		switch {
		case direct:
			lanes[i] = newBatchLane(sys, src, nil, log)
		case !sys.w.served:
			lanes[i] = newEngineLane(sys, src, log)
		default:
			lanes[i] = newBatchLane(sys, src, sys.clients[i], log)
		}
	}
	return lanes
}

// engineLane is one producer keeping several tickets in flight through
// a vcc.Session. It waits for tickets in submission order, which is
// also their completion order: every ticket touches every shard, and
// each shard drains FIFO.
type engineLane struct {
	tally
	src    *stream
	sess   *vcc.Session
	shards int
	slots  []ticketSlot
	next   int
	log    *spanLog
	seq    int64
}

type ticketSlot struct {
	ops   []vcc.Op
	out   []vcc.Outcome
	vers  []uint32
	t     *vcc.Ticket
	start time.Time
	seq   int64
}

func newEngineLane(sys *system, src *stream, log *spanLog) *engineLane {
	w := sys.w
	l := &engineLane{
		tally:  tally{perShard: make([]int64, w.shards)},
		src:    src,
		sess:   sys.mem.Session(),
		shards: w.shards,
		slots:  make([]ticketSlot, w.inflight),
		log:    log,
	}
	for i := range l.slots {
		sl := &l.slots[i]
		sl.ops = make([]vcc.Op, w.batch)
		sl.out = make([]vcc.Outcome, w.batch)
		sl.vers = make([]uint32, w.batch)
		buf := make([]byte, w.batch*vcc.LineSize)
		for j := range sl.ops {
			sl.ops[j].Data = buf[j*vcc.LineSize : (j+1)*vcc.LineSize : (j+1)*vcc.LineSize]
		}
	}
	return l
}

func (l *engineLane) counts() *tally { return &l.tally }

func (l *engineLane) run(n int, deadline time.Time) error {
	for issued := 0; ; {
		sl := &l.slots[l.next]
		if sl.t != nil {
			if err := l.complete(sl); err != nil {
				return err
			}
		}
		if finished(n, issued, deadline) {
			break
		}
		l.seq++
		sl.seq = l.seq
		l.log.request(sl.seq)
		l.log.begin(spanGen)
		for i := range sl.ops {
			op := &sl.ops[i]
			line, read, ver := l.src.next()
			op.Line = line
			if read {
				op.Kind = vcc.OpRead
			} else {
				op.Kind = vcc.OpWrite
				l.src.fill(op.Data, line, ver)
			}
			sl.vers[i] = ver
		}
		l.log.end()
		sl.start = time.Now()
		l.log.begin(spanSubmit)
		t, err := l.sess.Submit(sl.ops, sl.out)
		l.log.end()
		if err != nil {
			return err
		}
		sl.t = t
		issued += len(sl.ops)
		l.next = (l.next + 1) % len(l.slots)
	}
	for i := 1; i < len(l.slots); i++ {
		if sl := &l.slots[(l.next+i)%len(l.slots)]; sl.t != nil {
			if err := l.complete(sl); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *engineLane) complete(sl *ticketSlot) error {
	l.log.request(sl.seq)
	l.log.begin(spanWait)
	out, err := sl.t.Wait()
	l.log.end()
	end := time.Now()
	sl.t = nil
	if err != nil {
		return err
	}
	l.log.add(spanTicket, sl.seq, sl.start, end)
	l.completed(sl.start, end)
	for i := range sl.ops {
		op := &sl.ops[i]
		l.settle(l.src, l.shards, op.Line, op.Kind == vcc.OpRead, sl.vers[i], out[i].SAWCells, out[i].Data, out[i].Err)
	}
	return nil
}

// batchLane is one closed-loop connection: it builds a batch, sends it
// as one BATCH frame, and waits for the reply before building the next.
// Without a client it applies the same batch to the engine directly,
// which is the served path minus the wire and the server.
type batchLane struct {
	tally
	src    *stream
	client *server.Client
	mem    *vcc.ShardedMemory
	shards int
	ops    []vcc.Op
	out    []vcc.Outcome
	vers   []uint32
	wire   []server.BatchOp
	res    []server.BatchResult
	log    *spanLog
	seq    int64
}

func newBatchLane(sys *system, src *stream, client *server.Client, log *spanLog) *batchLane {
	w := sys.w
	l := &batchLane{
		tally:  tally{perShard: make([]int64, w.shards)},
		src:    src,
		client: client,
		mem:    sys.mem,
		shards: w.shards,
		ops:    make([]vcc.Op, w.batch),
		out:    make([]vcc.Outcome, w.batch),
		vers:   make([]uint32, w.batch),
		wire:   make([]server.BatchOp, w.batch),
		log:    log,
	}
	buf := make([]byte, w.batch*vcc.LineSize)
	for j := range l.ops {
		l.ops[j].Data = buf[j*vcc.LineSize : (j+1)*vcc.LineSize : (j+1)*vcc.LineSize]
	}
	return l
}

func (l *batchLane) counts() *tally { return &l.tally }

func (l *batchLane) run(n int, deadline time.Time) error {
	for issued := 0; !finished(n, issued, deadline); issued += len(l.ops) {
		l.seq++
		l.log.request(l.seq)
		l.log.begin(spanGen)
		for i := range l.ops {
			op := &l.ops[i]
			line, read, ver := l.src.next()
			op.Line = line
			l.vers[i] = ver
			rel := uint64(line - l.src.base)
			if read {
				op.Kind = vcc.OpRead
				l.wire[i] = server.BatchOp{Kind: server.BatchRead, Line: rel}
			} else {
				op.Kind = vcc.OpWrite
				l.src.fill(op.Data, line, ver)
				l.wire[i] = server.BatchOp{Kind: server.BatchWrite, Line: rel, Data: op.Data}
			}
		}
		l.log.end()
		var err error
		if l.client != nil {
			err = l.sendBatch()
		} else {
			err = l.applyBatch()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *batchLane) sendBatch() error {
	start := time.Now()
	res, err := l.client.Batch(l.wire, l.res)
	end := time.Now()
	l.log.add(spanBatch, l.seq, start, end)
	l.completed(start, end)
	var se *server.StatusError
	if err != nil && !errors.As(err, &se) {
		return fmt.Errorf("batch: %w", err)
	}
	if err == nil {
		l.res = res
	}
	for i := range l.ops {
		// A typed error response fails the whole batch.
		var saw int
		var data []byte
		if err == nil {
			saw, data = res[i].SAW, res[i].Data
		}
		l.settle(l.src, l.shards, l.ops[i].Line, l.ops[i].Kind == vcc.OpRead, l.vers[i], saw, data, err)
	}
	return nil
}

func (l *batchLane) applyBatch() error {
	start := time.Now()
	out, err := l.mem.Apply(l.ops, l.out)
	end := time.Now()
	if err != nil {
		return err
	}
	l.log.add(spanApply, l.seq, start, end)
	l.completed(start, end)
	for i := range l.ops {
		l.settle(l.src, l.shards, l.ops[i].Line, l.ops[i].Kind == vcc.OpRead, l.vers[i], out[i].SAWCells, out[i].Data, out[i].Err)
	}
	return nil
}

// prefill writes every line of every stream once, straight into the
// engine, so that measured writes overwrite data the workload wrote
// rather than the device's random initial cells. It returns the number
// of writes that failed.
func prefill(mem *vcc.ShardedMemory, streams []*stream) (int64, error) {
	const chunk = 1024
	ops := make([]vcc.Op, 0, chunk)
	vers := make([]uint32, 0, chunk)
	owner := make([]*stream, 0, chunk)
	buf := make([]byte, chunk*vcc.LineSize)
	var out []vcc.Outcome
	var failed int64
	flush := func() error {
		var err error
		out, err = mem.Apply(ops, out)
		if err != nil {
			return err
		}
		for i := range ops {
			if owner[i].ackWrite(ops[i].Line, vers[i], out[i].SAWCells, out[i].Err) {
				failed++
			}
		}
		ops, vers, owner = ops[:0], vers[:0], owner[:0]
		return nil
	}
	for _, s := range streams {
		for rel := 0; rel < s.n; rel++ {
			line, ver := s.prefill(rel)
			k := len(ops)
			data := buf[k*vcc.LineSize : (k+1)*vcc.LineSize]
			s.fill(data, line, ver)
			ops = append(ops, vcc.Op{Kind: vcc.OpWrite, Line: line, Data: data})
			vers = append(vers, ver)
			owner = append(owner, s)
			if len(ops) == chunk {
				if err := flush(); err != nil {
					return failed, err
				}
			}
		}
	}
	if len(ops) > 0 {
		if err := flush(); err != nil {
			return failed, err
		}
	}
	return failed, nil
}
