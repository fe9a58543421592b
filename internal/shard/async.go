package shard

// This file implements the engine's asynchronous submission path: the
// per-shard issue queues, pooled tickets and completion machinery
// behind Submit/Wait and the OnComplete callback form. The synchronous
// Apply (ops.go) is a thin Submit+Wait wrapper, so every request —
// single-op Write/Read, mixed Apply batches and pipelined async
// producers — funnels through this one path.
//
// Design:
//
//   - Every shard owns a bounded FIFO issue queue (a buffered channel
//     of by-value entries) drained by a dedicated goroutine. A Submit
//     call groups its ops by shard and enqueues one entry per touched
//     shard, then returns immediately; the producer can generate the
//     next batch while the shards encode this one.
//   - Per-shard order is submission order: entries drain FIFO and each
//     entry's ops run in slice order, so at any in-flight depth the
//     per-shard op sequence — and therefore every statistic and
//     outcome — is exactly what a synchronous replay would produce.
//   - Backpressure is the queue bound: when a shard already has
//     QueueDepth tickets queued, Submit blocks until the drainer
//     catches up. Memory in flight is therefore bounded by
//     shards x QueueDepth tickets regardless of producer speed.
//   - Tickets are pooled and recycled on Wait (or after the callback
//     fires), so steady-state Submit/Wait performs zero heap
//     allocations per op — the same guarantee Apply has always had.
//   - Flush and Close are ordered with in-flight tickets by reusing
//     the queues: both enqueue a flush barrier entry on every shard,
//     so they take effect after everything submitted before them and
//     before anything submitted after.
//   - No worker bound is needed: each shard has exactly one drainer,
//     and the Go scheduler already runs at most GOMAXPROCS of them at
//     once.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/memctrl"
)

// ErrClosed is returned by Submit (and the synchronous wrappers built
// on it: Apply, Write, Read) once the engine has been Closed.
var ErrClosed = errors.New("shard: engine is closed")

// DefaultQueueDepth is the per-shard issue-queue bound used when
// Config.QueueDepth is zero: at most this many tickets can be queued on
// one shard before Submit blocks.
const DefaultQueueDepth = 32

// issue is one queued unit of work: run ticket t's ops (or its flush
// barrier) on one shard. Issues travel by value through the per-shard
// queues, so enqueueing allocates nothing.
type issue struct {
	t     *Ticket
	shard int
}

// Ticket tracks one asynchronous Submit until completion. A ticket
// returned by Submit must be Waited exactly once: Wait blocks until
// every shard has applied the ticket's ops, returns the outcomes, and
// recycles the ticket. Tickets submitted with a callback complete
// through the callback instead and must not be Waited.
//
// Until the ticket completes, the submitted op and outcome slices
// belong to the engine: the caller must not read or modify them (reads
// fill op Data buffers, writes consume them) before Wait returns or the
// callback fires.
type Ticket struct {
	e   *Engine
	ops []Op
	out []Outcome
	// byShard[s] lists op indices owned by shard s, in submission order.
	byShard [][]int
	// active lists the shards with at least one op, in first-touch order.
	active []int
	// pending counts shards that have not finished their part yet; the
	// drainer that decrements it to zero completes the ticket.
	pending atomic.Int32
	// done carries the completion signal for Wait-form tickets. It is
	// allocated once per pooled ticket (capacity 1) and reused forever.
	done chan struct{}
	// cb, when set, is invoked on completion instead of signaling done.
	cb func([]Outcome, error)
	// cbStats, when set, is the statistics-carrying completion callback
	// (SubmitFuncStats); mutually exclusive with cb.
	cbStats func([]Outcome, memctrl.Stats, error)
	// track enables per-ticket statistics accumulation: each drainer
	// folds its shard's Stats delta into stats. statsMu guards the fold —
	// a ticket's shards finish concurrently. Only SubmitFuncStats
	// tickets track; the rest skip the snapshots entirely.
	track   bool
	statsMu sync.Mutex
	stats   memctrl.Stats
	// sess, when set, is the Session whose Drain tracks this ticket.
	sess *Session
	// flush marks a Flush/Close barrier: drainers flush their shard's
	// store stack instead of running ops.
	flush bool
	// inval marks a DropCaches barrier: drainers invalidate their
	// shard's decoded-line cache (dirty data lost) instead of running
	// ops. Mutually exclusive with flush.
	inval bool
	err   error
}

// Wait blocks until every shard has applied the ticket's ops, then
// returns the outcome slice (the one sized by Submit, indexed like the
// submitted ops). It must be called exactly once, and only for tickets
// obtained from Submit (not SubmitFunc); the ticket is recycled when it
// returns.
func (t *Ticket) Wait() ([]Outcome, error) {
	<-t.done
	out, err := t.out, t.err
	t.e.putTicket(t)
	return out, err
}

// runShard executes the ticket's ops for shard s in submission order
// and, for a tracking ticket, folds the shard's statistics delta into
// the ticket. The caller must hold e.mu[s].
func (t *Ticket) runShard(s int) {
	e := t.e
	b := e.backends[s]
	var before memctrl.Stats
	if t.track {
		before = b.StackStats()
	}
	for _, i := range t.byShard[s] {
		op := &t.ops[i]
		local := e.part.LocalOf(op.Line)
		if op.Kind == OpWrite {
			saw, err := b.WriteLine(local, op.Data)
			t.out[i] = Outcome{SAWCells: saw, Err: err}
		} else {
			data, err := b.ReadLine(local, op.Data)
			t.out[i] = Outcome{Data: data, Err: err}
		}
	}
	if t.track {
		delta := b.StackStats().Delta(before)
		t.statsMu.Lock()
		t.stats.Add(delta)
		t.statsMu.Unlock()
	}
}

// finish completes the ticket once the last shard is done: callback
// tickets are recycled and then fire their callback; Wait-form tickets
// signal done and are recycled by Wait. The session counter (if any) is
// released last, so Session.Drain returning means every callback has
// also returned.
func (t *Ticket) finish() {
	sess := t.sess
	switch {
	case t.cb != nil:
		cb, out, err := t.cb, t.out, t.err
		t.e.putTicket(t)
		cb(out, err)
	case t.cbStats != nil:
		cb, out, stats, err := t.cbStats, t.out, t.stats, t.err
		t.e.putTicket(t)
		cb(out, stats, err)
	default:
		t.done <- struct{}{}
	}
	if sess != nil {
		sess.wg.Done()
	}
}

// getTicket fetches a recycled ticket (or builds one via the pool).
func (e *Engine) getTicket() *Ticket {
	return e.tickets.Get().(*Ticket)
}

// putTicket resets and recycles a ticket. Only the shards actually
// touched are cleared, so huge shard counts don't pay a full sweep per
// batch; the caller's op/outcome slices are released to keep the pool
// from pinning them.
func (e *Engine) putTicket(t *Ticket) {
	for _, s := range t.active {
		t.byShard[s] = t.byShard[s][:0]
	}
	t.active = t.active[:0]
	t.ops, t.out = nil, nil
	t.cb, t.cbStats, t.sess = nil, nil, nil
	t.track, t.stats = false, memctrl.Stats{}
	t.flush, t.inval = false, false
	t.err = nil
	e.tickets.Put(t)
}

// submit is the single entry point of the request path. It validates
// ops up front (on error nothing is enqueued), sizes the outcome slice
// (reusing out when it has capacity, as Apply always has), groups ops
// by shard, and enqueues one issue per touched shard. With cb == nil it
// returns a ticket to Wait on; with cb set it returns a nil ticket and
// completion is delivered through the callback.
func (e *Engine) submit(ops []Op, out []Outcome, cb func([]Outcome, error),
	cbStats func([]Outcome, memctrl.Stats, error), sess *Session) (*Ticket, error) {
	if err := e.validateOps(ops); err != nil {
		return nil, err
	}
	if cap(out) >= len(ops) {
		out = out[:len(ops)]
	} else {
		out = make([]Outcome, len(ops))
	}
	t := e.getTicket()
	t.ops, t.out, t.cb, t.sess = ops, out, cb, sess
	t.cbStats = cbStats
	t.track = cbStats != nil
	for i := range ops {
		s := e.part.ShardOf(ops[i].Line)
		if len(t.byShard[s]) == 0 {
			t.active = append(t.active, s)
		}
		t.byShard[s] = append(t.byShard[s], i)
	}
	t.pending.Store(int32(len(t.active)))
	// The read lock pairs with Close's write lock: a Submit that passes
	// the closed check finishes enqueueing before Close can close the
	// queues, so enqueueing never races teardown.
	e.qmu.RLock()
	if e.closed {
		e.qmu.RUnlock()
		e.putTicket(t)
		return nil, ErrClosed
	}
	if sess != nil {
		sess.wg.Add(1)
	}
	if len(t.active) == 0 {
		// Empty batch: complete immediately (Wait will consume the
		// buffered done signal; a callback fires inline).
		e.qmu.RUnlock()
		t.finish()
	} else {
		for _, s := range t.active {
			e.queues[s] <- issue{t: t, shard: s}
		}
		e.qmu.RUnlock()
	}
	if cb != nil || cbStats != nil {
		return nil, nil
	}
	return t, nil
}

// Submit enqueues a mixed stream of reads and writes on the issue
// queues of the shards it touches and returns a Ticket immediately,
// without waiting for any op to execute. Ops are validated up front; on
// error nothing is enqueued.
//
// Ordering: ops addressed to the same shard are applied in slice order,
// and successive Submit calls (from one goroutine, or otherwise ordered
// by the caller) drain per shard in submission order — so any pipeline
// of in-flight tickets produces outcomes and statistics bit-identical
// to the same ops applied synchronously.
//
// Backpressure: Submit blocks when a touched shard already has
// QueueDepth tickets queued.
//
// The returned ticket must be Waited exactly once; until then the op
// and outcome slices belong to the engine. out is reused when it has
// capacity for len(ops) outcomes and allocated otherwise — with pooled
// tickets and recycled buffers, steady-state Submit/Wait performs zero
// heap allocations per op.
func (e *Engine) Submit(ops []Op, out []Outcome) (*Ticket, error) {
	return e.submit(ops, out, nil, nil, nil)
}

// SubmitFunc is the callback form of Submit: fn is invoked exactly once
// when every shard has applied the ops, receiving the sized outcome
// slice. The callback runs on an engine drainer goroutine — except for
// an empty batch, which completes inline, running fn on the caller's
// goroutine before SubmitFunc returns — and must not block (a blocked
// callback stalls that shard's queue); to chain heavy work, hand off
// to another goroutine. There is no ticket to Wait on.
func (e *Engine) SubmitFunc(ops []Op, out []Outcome, fn func([]Outcome, error)) error {
	if fn == nil {
		return errors.New("shard: SubmitFunc requires a callback")
	}
	_, err := e.submit(ops, out, fn, nil, nil)
	return err
}

// SubmitFuncStats is SubmitFunc with exact per-submission engine
// statistics: fn additionally receives the memctrl.Stats delta this
// batch's ops accumulated across the shards they touched, each shard's
// StackStats difference around its part of the ticket. It
// lets a caller attribute engine work (line writes/reads, energy, SAW
// cells, cache hits) to individual submissions — e.g. the network
// server's per-tenant accounting — without snapshotting engine-wide
// Stats around the call or racing a ResetStats from another client.
// Everything else matches SubmitFunc: the callback runs on a drainer
// goroutine (inline for an empty batch) and must not block.
func (e *Engine) SubmitFuncStats(ops []Op, out []Outcome, fn func([]Outcome, memctrl.Stats, error)) error {
	if fn == nil {
		return errors.New("shard: SubmitFuncStats requires a callback")
	}
	_, err := e.submit(ops, out, nil, fn, nil)
	return err
}

// Session is an asynchronous submission handle over an engine's issue
// queues. It adds in-flight tracking to Submit/SubmitFunc: Drain blocks
// until everything submitted through this session has completed
// (including callbacks). Multiple sessions can share one engine; each
// session is intended for a single producer goroutine — Drain must not
// run concurrently with that producer's Submit calls.
type Session struct {
	e  *Engine
	wg sync.WaitGroup
}

// NewSession creates a session over the engine's issue queues.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// Submit is Engine.Submit, tracked by the session's Drain.
func (s *Session) Submit(ops []Op, out []Outcome) (*Ticket, error) {
	return s.e.submit(ops, out, nil, nil, s)
}

// SubmitFunc is Engine.SubmitFunc, tracked by the session's Drain
// (including its empty-batch inline-completion edge case).
func (s *Session) SubmitFunc(ops []Op, out []Outcome, fn func([]Outcome, error)) error {
	if fn == nil {
		return errors.New("shard: SubmitFunc requires a callback")
	}
	_, err := s.e.submit(ops, out, fn, nil, s)
	return err
}

// SubmitFuncStats is Engine.SubmitFuncStats, tracked by the session's
// Drain.
func (s *Session) SubmitFuncStats(ops []Op, out []Outcome, fn func([]Outcome, memctrl.Stats, error)) error {
	if fn == nil {
		return errors.New("shard: SubmitFuncStats requires a callback")
	}
	_, err := s.e.submit(ops, out, nil, fn, s)
	return err
}

// Drain blocks until every ticket submitted through this session has
// completed, callbacks included. Wait-form tickets still need their own
// Wait call (Drain does not consume or recycle them).
func (s *Session) Drain() { s.wg.Wait() }

// drain serves shard s's issue queue until the engine closes it. The
// drainer is the only goroutine that runs ops on shard s, so the shard
// pipeline needs no internal locking; e.mu[s] is held per entry only to
// exclude the snapshot readers (Stats, ShardStats, StuckCells, ...).
func (e *Engine) drain(s int) {
	defer e.drained.Done()
	for iss := range e.queues[s] {
		t := iss.t
		e.mu[s].Lock()
		switch {
		case t.flush:
			if ferr := e.backends[s].Store.Flush(); ferr != nil {
				// First failing shard wins; statsMu doubles as the guard
				// since a barrier ticket never tracks stats.
				t.statsMu.Lock()
				if t.err == nil {
					t.err = ferr
				}
				t.statsMu.Unlock()
			}
		case t.inval:
			if c := e.backends[s].Cache; c != nil {
				c.Invalidate()
			}
		default:
			t.runShard(s)
		}
		e.mu[s].Unlock()
		if t.pending.Add(-1) == 0 {
			t.finish()
		}
	}
}

// barrier enqueues a flush or invalidate ticket on every shard and
// returns it. The caller must guarantee the queues stay open (hold
// qmu.RLock, or be the Close call that will close them afterwards).
func (e *Engine) barrier(inval bool) *Ticket {
	t := e.getTicket()
	t.flush, t.inval = !inval, inval
	t.pending.Store(int32(len(e.queues)))
	for s := range e.queues {
		e.queues[s] <- issue{t: t, shard: s}
	}
	return t
}

// flushBarrier enqueues a flush ticket on every shard and returns it.
func (e *Engine) flushBarrier() *Ticket { return e.barrier(false) }

// Flush forces every shard's deferred writes (dirty write-back cache
// lines) down to its device. It is a no-op on uncached and
// write-through engines, and on closed engines (Close already flushed).
// Safe for concurrent use; the flush rides the issue queues as a
// barrier, so it covers everything submitted before it and nothing
// submitted after. On a device error the first failing shard's error is
// returned; the affected lines stay dirty in their caches and a later
// Flush retries them.
func (e *Engine) Flush() error {
	e.qmu.RLock()
	if e.closed {
		e.qmu.RUnlock()
		return nil
	}
	t := e.flushBarrier()
	e.qmu.RUnlock()
	_, err := t.Wait()
	return err
}

// DropCaches simulates a power loss of the volatile layer: every
// shard's decoded-line cache is invalidated without writing anything
// back, so dirty write-back lines are lost and subsequent reads observe
// whatever the (persistent) device last stored. The controller's coset
// auxiliary bits and the remapping decorator's translation table are
// modeled as living in the device's persistent metadata region, so both
// survive. It is a no-op on uncached engines and on closed engines.
// Like Flush it rides the issue queues as a barrier: everything
// submitted before it is applied (or absorbed into the cache, and then
// lost) first, nothing submitted after is affected.
func (e *Engine) DropCaches() {
	e.qmu.RLock()
	if e.closed {
		e.qmu.RUnlock()
		return
	}
	t := e.barrier(true)
	e.qmu.RUnlock()
	t.Wait()
}

// Close drains all in-flight tickets, flushes deferred writes, and
// shuts down the issue queues and their drainer goroutines. It is
// idempotent and safe for concurrent use: the first call tears down,
// later calls wait for that teardown and return. After Close, Submit
// and every wrapper built on it (Apply, Write, Read) return ErrClosed;
// the snapshot accessors (Stats, ShardStats, StuckCells, FailedCells)
// keep working.
//
// Engines that live for the whole process need not be closed — but
// write-back cached engines must be Flushed (or Closed) before the
// device state is inspected.
func (e *Engine) Close() {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		<-e.closedCh
		return
	}
	e.closed = true
	e.qmu.Unlock()
	// New submissions are now rejected; everything already queued (plus
	// this barrier) still drains, so no accepted ticket is ever dropped.
	e.flushBarrier().Wait()
	for _, q := range e.queues {
		close(q)
	}
	e.drained.Wait()
	close(e.closedCh)
}
