package shard

// Tests of the asynchronous submission path: ticket ordering under
// backpressure, callback and session completion, the Flush barrier, and
// the Close lifecycle (idempotency, ErrClosed, post-Close snapshots).

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coset"
	"repro/internal/linecache"
)

// asyncOps builds a deterministic mixed stream with per-op buffers.
func asyncOps(n, lines int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		data := make([]byte, LineSize)
		for k := range data {
			data[k] = byte(i*37 + k)
		}
		if i%3 == 2 {
			ops[i] = Op{Kind: OpRead, Line: (i * 11) % lines, Data: data}
		} else {
			ops[i] = Op{Kind: OpWrite, Line: (i * 11) % lines, Data: data}
		}
	}
	return ops
}

// TestSubmitPipelineMatchesApply: many tickets in flight through a
// depth-1 queue (maximum backpressure) must produce outcomes, stats and
// final contents identical to one synchronous Apply of the same ops.
func TestSubmitPipelineMatchesApply(t *testing.T) {
	const lines, n, batch = 96, 1200, 24
	mk := func(depth int) *Engine {
		e, err := New(Config{
			Lines: lines, Shards: 3, QueueDepth: depth,
			NewCodec:  func() coset.Codec { return coset.NewFNW(64, 16) },
			FaultRate: 1e-2, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	syncEng := mk(1)
	defer syncEng.Close()
	refOps := asyncOps(n, lines)
	refOuts, err := syncEng.Apply(refOps, nil)
	if err != nil {
		t.Fatal(err)
	}

	async := mk(1) // queue depth 1: every second Submit backpressures
	defer async.Close()
	ops := asyncOps(n, lines)
	var tickets []*Ticket
	for off := 0; off < n; off += batch {
		tk, err := async.Submit(ops[off:off+batch], nil)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	i := 0
	for _, tk := range tickets {
		outs, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for k := range outs {
			if outs[k].SAWCells != refOuts[i].SAWCells || !bytes.Equal(outs[k].Data, refOuts[i].Data) {
				t.Fatalf("op %d: async outcome diverges from sync Apply", i)
			}
			i++
		}
	}
	if a, b := async.Stats(), syncEng.Stats(); a != b {
		t.Errorf("stats diverge:\nasync %+v\nsync  %+v", a, b)
	}
	for l := 0; l < lines; l++ {
		a, err := async.Read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := syncEng.Read(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("line %d contents diverge", l)
		}
	}
}

// TestSubmitCallbackAndDrain: the OnComplete form delivers every
// outcome exactly once, and Session.Drain blocks until all callbacks
// have run.
func TestSubmitCallbackAndDrain(t *testing.T) {
	const lines, n, batch = 64, 960, 32
	e := newTestEngine(t, 4, lines)
	defer e.Close()
	sess := e.NewSession()
	ops := asyncOps(n, lines)
	var completed atomic.Int64
	var saw atomic.Int64
	cb := func(outs []Outcome, err error) {
		if err != nil {
			t.Error(err)
		}
		for i := range outs {
			saw.Add(int64(outs[i].SAWCells))
		}
		completed.Add(int64(len(outs)))
	}
	for off := 0; off < n; off += batch {
		if err := sess.SubmitFunc(ops[off:off+batch], nil, cb); err != nil {
			t.Fatal(err)
		}
	}
	sess.Drain()
	if got := completed.Load(); got != n {
		t.Fatalf("callbacks delivered %d outcomes, want %d", got, n)
	}
	// Fault-free engine: SAW must be zero; the point is the sum was
	// readable after Drain without any further synchronization.
	if saw.Load() != 0 {
		t.Errorf("unexpected SAW cells %d on a fault-free engine", saw.Load())
	}
	writes := int64(0)
	for i := range ops {
		if ops[i].Kind == OpWrite {
			writes++
		}
	}
	if got := e.Stats().LineWrites; got != writes {
		t.Errorf("LineWrites %d after Drain, want %d", got, writes)
	}
}

// TestSubmitEmptyBatch: zero-op tickets complete immediately in both
// forms.
func TestSubmitEmptyBatch(t *testing.T) {
	e := newTestEngine(t, 2, 8)
	defer e.Close()
	tk, err := e.Submit(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs, err := tk.Wait(); err != nil || len(outs) != 0 {
		t.Fatalf("empty ticket: outs %v err %v", outs, err)
	}
	fired := false
	if err := e.SubmitFunc(nil, nil, func(outs []Outcome, err error) {
		fired = err == nil && len(outs) == 0
	}); err != nil {
		t.Fatal(err)
	}
	if !fired { // empty callbacks fire inline, before SubmitFunc returns
		t.Error("empty SubmitFunc did not fire its callback")
	}
}

// TestFlushBarrierOrdersWithInFlight: a Flush issued between Submits
// lands after everything already queued, so a write-back engine's
// device accounting is exact for the prefix without waiting on any
// ticket first.
func TestFlushBarrierOrdersWithInFlight(t *testing.T) {
	const lines, n = 64, 600
	e, err := New(Config{
		Lines: lines, Shards: 2, QueueDepth: 4,
		NewCodec:    func() coset.Codec { return coset.NewFNW(64, 16) },
		Seed:        3,
		CacheLines:  8,
		CachePolicy: linecache.WriteBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ops := asyncOps(n, lines)
	writes := int64(0)
	var tickets []*Ticket
	for off := 0; off < n; off += 50 {
		tk, err := e.Submit(ops[off:off+50], nil)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i := range ops {
		if ops[i].Kind == OpWrite {
			writes++
		}
	}
	// Flush before waiting on anything: the barrier must cover all
	// tickets above because they were submitted first.
	e.Flush()
	st := e.Stats()
	if st.LineWrites+st.CoalescedWrites != writes {
		t.Errorf("post-barrier accounting: LineWrites %d + CoalescedWrites %d != logical %d",
			st.LineWrites, st.CoalescedWrites, writes)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseLifecycle is the Close regression suite: idempotent double
// Close (sequential and concurrent), ErrClosed from Submit and every
// wrapper, working snapshots afterwards, and a harmless post-Close
// Flush.
func TestCloseLifecycle(t *testing.T) {
	e := newTestEngine(t, 4, 64)
	data := make([]byte, LineSize)
	if _, err := e.Write(1, data); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // double Close must not panic or hang
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Close() }() // nor concurrent Close
	}
	wg.Wait()

	if _, err := e.Submit(asyncOps(4, 64), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := e.SubmitFunc(nil, nil, func([]Outcome, error) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitFunc after Close: %v, want ErrClosed", err)
	}
	if _, err := e.Apply(asyncOps(4, 64), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply after Close: %v, want ErrClosed", err)
	}
	if _, err := e.Write(0, data); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after Close: %v, want ErrClosed", err)
	}
	if _, err := e.Read(0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v, want ErrClosed", err)
	}
	if _, err := e.NewSession().Submit(nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("empty Submit after Close: %v, want ErrClosed", err)
	}
	if got := e.Stats().LineWrites; got != 1 {
		t.Errorf("Stats after Close: LineWrites %d, want 1", got)
	}
	if got := e.ShardStats(1).LineWrites; got != 1 {
		t.Errorf("ShardStats after Close: LineWrites %d, want 1", got)
	}
	e.Flush() // no-op, must not panic
}
