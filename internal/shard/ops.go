package shard

import (
	"fmt"
)

// This file defines the mixed op-stream types and the synchronous
// Apply entry point. Apply is a thin Submit+Wait wrapper over the
// asynchronous issue queues (async.go) — as are the single-op
// Write/Read (shard.go) — so the whole request surface funnels through
// one path with one ordering and allocation contract:
//
//   - the shard grouping state (per-shard index lists, active-shard
//     list, completion signal) lives in pooled tickets recycled across
//     batches;
//   - results go into a caller-reusable Outcome slice;
//   - dispatch feeds per-shard bounded issue queues drained by
//     persistent goroutines (spawned once at New) through by-value
//     entries, so no goroutines, channels or closures are created per
//     batch.

// OpKind distinguishes reads from writes in a mixed op stream.
type OpKind uint8

const (
	// OpWrite stores a 64-byte line.
	OpWrite OpKind = iota
	// OpRead retrieves a 64-byte line.
	OpRead
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one element of a mixed read/write request stream.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Line is the global line index.
	Line int
	// Data is the 64-byte plaintext to store (OpWrite; the engine does
	// not retain it past the op's completion) or an optional destination
	// buffer (OpRead; allocated when nil).
	Data []byte
}

// Outcome is the per-op result of Apply/Submit, indexed like the op
// slice.
type Outcome struct {
	// SAWCells is the stuck-at-wrong cell count of the stored line
	// (OpWrite only).
	SAWCells int
	// Data is the plaintext read back (OpRead only). It aliases the
	// op's Data buffer when one was provided, otherwise it is freshly
	// allocated.
	Data []byte
	// Err is the per-op device error, set when the op still failed
	// after the backend's bounded in-place retries (a
	// *memctrl.DeviceError). A failed write may have left corrupted
	// cells behind; a failed read's Data must not be trusted. Other
	// ops of the same batch complete independently.
	Err error
}

// validateOps rejects malformed ops before anything is enqueued.
func (e *Engine) validateOps(ops []Op) error {
	for i := range ops {
		op := &ops[i]
		if err := e.checkLine(op.Line); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		switch op.Kind {
		case OpWrite:
			if len(op.Data) != LineSize {
				return fmt.Errorf("op %d: write needs %d bytes, got %d", i, LineSize, len(op.Data))
			}
		case OpRead:
			if op.Data != nil && len(op.Data) != LineSize {
				return fmt.Errorf("op %d: read needs a %d-byte buffer, got %d", i, LineSize, len(op.Data))
			}
		default:
			return fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// Apply executes a mixed stream of reads and writes and returns one
// Outcome per op, indexed like ops. It is Submit followed by Wait — the
// synchronous view of the issue queues. Ops are validated up front; on
// error nothing is executed. After Close it returns ErrClosed.
//
// Ordering: ops addressed to the same shard are applied in slice order,
// interleaving reads and writes exactly as submitted, so a batch is
// equivalent to a deterministic sequential interleaving regardless of
// concurrent in-flight tickets on other shards (ops on different
// shards touch disjoint state and may run in any order).
//
// Allocation: out is reused when it has capacity for len(ops) outcomes
// and allocated otherwise; pass the previous call's slice back to make
// steady-state dispatch allocation-free. Read outcomes alias the op's
// Data buffer when one is provided and allocate one otherwise.
func (e *Engine) Apply(ops []Op, out []Outcome) ([]Outcome, error) {
	t, err := e.Submit(ops, out)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}
