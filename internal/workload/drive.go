package workload

import "repro/internal/shard"

// Drive applies the ops pulled from next to the engine through
// synchronous Apply, batch ops at a time, until next reports
// exhaustion. next receives ops whose Data field is a reusable 64-byte
// buffer (write plaintext or read destination) and returns false —
// without consuming the op — when the stream ends; a short final batch
// is applied as is. batch must be at least 1. Op, buffer and outcome
// slices are allocated once, so the loop runs on the engine's
// allocation-free dispatch path.
func Drive(eng *shard.Engine, next func(*shard.Op) bool, batch int) error {
	if batch < 1 {
		panic("workload: Drive needs a batch of at least 1")
	}
	ops := make([]shard.Op, batch)
	bufs := make([]byte, batch*shard.LineSize)
	for i := range ops {
		ops[i].Data = bufs[i*shard.LineSize : (i+1)*shard.LineSize]
	}
	var outs []shard.Outcome
	for {
		n := 0
		for n < batch && next(&ops[n]) {
			n++
		}
		if n == 0 {
			return nil
		}
		var err error
		if outs, err = eng.Apply(ops[:n], outs); err != nil {
			return err
		}
		if n < batch {
			return nil
		}
	}
}
