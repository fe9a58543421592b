// Async pipeline: keep several tickets in flight through a sharded
// memory's per-shard issue queues, overlapping op-stream generation
// with encrypt+encode work across shards, then drain and compare
// against the synchronous path.
//
// Run with: go run ./examples/async_pipeline
package main

import (
	"fmt"
	"log"

	vcc "repro"
	"repro/internal/prng"
)

const (
	lines = 1 << 14
	batch = 512
	depth = 8  // tickets in flight
	total = 64 // batches per run
)

// buildBatches pregenerates a deterministic mixed op stream, one slot
// per in-flight ticket, each with its own reusable buffers.
func buildBatches(seed uint64) [][]vcc.Op {
	rng := prng.New(seed)
	slots := make([][]vcc.Op, depth)
	for s := range slots {
		ops := make([]vcc.Op, batch)
		for i := range ops {
			data := make([]byte, vcc.LineSize)
			rng.Fill(data)
			kind := vcc.OpWrite
			if rng.Float64() < 0.6 {
				kind = vcc.OpRead
			}
			ops[i] = vcc.Op{Kind: kind, Line: rng.Intn(lines), Data: data}
		}
		slots[s] = ops
	}
	return slots
}

func newMemory() *vcc.ShardedMemory {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:      lines,
		Shards:     4,
		QueueDepth: depth, // per-shard backpressure bound
		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	return mem
}

func main() {
	slots := buildBatches(7)

	// Synchronous baseline: Apply blocks the producer on every batch.
	syncMem := newMemory()
	outs := make([][]vcc.Outcome, depth)
	for i := 0; i < total; i++ {
		var err error
		s := i % depth
		if outs[s], err = syncMem.Apply(slots[s], outs[s]); err != nil {
			log.Fatal(err)
		}
	}
	syncStats := syncMem.Stats()
	syncMem.Close()

	// Async pipeline: Submit returns immediately with a Ticket; the
	// producer only waits when a slot's previous ticket is still open,
	// so up to `depth` batches encode while the next ones are prepared.
	mem := newMemory()
	defer mem.Close()
	sess := mem.Session()
	tickets := make([]*vcc.Ticket, depth)
	for i := 0; i < total; i++ {
		s := i % depth
		if tickets[s] != nil {
			if _, err := tickets[s].Wait(); err != nil {
				log.Fatal(err)
			}
		}
		tk, err := sess.Submit(slots[s], outs[s])
		if err != nil {
			log.Fatal(err)
		}
		tickets[s] = tk
	}
	for s := range tickets {
		if tickets[s] != nil {
			if _, err := tickets[s].Wait(); err != nil {
				log.Fatal(err)
			}
		}
	}
	sess.Drain()
	st := mem.Stats()

	fmt.Printf("ops submitted:   %d (%d writes, %d reads)\n",
		st.LineWrites+st.LineReads, st.LineWrites, st.LineReads)
	fmt.Printf("tickets:         %d in flight\n", depth)
	fmt.Printf("identical stats: %v\n", st == syncStats)
	fmt.Println("note: overlap only shows wall-clock gains on multi-core hosts;")
	fmt.Println("      the statistics are bit-identical at any in-flight depth.")
}
