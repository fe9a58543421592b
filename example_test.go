package vcc_test

import (
	"bytes"
	"fmt"

	vcc "repro"
)

// ExampleNewShardedMemory shows the end-to-end path: a cache line is
// encrypted, coset-encoded, programmed into simulated MLC PCM, and read
// back.
func ExampleNewShardedMemory() {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:      64,
		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		Objective:  vcc.OptEnergy,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	line := bytes.Repeat([]byte{0xAB}, vcc.LineSize)
	if _, err := mem.Write(3, line); err != nil {
		panic(err)
	}
	back, _ := mem.Read(3, nil)
	fmt.Println("round trip ok:", bytes.Equal(back, line))
	fmt.Println("writes:", mem.Stats().LineWrites)
	// Output:
	// round trip ok: true
	// writes: 1
}

// ExampleShardedMemory_Session shows the asynchronous submission path
// (the runnable pipeline lives in examples/async_pipeline): Submit
// returns a Ticket immediately, per-shard queues apply tickets in
// submission order — so a read batch submitted after a write batch
// observes every write, without waiting on the first ticket — and
// Wait delivers the outcomes.
func ExampleShardedMemory_Session() {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:      256,
		Shards:     4,
		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	defer mem.Close()
	sess := mem.Session()

	writes := make([]vcc.Op, 64)
	reads := make([]vcc.Op, 64)
	for i := range writes {
		data := bytes.Repeat([]byte{byte(i)}, vcc.LineSize)
		writes[i] = vcc.Op{Kind: vcc.OpWrite, Line: i, Data: data}
		reads[i] = vcc.Op{Kind: vcc.OpRead, Line: i}
	}
	wt, err := sess.Submit(writes, nil) // returns before any op runs
	if err != nil {
		panic(err)
	}
	rt, err := sess.Submit(reads, nil) // queued behind the writes per shard
	if err != nil {
		panic(err)
	}
	if _, err := wt.Wait(); err != nil {
		panic(err)
	}
	outs, err := rt.Wait()
	if err != nil {
		panic(err)
	}
	ok := true
	for i := range outs {
		ok = ok && bytes.Equal(outs[i].Data, writes[i].Data)
	}
	sess.Drain() // everything submitted through the session is complete
	fmt.Println("round trips ok:", ok)
	fmt.Println("writes:", mem.Stats().LineWrites, "reads:", mem.Stats().LineReads)
	// Output:
	// round trips ok: true
	// writes: 64 reads: 64
}

// ExampleNewShardedMemory_faultMasking demonstrates the Opt.SAW cost
// function masking stuck cells that would corrupt an unencoded memory.
func ExampleNewShardedMemory_faultMasking() {
	cfg := vcc.ShardedMemoryConfig{
		Lines:     256,
		Objective: vcc.OptSAW,
		FaultRate: 1e-2,
		Seed:      7,
	}
	line := bytes.Repeat([]byte{0x5C}, vcc.LineSize)

	cfg.NewEncoder = vcc.NewUnencoded
	plain, _ := vcc.NewShardedMemory(cfg)
	defer plain.Close()
	cfg.NewEncoder = func() vcc.Encoder { return vcc.NewVCCEncoder(256) }
	encoded, _ := vcc.NewShardedMemory(cfg)
	defer encoded.Close()

	var sawPlain, sawVCC int
	for l := 0; l < 256; l++ {
		a, _ := plain.Write(l, line)
		b, _ := encoded.Write(l, line)
		sawPlain += a
		sawVCC += b
	}
	fmt.Println("unencoded corrupted cells > 100:", sawPlain > 100)
	fmt.Println("VCC corrupted cells < 10% of that:", sawVCC*10 < sawPlain)
	// Output:
	// unencoded corrupted cells > 100: true
	// VCC corrupted cells < 10% of that: true
}
