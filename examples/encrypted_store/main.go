// Encrypted store: a tiny persistent key-value store running on
// simulated encrypted PCM with Virtual Coset Coding — the paper's
// deployment scenario (non-volatile main memory whose contents must be
// useless to a physical attacker) made concrete.
//
// The store places fixed-size records into cache lines of a
// vcc.ShardedMemory with a 1e-2 stuck-at fault rate, the paper's
// "extreme wear snapshot". Because the encoder's cost function masks
// stuck-at-wrong cells, the store keeps returning correct data on a
// memory that would corrupt roughly a quarter of unencoded lines.
//
// Run with: go run ./examples/encrypted_store
package main

import (
	"bytes"
	"fmt"
	"log"

	vcc "repro"
)

// record is a fixed-width key/value pair filling one cache line.
type record struct {
	Key   [16]byte
	Value [48]byte
}

func (r *record) marshal() []byte {
	out := make([]byte, vcc.LineSize)
	copy(out[:16], r.Key[:])
	copy(out[16:], r.Value[:])
	return out
}

func unmarshal(b []byte) record {
	var r record
	copy(r.Key[:], b[:16])
	copy(r.Value[:], b[16:])
	return r
}

// store maps keys to lines with open addressing over the memory.
type store struct {
	mem   *vcc.ShardedMemory
	index map[[16]byte]int
	next  int
}

func newStore(mem *vcc.ShardedMemory) *store {
	return &store{mem: mem, index: make(map[[16]byte]int)}
}

func (s *store) Put(key string, value []byte) error {
	var r record
	copy(r.Key[:], key)
	copy(r.Value[:], value)
	line, ok := s.index[r.Key]
	if !ok {
		if s.next >= s.mem.Lines() {
			return fmt.Errorf("store full")
		}
		line = s.next
		s.next++
		s.index[r.Key] = line
	}
	saw, err := s.mem.Write(line, r.marshal())
	if err != nil {
		return err
	}
	if saw > 0 {
		// The encoder could not fully mask the line's stuck cells; a
		// production controller would remap here (cf. ECP/start-gap).
		return fmt.Errorf("line %d stored with %d wrong cells", line, saw)
	}
	return nil
}

func (s *store) Get(key string) ([]byte, error) {
	var k [16]byte
	copy(k[:], key)
	line, ok := s.index[k]
	if !ok {
		return nil, fmt.Errorf("key %q not found", key)
	}
	raw, err := s.mem.Read(line, nil)
	if err != nil {
		return nil, err
	}
	r := unmarshal(raw)
	if r.Key != k {
		return nil, fmt.Errorf("key %q corrupted in memory", key)
	}
	return r.Value[:], nil
}

func main() {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines:      512,
		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		Objective:  vcc.OptSAW, // mask faults first, save energy second
		FaultRate:  1e-2,       // the paper's extreme-wear snapshot
		Seed:       2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()
	fmt.Printf("memory: %d lines, %d stuck cells\n", mem.Lines(), mem.StuckCells())

	st := newStore(mem)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	failures := 0
	for round := 0; round < 50; round++ {
		for i, k := range keys {
			val := fmt.Sprintf("value-%s-round-%03d", k, round)
			if err := st.Put(k, []byte(val)); err != nil {
				failures++
				continue
			}
			got, err := st.Get(k)
			if err != nil {
				log.Fatalf("get %q: %v", k, err)
			}
			if !bytes.HasPrefix(got, []byte(val)) {
				log.Fatalf("round %d key %d: corrupted value", round, i)
			}
		}
	}
	s := mem.Stats()
	fmt.Printf("writes: %d, unmaskable-line events: %d\n", s.LineWrites, failures)
	fmt.Printf("total SAW cells across all writes: %d\n", s.SAWCells)
	fmt.Printf("write energy: %.2f nJ\n", s.EnergyPJ/1000)
	fmt.Println("all reads returned correct plaintext despite the faulty, encrypted medium")
}
