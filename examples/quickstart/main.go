// Quickstart: write one encrypted cache line through Virtual Coset
// Coding into a simulated MLC PCM memory, read it back, and inspect the
// write-energy accounting.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	vcc "repro"
)

func main() {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines: 1024, // 64 KiB of simulated MLC PCM
		// The paper's VCC(64,256,16); a factory, since each shard owns
		// its own encoder.
		NewEncoder: func() vcc.Encoder { return vcc.NewVCCEncoder(256) },
		Objective:  vcc.OptEnergy, // minimize energy, then SAW
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()

	// A cache line of very biased plaintext: without encryption this
	// would be trivially compressible; with AES-CTR in the path, the
	// cells see uniformly random bits — which is the entire reason VCC
	// exists.
	line := bytes.Repeat([]byte("Go!"), 22)[:vcc.LineSize]

	if _, err := mem.Write(7, line); err != nil {
		log.Fatal(err)
	}
	back, err := mem.Read(7, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		log.Fatal("round trip failed")
	}
	fmt.Printf("round trip OK: %q...\n", back[:12])

	st := mem.Stats()
	fmt.Printf("line writes:   %d\n", st.LineWrites)
	fmt.Printf("write energy:  %.1f pJ\n", st.EnergyPJ)
	fmt.Printf("cell changes:  %d of %d cells\n", st.CellChanges, 8*32)

	// Compare against writing the same data unencoded.
	plain, _ := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines: 1024, NewEncoder: vcc.NewUnencoded, Seed: 42,
	})
	defer plain.Close()
	plain.Write(7, line)
	fmt.Printf("unencoded:     %.1f pJ for the same line\n", plain.Stats().EnergyPJ)
	fmt.Printf("VCC saving:    %.1f%%\n",
		100*(1-st.EnergyPJ/plain.Stats().EnergyPJ))
}
