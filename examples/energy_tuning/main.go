// Energy tuning: sweep the VCC design space — virtual-coset count,
// kernel source, and cost-function ordering — on one workload and print
// the energy/SAW trade-offs a memory-controller architect would weigh
// (the paper's Section V design-space exploration in miniature).
//
// Run with: go run ./examples/energy_tuning
package main

import (
	"fmt"
	"log"

	vcc "repro"
	"repro/internal/prng"
)

const lines = 2048

func run(newEnc func() vcc.Encoder, obj vcc.Objective, seed uint64) (energyPJ float64, saw int64) {
	mem, err := vcc.NewShardedMemory(vcc.ShardedMemoryConfig{
		Lines: lines, NewEncoder: newEnc, Objective: obj,
		FaultRate: 1e-2, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()
	rng := prng.New(seed ^ 0xDA7A)
	buf := make([]byte, vcc.LineSize)
	for l := 0; l < lines; l++ {
		rng.Fill(buf)
		if _, err := mem.Write(l, buf); err != nil {
			log.Fatal(err)
		}
	}
	st := mem.Stats()
	return st.EnergyPJ, st.SAWCells
}

func main() {
	const seed = 7
	baseE, baseSAW := run(vcc.NewUnencoded, vcc.OptEnergy, seed)
	fmt.Printf("unencoded baseline: %.0f pJ, %d SAW cells\n\n", baseE, baseSAW)
	fmt.Printf("%-28s %-12s %10s %8s %10s %8s\n",
		"encoder", "objective", "energy_pJ", "saving", "SAW", "masked")

	type cfg struct {
		name   string
		newEnc func() vcc.Encoder
		obj    vcc.Objective
	}
	var cfgs []cfg
	for _, n := range []int{32, 64, 128, 256} {
		cfgs = append(cfgs, cfg{fmt.Sprintf("VCC stored N=%d", n),
			func() vcc.Encoder { return vcc.NewVCCEncoder(n) }, vcc.OptEnergy})
	}
	cfgs = append(cfgs,
		cfg{"VCC stored N=256 (SAW 1st)", func() vcc.Encoder { return vcc.NewVCCEncoder(256) }, vcc.OptSAW},
		cfg{"VCC generated N=256", func() vcc.Encoder { return vcc.NewVCCGeneratedEncoder(256) }, vcc.OptEnergy},
		cfg{"RCC N=256", func() vcc.Encoder { return vcc.NewRCCEncoder(256) }, vcc.OptEnergy},
		cfg{"DBI/FNW k=16", func() vcc.Encoder { return vcc.NewFNWEncoder(16) }, vcc.OptEnergy},
		cfg{"Flipcy", vcc.NewFlipcyEncoder, vcc.OptEnergy},
	)
	for _, c := range cfgs {
		e, s := run(c.newEnc, c.obj, seed)
		fmt.Printf("%-28s %-12s %10.0f %7.1f%% %10d %7.1f%%\n",
			c.name, c.obj, e, 100*(1-e/baseE), s,
			100*(1-float64(s)/float64(baseSAW)))
	}
	fmt.Println("\nreading the table: more virtual cosets buy more energy savings; the")
	fmt.Println("cost ordering decides what the spare freedom is spent on — energy-first")
	fmt.Println("almost never ties, so fault masking needs the SAW-first ordering, which")
	fmt.Println("still keeps most of the energy win (the paper's Opt.SAW result).")
}
