package vcc

import (
	"bytes"
	"testing"
)

func line(seed byte) []byte {
	b := make([]byte, LineSize)
	for i := range b {
		b[i] = seed ^ byte(i*3)
	}
	return b
}

func TestMemoryRoundTrip(t *testing.T) {
	for _, newEnc := range []func() Encoder{
		func() Encoder { return NewVCCEncoder(256) },
		func() Encoder { return NewVCCGeneratedEncoder(256) },
		func() Encoder { return NewRCCEncoder(64) },
		func() Encoder { return NewFNWEncoder(16) },
		NewFlipcyEncoder, NewUnencoded,
	} {
		name := newEnc().Name()
		mem, err := NewShardedMemory(ShardedMemoryConfig{Lines: 32,
			NewEncoder: newEnc, Objective: OptEnergy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < mem.Lines(); l++ {
			if _, err := mem.Write(l, line(byte(l))); err != nil {
				t.Fatal(err)
			}
			got, err := mem.Read(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line(byte(l))) {
				t.Fatalf("%s: line %d corrupted", name, l)
			}
		}
		mem.Close()
	}
}

func TestMemoryDefaults(t *testing.T) {
	mem, err := NewShardedMemory(ShardedMemoryConfig{Lines: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Write(0, line(9)); err != nil {
		t.Fatal(err)
	}
	got, _ := mem.Read(0, nil)
	if !bytes.Equal(got, line(9)) {
		t.Error("default config round trip failed")
	}
	if mem.Stats().EnergyPJ <= 0 || mem.Stats().LineWrites != 1 {
		t.Error("stats not recorded")
	}
}

func TestMemoryValidation(t *testing.T) {
	if _, err := NewShardedMemory(ShardedMemoryConfig{}); err == nil {
		t.Error("zero lines accepted")
	}
	mem, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 4, Seed: 3})
	defer mem.Close()
	if _, err := mem.Write(99, line(0)); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, err := mem.Write(0, make([]byte, 5)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := mem.Read(-1, nil); err == nil {
		t.Error("negative line read accepted")
	}
	if _, err := mem.Read(0, make([]byte, 3)); err == nil {
		t.Error("short read buffer accepted")
	}
}

func TestMemoryWithFaultsReportsSAW(t *testing.T) {
	mem, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 256, NewEncoder: NewUnencoded,
		FaultRate: 2e-2, Seed: 4})
	defer mem.Close()
	var total int
	for l := 0; l < mem.Lines(); l++ {
		saw, err := mem.Write(l, line(byte(l)))
		if err != nil {
			t.Fatal(err)
		}
		total += saw
	}
	if total == 0 {
		t.Error("2% fault rate produced no SAW on unencoded writes")
	}
	if mem.StuckCells() == 0 {
		t.Error("StuckCells should reflect the fault map")
	}
	// VCC masks most of them on the same fault landscape.
	memV, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 256,
		NewEncoder: func() Encoder { return NewVCCEncoder(256) },
		Objective:  OptSAW, FaultRate: 2e-2, Seed: 4})
	defer memV.Close()
	var totalV int
	for l := 0; l < memV.Lines(); l++ {
		saw, _ := memV.Write(l, line(byte(l)))
		totalV += saw
	}
	if totalV*5 > total {
		t.Errorf("VCC SAW %d not well below unencoded %d", totalV, total)
	}
}

func TestMemoryWearTracking(t *testing.T) {
	mem, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 4, EnduranceWrites: 30, Seed: 5})
	defer mem.Close()
	for i := 0; i < 400; i++ {
		if _, err := mem.Write(i%4, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Stats().FailedCells == 0 {
		t.Error("short-endurance memory should have failed cells")
	}
	if mem.StuckCells() == 0 {
		t.Error("failed cells should appear stuck")
	}
}

func TestMemorySLC(t *testing.T) {
	mem, err := NewShardedMemory(ShardedMemoryConfig{Lines: 8, SLC: true,
		NewEncoder: func() Encoder { return NewVCCEncoder(256) }, Objective: OptFlips, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	mem.Write(1, line(7))
	got, _ := mem.Read(1, nil)
	if !bytes.Equal(got, line(7)) {
		t.Error("SLC round trip failed")
	}
}

func TestMemoryUnencryptedAblation(t *testing.T) {
	mem, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 8, DisableEncryption: true, Seed: 7})
	defer mem.Close()
	mem.Write(2, line(1))
	got, _ := mem.Read(2, nil)
	if !bytes.Equal(got, line(1)) {
		t.Error("unencrypted round trip failed")
	}
}

func TestResetStats(t *testing.T) {
	mem, _ := NewShardedMemory(ShardedMemoryConfig{Lines: 4, Seed: 8})
	defer mem.Close()
	mem.Write(0, line(0))
	mem.ResetStats()
	if mem.Stats().LineWrites != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestEncoderConstructorsDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, e := range []Encoder{
		NewVCCEncoder(256), NewVCCGeneratedEncoder(256), NewRCCEncoder(64),
		NewFNWEncoder(16), NewFlipcyEncoder(), NewUnencoded(),
	} {
		if names[e.Name()] {
			t.Errorf("duplicate encoder name %q", e.Name())
		}
		names[e.Name()] = true
	}
}

// TestMemoryModelBased drives a fault-free memory with a random
// operation sequence and checks it against a plain map reference model:
// whatever was written last to a line is what reads back, regardless of
// encoder, interleaving, or overwrite count.
func TestMemoryModelBased(t *testing.T) {
	rng := newTestRand(99)
	for _, newEnc := range []func() Encoder{
		func() Encoder { return NewVCCEncoder(64) },
		func() Encoder { return NewVCCGeneratedEncoder(64) },
		func() Encoder { return NewRCCEncoder(32) },
		func() Encoder { return NewFNWEncoder(16) },
	} {
		name := newEnc().Name()
		mem, err := NewShardedMemory(ShardedMemoryConfig{Lines: 16,
			NewEncoder: newEnc, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		model := map[int][]byte{}
		for op := 0; op < 500; op++ {
			l := rng.Intn(16)
			if rng.Intn(2) == 0 || model[l] == nil {
				buf := make([]byte, LineSize)
				rng.Fill(buf)
				if _, err := mem.Write(l, buf); err != nil {
					t.Fatal(err)
				}
				model[l] = buf
			} else {
				got, err := mem.Read(l, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model[l]) {
					t.Fatalf("%s: op %d line %d: memory diverged from model",
						name, op, l)
				}
			}
		}
		mem.Close()
	}
}

// newTestRand is a tiny splitmix64 so the facade test does not reach
// into internal packages.
type testRand struct{ s, out uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed} }

func (r *testRand) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	r.out = z ^ (z >> 31)
	return r.out
}

func (r *testRand) Intn(n int) int { return int(r.next() % uint64(n)) }

func (r *testRand) Fill(b []byte) {
	for i := range b {
		if i%8 == 0 {
			r.next()
		}
		b[i] = byte(r.out >> uint(8*(i%8)))
	}
}
