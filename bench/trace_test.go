package main

import (
	"bytes"
	"testing"
	"time"

	vcc "repro"
	"repro/internal/coset"
	"repro/internal/prng"
	"repro/internal/shard"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// A write whose controller span holds two encodes, the second
		// of which reaches past its parent's end.
		{ID: 1, Parent: 0, Name: spanCacheW, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanCtlWrite, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanEncode, Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: spanEncode, Start: 80, End: 95},
		// Overlapping children count once: [110,150] and [130,170]
		// cover 60 of [100,200].
		{ID: 5, Parent: 0, Name: spanRemapW, Start: 100, End: 200},
		{ID: 6, Parent: 5, Name: spanCtlWrite, Start: 110, End: 150},
		{ID: 7, Parent: 5, Name: spanCtlWrite, Start: 130, End: 170},
		// A leaf is all self time.
		{ID: 8, Parent: 0, Name: spanCtlRead, Start: 300, End: 330},
	}
	self := selfTimes(spans)
	want := map[spanName]int64{
		spanCacheW:   100 - 80,
		spanCtlWrite: (80 - 20 - 10) + 40 + 40,
		spanEncode:   20 + 15,
		spanRemapW:   100 - 60,
		spanCtlRead:  30,
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if self[n] != want[n] {
			t.Errorf("self[%s] = %d, want %d", n, self[n], want[n])
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 30}}, 20},
		{[][2]int64{{20, 30}, {0, 25}}, 30},
		{[][2]int64{{0, 30}, {5, 10}, {10, 12}}, 30},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSpanLogNestsAndCaps(t *testing.T) {
	log := newSpanLog("test", time.Now(), 2, nil)
	log.request(7)
	log.begin(spanCtlWrite)
	log.begin(spanEncode)
	log.end()
	log.begin(spanEncode) // past the limit: aggregated, not kept
	log.end()
	log.end()
	if len(log.spans) != 2 || !log.full() {
		t.Fatalf("kept %d spans (full=%v), want 2 and full", len(log.spans), log.full())
	}
	enc, ctl := log.spans[0], log.spans[1]
	if enc.Name != spanEncode || ctl.Name != spanCtlWrite || enc.Parent != ctl.ID || ctl.Parent != 0 {
		t.Errorf("spans %+v: want the encode nested in the controller write", log.spans)
	}
	if enc.Req != 7 || ctl.Req != 7 {
		t.Errorf("spans %+v: want both in request 7", log.spans)
	}
	if enc.Start < ctl.Start || enc.End > ctl.End {
		t.Errorf("encode %+v lies outside its parent %+v", enc, ctl)
	}
	if log.agg[spanEncode].n != 2 || log.agg[spanCtlWrite].n != 1 {
		t.Errorf("aggregates %+v: want 2 encodes and 1 controller write", log.agg)
	}

	var off *spanLog
	off.begin(spanGen) // a nil log records nothing and does not panic
	off.end()
}

// TestTracedCodecParity checks that the tracing wrapper implements
// exactly the optional interfaces of the codec it wraps, so the
// controller takes the same paths, and that a shard stack built with it
// ends bit-identical to one built without it.
func TestTracedCodecParity(t *testing.T) {
	for _, c := range []struct {
		name string
		new  func() vcc.Encoder
	}{
		{"VCC-Stored", func() vcc.Encoder { return vcc.NewVCCEncoder(256) }},
		{"VCC-Gen", func() vcc.Encoder { return vcc.NewVCCGeneratedEncoder(256) }},
		{"FNW", func() vcc.Encoder { return vcc.NewFNWEncoder(16) }},
		{"Flipcy", func() vcc.Encoder { return vcc.NewFlipcyEncoder() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain := c.new()
			log := newSpanLog("codec", time.Now(), 0, nil)
			traced := traceCodec(c.new(), log)
			_, fastP := plain.(coset.FastCodec)
			_, fastT := traced.(coset.FastCodec)
			_, decP := plain.(coset.LineDecoder)
			_, decT := traced.(coset.LineDecoder)
			if fastP != fastT || decP != decT {
				t.Fatalf("FastCodec %v/%v, LineDecoder %v/%v (plain/traced)", fastP, fastT, decP, decT)
			}

			cfg := shard.BackendConfig{Lines: 64, Objective: vcc.OptEnergy, Seed: 3}
			cfg.Codec = plain
			a, err := shard.NewBackend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Codec = traced
			b, err := shard.NewBackend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := prng.New(11)
			data := make([]byte, vcc.LineSize)
			for i := 0; i < 300; i++ {
				line := rng.Intn(64)
				rng.Fill(data)
				sawA, errA := a.WriteLine(line, data)
				sawB, errB := b.WriteLine(line, data)
				if sawA != sawB || errA != nil || errB != nil {
					t.Fatalf("write %d: saw %d/%d, errors %v/%v", i, sawA, sawB, errA, errB)
				}
			}
			for line := 0; line < 64; line++ {
				ra, errA := a.ReadLine(line, nil)
				rb, errB := b.ReadLine(line, nil)
				if !bytes.Equal(ra, rb) || errA != nil || errB != nil {
					t.Fatalf("line %d reads back differently", line)
				}
			}
			if a.StackStats() != b.StackStats() {
				t.Errorf("stats differ:\nplain  %+v\ntraced %+v", a.StackStats(), b.StackStats())
			}
			if log.agg[spanEncode].n == 0 || log.agg[spanDecode].n == 0 {
				t.Errorf("traced codec recorded %d encodes and %d decodes", log.agg[spanEncode].n, log.agg[spanDecode].n)
			}
		})
	}
}
