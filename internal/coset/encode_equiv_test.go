package coset

import (
	"math"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/pcm"
	"repro/internal/prng"
)

// The fast-path contract is bit-identity: for every codec exposing
// EncodeSliced, (enc, aux) must equal EncodeRef's output exactly — same
// winning virtual coset, same tie-breaks — across objectives, cell
// modes, stuck-cell patterns and energy models. These tests are the
// oracle; FuzzEncodeEquivalence keeps hunting after they pass.

// equivCodec pairs a codec with the context shapes it supports.
type equivCodec struct {
	name     string
	codec    Codec
	n        int
	mlcPlane bool // exercise the MLC right-digit-plane configuration
}

// equivCodecs is the codec list FuzzEncodeEquivalence indexes by
// codecSel % 13; the saved fuzz seeds depend on its order and length, so
// extend extraEquivCodecs instead.
func equivCodecs() []equivCodec {
	return []equivCodec{
		{"VCC-Stored(64,256,16)", NewVCCStored(64, 16, 256, 1), 64, false},
		{"VCC-Stored(64,8,2)m32", NewVCCStored(64, 32, 8, 4), 64, false},
		{"VCC-Stored(32,64,16)", NewVCCStored(32, 16, 64, 3), 32, true},
		{"VCC-Gen(16,256)", NewVCCGenerated(16, 256), 32, true},
		{"VCC-Gen(16,64)", NewVCCGenerated(16, 64), 32, true},
		{"VCC-Gen(8,256)", NewVCCGenerated(8, 256), 32, true},
		{"VCC-Hybrid", NewVCC(32, WithHybridKernels(NewGeneratedKernels(32, 16, 16))), 32, true},
		{"FNW(64,16)", NewFNW(64, 16), 64, false},
		{"FNW(64,8)", NewFNW(64, 8), 64, false},
		{"FNW(32,16)", NewFNW(32, 16), 32, true},
		{"RCC(64,256)", NewRCC(64, 256, 1), 64, false},
		{"RCC(32,16)", NewRCC(32, 16, 2), 32, true},
		{"Flipcy(64)", NewFlipcy(64), 64, false},
	}
}

// extraEquivCodecs are the geometries only TestFastEncodeMatchesReference
// covers: 8-bit lanes with p=8 and one kernel (ablate-m's m=8), and a
// full-word r=64 ROM, whose six index bits enter bindKeys' fit rule.
func extraEquivCodecs() []equivCodec {
	return []equivCodec{
		{"VCC-Stored(64,256,1)m8", NewVCCStored(64, 8, 256, 5), 64, false},
		{"VCC-Stored(64,1024,64)", NewVCCStored(64, 16, 1024, 6), 64, false},
	}
}

// referenceEncode routes a codec to its retained reference search. For
// the explicit-candidate codecs (RCC, Flipcy) the bestOf sweep over
// Full+Aux is the reference; re-running Encode on a freshly constructed
// evaluator is exactly that sweep, so fast-vs-ref only diverges for the
// sliced codecs — which is where the assertion has teeth.
func referenceEncode(c Codec, data uint64, ev *Evaluator) (uint64, uint64) {
	switch rc := c.(type) {
	case *VCC:
		return rc.EncodeRef(data, ev)
	case *FNW:
		return rc.EncodeRef(data, ev)
	default:
		return c.Encode(data, ev)
	}
}

// equivCtx derives a randomized write context. Stuck cells arrive in
// both sparse-bit (SLC) and whole-symbol (MLC) shapes, old aux bits and
// the left plane are random, and occasionally another energy model
// replaces Table I's: arbitrary float costs, a negative coefficient, or
// one of two integral models on either side of the lane scan's
// integer-key rule.
func equivCtx(rng *prng.Rand, n int, mlcPlane bool) Ctx {
	mode := pcm.MLC
	if !mlcPlane && rng.Bool() {
		mode = pcm.SLC
	}
	var stuckMask uint64
	switch rng.Uint64() % 3 {
	case 0: // healthy word
	case 1: // a few stuck cells
		if mode == pcm.MLC {
			stuckMask = bitutil.ExpandSymbolMask(rng.Uint64() & rng.Uint64() & bitutil.Mask(32))
		} else {
			stuckMask = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	default: // dense damage
		if mode == pcm.MLC {
			stuckMask = bitutil.ExpandSymbolMask(rng.Uint64() & bitutil.Mask(32))
		} else {
			stuckMask = rng.Uint64()
		}
	}
	ctx := Ctx{
		N: n, Mode: mode, MLCPlane: mlcPlane,
		OldWord:   rng.Uint64(),
		NewLeft:   rng.Uint64() & bitutil.Mask(32),
		StuckMask: stuckMask,
		StuckVal:  rng.Uint64() & stuckMask,
		OldAux:    rng.Uint64() & 0xFFFF,
	}
	switch rng.Uint64() % 8 {
	case 0, 4:
		ctx.Energy = customEnergy
	case 1:
		ctx.Energy = negativeEnergy
	case 2:
		ctx.Energy = lowHeavyEnergy
	case 3:
		ctx.Energy = wideEnergy
	}
	return ctx
}

// customEnergy is an arbitrary positive energy model; negativeEnergy
// has a negative coefficient per cell mode, which turns off the float
// arm's branch-free orientation select, so those contexts run its exact
// Pair.Less select.
//
// lowHeavyEnergy and wideEnergy are integral. lowHeavyEnergy prices a
// low-drive program above a high-drive one and has a zero coefficient
// per cell mode; its keys fit every lane of 16 bits or more, so those
// geometries take the lane scan's integer arm while 8-bit lanes keep the
// float arm. wideEnergy's 2^26 pJ overflows both key layouts on every
// lane of at most 32 bits, so it always takes the float arm.
var (
	customEnergy = pcm.EnergyModel{
		MLCHighPJ: 7.25, MLCLowPJ: 1.1,
		SLCSetPJ: 3.3, SLCResetPJ: 11.7,
	}
	negativeEnergy = pcm.EnergyModel{
		MLCHighPJ: 7.25, MLCLowPJ: -1.5,
		SLCSetPJ: 3.3, SLCResetPJ: -2.0,
	}
	lowHeavyEnergy = pcm.EnergyModel{
		MLCHighPJ: 0, MLCLowPJ: 9,
		SLCSetPJ: 6, SLCResetPJ: 0,
	}
	wideEnergy = pcm.EnergyModel{
		MLCHighPJ: 1 << 26, MLCLowPJ: 3,
		SLCSetPJ: 5, SLCResetPJ: 1 << 26,
	}
)

// TestLaneScanEnergyArm pins which arm the lane scan prices the energy
// objectives with, per energy model: BindLine takes the integer keys for
// Table I's whole-picojoule MLC model and keeps the float arm for its SLC
// model's fractional 13.5 and 19.2 pJ, a -0 coefficient, an infinite or
// NaN one, a negative integer, and an integer too large for the keys.
// Every case must also encode exactly as EncodeRef, each context once as
// drawn and once with its stuck cells cleared, which the arms price by
// their stuck-free derivations (four counts on MLC, two on SLC).
func TestLaneScanEnergyArm(t *testing.T) {
	cases := []struct {
		name    string
		mode    pcm.CellMode
		energy  pcm.EnergyModel
		integer bool
	}{
		{"MLC default", pcm.MLC, pcm.DefaultEnergy, true},
		{"SLC default", pcm.SLC, pcm.DefaultEnergy, false},
		{"negative zero", pcm.MLC, pcm.EnergyModel{MLCHighPJ: 40, MLCLowPJ: math.Copysign(0, -1)}, false},
		{"+Inf", pcm.MLC, pcm.EnergyModel{MLCHighPJ: math.Inf(1), MLCLowPJ: 4}, false},
		{"NaN", pcm.MLC, pcm.EnergyModel{MLCHighPJ: 40, MLCLowPJ: math.NaN()}, false},
		{"negative integer", pcm.MLC, pcm.EnergyModel{MLCHighPJ: 40, MLCLowPJ: -4}, false},
		{"oversized integer", pcm.MLC, pcm.EnergyModel{MLCHighPJ: 1 << 26, MLCLowPJ: 4}, false},
	}
	codec := NewVCCStored(64, 16, 256, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := prng.New(0xA53)
			var sc SlicedCtx
			for _, obj := range []Objective{ObjEnergySAW, ObjSAWEnergy} {
				for trial := 0; trial < 200; trial++ {
					ctx := equivCtx(rng, 64, false)
					ctx.Mode, ctx.Energy = tc.mode, tc.energy
					data := rng.Uint64()
					free := ctx
					free.StuckMask, free.StuckVal = 0, 0
					for _, ctx := range []Ctx{ctx, free} {
						fe, fa := codec.EncodeSliced(data, NewEvaluator(ctx, obj), &sc)
						if sc.lane == 0 || sc.intKeys != tc.integer {
							t.Fatalf("obj %v: lane %d intKeys %v, want the integer arm %v",
								obj, sc.lane, sc.intKeys, tc.integer)
						}
						re, ra := codec.EncodeRef(data, NewEvaluator(ctx, obj))
						if fe != re || fa != ra {
							t.Fatalf("obj %v trial %d ctx %+v data %#x: fast (%#x,%#x) != ref (%#x,%#x)",
								obj, trial, ctx, data, fe, fa, re, ra)
						}
					}
				}
			}
		})
	}
}

var equivObjectives = []Objective{ObjFlips, ObjOnes, ObjEnergySAW, ObjSAWEnergy}

// TestFastEncodeMatchesReference is the randomized equivalence oracle:
// every sliced-path codec, 4 objectives, SLC + MLC (full-word and
// right-digit plane), random stuck patterns and old aux, against the
// retained reference evaluator search. A shared SlicedCtx is reused
// across all trials, mimicking the controller's per-word rebinding.
// Every VCC geometry here has a lane geometry, so each VCC encode must
// also leave the context bound with a lane: the equivalence check alone
// cannot tell a silent EncodeRef fallback from the lane scan.
func TestFastEncodeMatchesReference(t *testing.T) {
	rng := prng.New(0x5E11CED)
	var sc SlicedCtx
	for _, ec := range append(equivCodecs(), extraEquivCodecs()...) {
		t.Run(ec.name, func(t *testing.T) {
			_, isVCC := ec.codec.(*VCC)
			for trial := 0; trial < 400; trial++ {
				ctx := equivCtx(rng, ec.n, ec.mlcPlane)
				data := rng.Uint64() & bitutil.Mask(ec.n)
				for _, obj := range equivObjectives {
					evFast := NewEvaluator(ctx, obj)
					evRef := NewEvaluator(ctx, obj)
					var fastEnc, fastAux uint64
					if fc, ok := ec.codec.(FastCodec); ok {
						fastEnc, fastAux = fc.EncodeSliced(data, evFast, &sc)
					} else {
						fastEnc, fastAux = ec.codec.Encode(data, evFast)
					}
					if isVCC && (!sc.lineOK || sc.lane == 0) {
						t.Fatalf("trial %d obj %v ctx %+v: encode bound no lane geometry (lineOK %v, lane %d)",
							trial, obj, ctx, sc.lineOK, sc.lane)
					}
					refEnc, refAux := referenceEncode(ec.codec, data, evRef)
					if fastEnc != refEnc || fastAux != refAux {
						t.Fatalf("trial %d obj %v ctx %+v data %#x:\nfast (enc,aux) = (%#x,%#x)\nref  (enc,aux) = (%#x,%#x)",
							trial, obj, ctx, data, fastEnc, fastAux, refEnc, refAux)
					}
					// Line-scoped bind sweep: re-encoding the same word must
					// take the warm fingerprint path (every equivCodec
					// geometry binds, so the second BindFor must skip the
					// word-invariant layer) and still produce the identical
					// result — the controller's 8-words-per-line pattern.
					if fc, ok := ec.codec.(FastCodec); ok {
						rebinds := sc.fastRebinds
						warmEnc, warmAux := fc.EncodeSliced(data, NewEvaluator(ctx, obj), &sc)
						if warmEnc != fastEnc || warmAux != fastAux {
							t.Fatalf("trial %d obj %v: warm rebind diverged: (%#x,%#x) vs (%#x,%#x)",
								trial, obj, warmEnc, warmAux, fastEnc, fastAux)
						}
						if sc.fastRebinds != rebinds+1 {
							t.Fatalf("trial %d obj %v: warm re-encode took the cold bind path (fastRebinds %d -> %d)",
								trial, obj, rebinds, sc.fastRebinds)
						}
					}
					// Decode must invert the fast encoding too.
					if dec := ec.codec.Decode(fastEnc, fastAux, ctx.NewLeft); dec != data {
						t.Fatalf("trial %d obj %v: decode(fast) = %#x, want %#x",
							trial, obj, dec, data)
					}
				}
			}
		})
	}
}

// TestSlicedFallsBackToReference pins the configurations the sliced
// context cannot represent: an odd kernel width on full-word MLC would
// split symbols across partitions, and a plane-width mismatch between
// codec and context has reference-defined degenerate semantics. Both
// must transparently produce the reference result.
func TestSlicedFallsBackToReference(t *testing.T) {
	rng := prng.New(77)
	var sc SlicedCtx

	// Odd m on full-word MLC: Bind refuses, EncodeSliced defers.
	fnw := NewFNW(64, 1)
	for trial := 0; trial < 50; trial++ {
		ctx := equivCtx(rng, 64, false)
		ctx.Mode = pcm.MLC
		data := rng.Uint64()
		for _, obj := range equivObjectives {
			ev := NewEvaluator(ctx, obj)
			if (&SlicedCtx{}).Bind(ev, 1) {
				t.Fatal("Bind should refuse odd m on full-word MLC")
			}
			fe, fa := fnw.EncodeSliced(data, ev, &sc)
			re, ra := fnw.EncodeRef(data, NewEvaluator(ctx, obj))
			if fe != re || fa != ra {
				t.Fatalf("fallback mismatch: (%#x,%#x) vs (%#x,%#x)", fe, fa, re, ra)
			}
		}
	}

	// Plane-width mismatch: a 64-bit codec driven with a 32-bit context.
	vcc := NewVCCStored(64, 16, 64, 9)
	for trial := 0; trial < 50; trial++ {
		ctx := equivCtx(rng, 32, false)
		data := rng.Uint64()
		ev := NewEvaluator(ctx, ObjEnergySAW)
		fe, fa := vcc.EncodeSliced(data, ev, &sc)
		re, ra := vcc.EncodeRef(data, NewEvaluator(ctx, ObjEnergySAW))
		if fe != re || fa != ra {
			t.Fatalf("N-mismatch fallback diverged: (%#x,%#x) vs (%#x,%#x)", fe, fa, re, ra)
		}
	}

	// A malformed MLCPlane context claiming a 64-bit plane: Bind must
	// refuse (a right-digit plane has at most 32 symbols) rather than
	// slice past bit 64, and Encode must match the reference's
	// degenerate handling.
	for trial := 0; trial < 50; trial++ {
		ctx := equivCtx(rng, 64, false)
		ctx.MLCPlane = true
		ctx.Mode = pcm.MLC
		data := rng.Uint64()
		ev := NewEvaluator(ctx, ObjEnergySAW)
		if (&SlicedCtx{}).Bind(ev, 16) {
			t.Fatal("Bind should refuse MLCPlane with N > 32")
		}
		fe, fa := vcc.EncodeSliced(data, ev, &sc)
		re, ra := vcc.EncodeRef(data, NewEvaluator(ctx, ObjEnergySAW))
		if fe != re || fa != ra {
			t.Fatalf("wide-MLCPlane fallback diverged: (%#x,%#x) vs (%#x,%#x)", fe, fa, re, ra)
		}
	}

	// An MLCPlane context whose Mode is SLC: the reference counts SLC
	// bits on the plane, which the lane scan's plane layout does not
	// price, so Bind must refuse and Encode must match the reference.
	gen := NewVCCGenerated(16, 256)
	for trial := 0; trial < 60; trial++ {
		ctx := equivCtx(rng, 32, true)
		ctx.Mode = pcm.SLC
		data := rng.Uint64() & bitutil.Mask(32)
		for _, obj := range equivObjectives {
			ev := NewEvaluator(ctx, obj)
			if sc.Bind(ev, 16) {
				t.Fatal("Bind should refuse an SLC-mode MLCPlane context")
			}
			fe, fa := gen.EncodeSliced(data, ev, &sc)
			re, ra := gen.EncodeRef(data, NewEvaluator(ctx, obj))
			if fe != re || fa != ra {
				t.Fatalf("obj %v: SLC-plane fallback diverged: (%#x,%#x) vs (%#x,%#x)",
					obj, fe, fa, re, ra)
			}
		}
	}
}

// TestRawLiteralEvaluatorSelfHeals pins the raw-literal escape hatch:
// an Evaluator built without Reset (zero-value EnergyModel, hoists
// unbound) must price and encode exactly like a Reset one — both Bind
// and the reference eval self-heal by rebinding, so the fast and
// reference paths see identical defaulted contexts.
func TestRawLiteralEvaluatorSelfHeals(t *testing.T) {
	rng := prng.New(0x117)
	codecs := []Codec{NewVCCStored(64, 16, 64, 9), NewFNW(64, 16)}
	for trial := 0; trial < 100; trial++ {
		ctx := equivCtx(rng, 64, false)
		ctx.Energy = pcm.EnergyModel{} // force the default substitution
		data := rng.Uint64()
		for _, c := range codecs {
			for _, obj := range equivObjectives {
				raw := &Evaluator{Ctx: ctx, Obj: obj}
				bound := NewEvaluator(ctx, obj)
				fe, fa := c.Encode(data, raw)
				re, ra := c.Encode(data, bound)
				if fe != re || fa != ra {
					t.Fatalf("raw-literal evaluator diverged on %s obj %v: (%#x,%#x) vs (%#x,%#x)",
						c.Name(), obj, fe, fa, re, ra)
				}
			}
		}
	}
}

// TestSlicedCtxPartCostMatchesPart checks the low-level contract
// directly: PartCost(j, v) must equal Part(v<<(j*m), j, m) bit-for-bit
// on random contexts, for every partition and objective — the invariant
// FNW's sliced encode is built on.
func TestSlicedCtxPartCostMatchesPart(t *testing.T) {
	rng := prng.New(0xC057)
	var sc SlicedCtx
	for trial := 0; trial < 300; trial++ {
		mlcPlane := trial%2 == 0
		n := 64
		if mlcPlane {
			n = 32
		}
		ctx := equivCtx(rng, n, mlcPlane)
		for _, m := range []int{8, 16, 32} {
			if n%m != 0 {
				continue
			}
			for _, obj := range equivObjectives {
				ev := NewEvaluator(ctx, obj)
				if !sc.Bind(ev, m) {
					t.Fatalf("Bind failed for supported config n=%d m=%d", n, m)
				}
				for j := 0; j < n/m; j++ {
					v := rng.Uint64() & bitutil.Mask(m)
					got := sc.PartCost(j, v)
					want := ev.Part(v<<uint(j*m), j, m)
					if got != want {
						t.Fatalf("PartCost(%d,%#x) m=%d obj=%v = %+v, want %+v",
							j, v, m, obj, got, want)
					}
				}
				// And the aux table against the reference switch.
				for b := 0; b < 16; b++ {
					for val := uint64(0); val < 2; val++ {
						if got, want := sc.AuxBit(b, val), ev.AuxBit(b, val); got != want {
							t.Fatalf("AuxBit(%d,%d) = %+v, want %+v", b, val, got, want)
						}
					}
				}
			}
		}
	}
}

// TestVCCGenEncodeSlicedAllocFree is the package-local half of the
// steady-state 0-alloc guard (the engine-level half is
// shard.TestApplySteadyStateAllocsSlicedEncoders): rebinding a warm
// SlicedCtx and running the VCC-Gen(16,256) energy+SAW encode must not
// allocate, even as the rotating contexts compose fresh kernel images on
// every word and occasionally bring a fresh energy model, which rebuilds
// the etab cache.
func TestVCCGenEncodeSlicedAllocFree(t *testing.T) {
	rng := prng.New(0xA110C)
	const ringLen = 8
	var ctxs [ringLen]Ctx
	var data [ringLen]uint64
	for i := range ctxs {
		ctxs[i] = equivCtx(rng, 32, true)
		data[i] = rng.Uint64() & 0xFFFFFFFF
	}
	codec := NewVCCGenerated(16, 256)
	ev := NewEvaluator(ctxs[0], ObjEnergySAW)
	var sc SlicedCtx
	run := func() {
		for i := range ctxs {
			ev.Reset(ctxs[i], ObjEnergySAW)
			codec.EncodeSliced(data[i], ev, &sc)
		}
	}
	run() // warm: the codec's search scratch is built lazily
	if sc.lane == 0 {
		t.Fatal("VCC-Gen(16,256) bound no lane geometry")
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("steady-state bind+encode allocated %.2f times per ring pass, want 0", avg)
	}
}

// TestBindLineRebindAllocFree pins the line-scoped bind contract: after
// one successful BindLine, same-configuration BindFor calls must take
// the warm fingerprint path — one fastRebinds increment per word, no
// allocations — while still re-slicing each word's context. This is the
// controller's per-line pattern (8 words, one fingerprint).
func TestBindLineRebindAllocFree(t *testing.T) {
	rng := prng.New(0xB11D)
	const ringLen = 8
	var ctxs [ringLen]Ctx
	for i := range ctxs {
		ctxs[i] = equivCtx(rng, 64, false)
		// Hold the word-invariant fingerprint fields fixed across the
		// ring; everything per-word (old word, stuck cells, old aux)
		// stays randomized.
		ctxs[i].Mode = pcm.SLC
		ctxs[i].Energy = pcm.EnergyModel{}
	}
	ev := NewEvaluator(ctxs[0], ObjEnergySAW)
	var sc SlicedCtx
	const kernels = 64 // an r=64 kernel set, as VCC-Gen(16,256) declares
	if !sc.BindLine(ev, 16, kernels) {
		t.Fatal("BindLine refused a supported configuration")
	}
	run := func() {
		for i := range ctxs {
			ev.Reset(ctxs[i], ObjEnergySAW)
			if !sc.BindFor(ev, 16, kernels) {
				t.Fatal("BindFor refused the bound-line configuration")
			}
		}
	}
	before := sc.fastRebinds
	run()
	if got := sc.fastRebinds - before; got != ringLen {
		t.Errorf("warm ring pass took %d fast rebinds, want %d", got, ringLen)
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("warm BindFor ring pass allocated %.2f times, want 0", avg)
	}
	// A changed objective must miss the fingerprint and rebind cold.
	before = sc.fastRebinds
	ev.Reset(ctxs[0], ObjFlips)
	if !sc.BindFor(ev, 16, kernels) {
		t.Fatal("BindFor refused an objective change")
	}
	if sc.fastRebinds != before {
		t.Error("objective change incorrectly took the warm fingerprint path")
	}
}

// FuzzEncodeEquivalence fuzzes the fast path against the reference
// search over raw context bytes. Run with `go test -fuzz
// FuzzEncodeEquivalence ./internal/coset` to hunt; the seed corpus plus
// any minimized crashers run as part of the normal test suite.
func FuzzEncodeEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint64(0x0123456789ABCDEF), uint64(0xFFFFFFFF),
		uint64(0xF0F0F0F0F0F0F0F0), uint64(0x5555555555555555), uint64(0xAB), uint8(2), uint8(1))
	f.Add(^uint64(0), uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint8(3), uint8(6))
	// Seeds pinning VCC-Gen(16,256) under energy+SAW, whose lane scan
	// composes each kernel's image from per-codec tiles and per-word
	// bases: once cold, and once followed by the warm line-bind re-encode
	// (objSel bit 4), which must skip the word-invariant bind layer.
	f.Add(uint64(0xABCDEF), uint64(0x1234), uint64(0x5678), uint64(0xFF00FF),
		uint64(0xF000F0), uint64(0x3C), uint8(2), uint8(3))
	f.Add(uint64(0xABCDEF), uint64(0x1234), uint64(0x5678), uint64(0xFF00FF),
		uint64(0xF000F0), uint64(0x3C), uint8(0x10|2), uint8(3))
	// Seed pinning the warm line-bind re-encode (objSel bit 4) on the
	// stored-kernel codec, whose fast scan the warm path feeds.
	f.Add(uint64(0x5CC5CC), uint64(0x9999), uint64(0x1111), uint64(0xF0F0),
		uint64(0x5050), uint64(0x7), uint8(0x10|2), uint8(0))
	// Seed pinning the negative-coefficient model (objSel bit 7) under
	// energy+SAW on the stored-kernel codec.
	f.Add(uint64(0x123456789), uint64(0xFEDCBA987654321), uint64(0x2468ACE),
		uint64(0xFF00FF00FF00FF00), uint64(0x0F0F0F0F0F0F0F0F), uint64(0x15), uint8(0x80|2), uint8(0))
	// Seed pinning the integral model (objSel bit 5) under energy+SAW on
	// the stored-kernel codec's MLC integer keys.
	f.Add(uint64(0x9E3779B97F4A7C15), uint64(0x243F6A8885A308D3), uint64(0x13198A2E),
		uint64(0xC0C0C0C00F0F0F0F), uint64(0x4040404005050505), uint64(0x2A), uint8(0x20|2), uint8(0))
	// Seeds pinning stuck-free words (a zero stuck mask), which the energy
	// arms price by their shorter derivations, on the three encodes the
	// benchmark workloads run: VCC-Gen(16,256) under energy+SAW (the
	// MLC plane's two counts), the stored ROM under energy+SAW on MLC
	// (four counts) and under SAW+energy on SLC (objSel bit 2; two
	// counts).
	f.Add(uint64(0x6A09E667), uint64(0xBB67AE853C6EF372), uint64(0xA54FF53A),
		uint64(0), uint64(0), uint64(0x1B), uint8(2), uint8(3))
	f.Add(uint64(0x510E527FADE682D1), uint64(0x9B05688C2B3E6C1F), uint64(0x1F83D9AB),
		uint64(0), uint64(0), uint64(0x5BE0), uint8(2), uint8(0))
	f.Add(uint64(0xCBBB9D5DC1059ED8), uint64(0x629A292A367CD507), uint64(0x9159015A),
		uint64(0), uint64(0), uint64(0x7), uint8(4|3), uint8(0))
	// Seed pinning a plane word whose only stuck cells are stuck left
	// digits (objSel bit 3 keeps the raw odd-bit mask): no right digit is
	// stuck, yet the word is not stuck-free, since a stuck left digit
	// keeps its cell's stored value and can make SAW nonzero.
	f.Add(uint64(0x152FECD8), uint64(0x67332667FFC00B31), uint64(0x8EB44A87),
		uint64(0xAAAAAAAAAAAAAAAA), uint64(0x2882A0A822088A20), uint64(0x31), uint8(8|2), uint8(3))

	codecs := equivCodecs()
	var sc SlicedCtx
	f.Fuzz(func(t *testing.T, data, old, left, stuckMask, stuckVal, oldAux uint64,
		objSel, codecSel uint8) {
		ec := codecs[int(codecSel)%len(codecs)]
		obj := equivObjectives[int(objSel)%len(equivObjectives)]
		mode := pcm.MLC
		if objSel&4 != 0 && !ec.mlcPlane {
			mode = pcm.SLC
		}
		if mode == pcm.MLC && objSel&8 == 0 {
			// Bias toward physically-plausible whole-symbol stuck cells
			// half the time; keep raw patterns the other half.
			stuckMask = bitutil.ExpandSymbolMask(stuckMask & bitutil.Mask(32))
		}
		ctx := Ctx{
			N: ec.n, Mode: mode, MLCPlane: ec.mlcPlane,
			OldWord:   old,
			NewLeft:   left & bitutil.Mask(32),
			StuckMask: stuckMask,
			StuckVal:  stuckVal & stuckMask,
			OldAux:    oldAux,
		}
		switch {
		case objSel&0x80 != 0:
			// objSel bit 7 (set by no saved seed) prices against the
			// negative-coefficient model.
			ctx.Energy = negativeEnergy
		case objSel&0x20 != 0 && mode == pcm.MLC:
			// objSel bit 5 prices MLC contexts against the integral
			// lowHeavyEnergy model. The one saved corpus entry that sets
			// the bit is an SLC context, which keeps the default model and
			// so its meaning.
			ctx.Energy = lowHeavyEnergy
		}
		data &= bitutil.Mask(ec.n)
		evFast := NewEvaluator(ctx, obj)
		evRef := NewEvaluator(ctx, obj)
		var fastEnc, fastAux uint64
		if fc, ok := ec.codec.(FastCodec); ok {
			fastEnc, fastAux = fc.EncodeSliced(data, evFast, &sc)
		} else {
			fastEnc, fastAux = ec.codec.Encode(data, evFast)
		}
		refEnc, refAux := referenceEncode(ec.codec, data, evRef)
		if fastEnc != refEnc || fastAux != refAux {
			t.Fatalf("%s obj %v: fast (%#x,%#x) != ref (%#x,%#x)",
				ec.name, obj, fastEnc, fastAux, refEnc, refAux)
		}
		// objSel bit 4 re-encodes through the warm line-bind fingerprint:
		// the second pass must skip the word-invariant bind layer yet
		// remain bit-identical to the cold result.
		if objSel&16 != 0 {
			if fc, ok := ec.codec.(FastCodec); ok {
				rebinds := sc.fastRebinds
				warmEnc, warmAux := fc.EncodeSliced(data, NewEvaluator(ctx, obj), &sc)
				if warmEnc != fastEnc || warmAux != fastAux {
					t.Fatalf("%s obj %v: warm rebind diverged: (%#x,%#x) vs (%#x,%#x)",
						ec.name, obj, warmEnc, warmAux, fastEnc, fastAux)
				}
				if sc.fastRebinds != rebinds+1 {
					t.Fatalf("%s obj %v: warm re-encode took the cold bind path", ec.name, obj)
				}
			}
		}
	})
}
