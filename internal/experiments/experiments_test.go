package experiments

import (
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a
	// driver, plus the DESIGN.md ablations.
	want := []string{
		"fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "table1", "table2",
		"ablate-kernels", "ablate-m", "ablate-hybrid", "ablate-cost",
		"ablate-wearlevel", "ablate-compress", "ablate-faultrepo", "fig13-sim",
		"ablate-visibility", "slc-energy", "ablate-cafo",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Quick, 1); err == nil {
		t.Error("unknown id should error")
	}
	if _, err := RunMany([]string{"fig1", "nope"}, Opts{Mode: Quick, Seed: 1}, 2); err == nil {
		t.Error("RunMany with an unknown id should error before running anything")
	}
}

// TestRunManyMatchesRun: the parallel runner must return exactly what
// sequential Run calls return, in ids order.
func TestRunManyMatchesRun(t *testing.T) {
	ids := []string{"fig1", "table1", "fig3", "fig6", "table2"}
	opts := Opts{Mode: Quick, Seed: 1}
	got, err := RunMany(ids, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := Run(id, Quick, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: parallel result differs from sequential", id)
		}
	}
}

func TestShardReplayDriver(t *testing.T) {
	// The golden table pins the 4-shard run, and shard write counts must
	// account for every replayed record.
	a, err := RunOpts("shard-replay", Opts{Mode: Quick, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, a)
	for _, row := range a.Rows {
		if cell(row[4]) < cell(row[5]) {
			t.Errorf("%s: max shard writes %v below min %v", row[0], row[4], row[5])
		}
		if cell(row[1]) <= 0 {
			t.Errorf("%s: no writes replayed", row[0])
		}
	}
}

// TestWorkloadSweepDriver: every row accounts for the whole op budget
// (12 000 ops at batch 256, so the final batch is short), and energy
// falls as reads replace writes.
func TestWorkloadSweepDriver(t *testing.T) {
	r, err := RunOpts("workload-sweep", Opts{Mode: Quick, Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	if len(r.Rows) != 5*4 { // patterns x read fractions
		t.Fatalf("want 20 rows, got %d", len(r.Rows))
	}
	_, totalOps := sizes(Quick)
	for i, row := range r.Rows {
		if ops := cell(row[2]) + cell(row[3]); ops != float64(totalOps) {
			t.Errorf("row %d (%s rf=%s): %v writes+reads, want %d", i, row[0], row[1], ops, totalOps)
		}
		if i%4 > 0 && cell(row[4]) >= cell(r.Rows[i-1][4]) {
			t.Errorf("row %d (%s rf=%s): energy %s not below the previous read fraction's %s",
				i, row[0], row[1], row[4], r.Rows[i-1][4])
		}
	}
}

// TestCacheSweepDriver: write-through leaves device writes at the
// uncached baseline, write-back never adds device writes, and streaming
// rows never hit.
func TestCacheSweepDriver(t *testing.T) {
	r := runQ(t, "cache-sweep")
	n := len(cacheSweepConfigs)
	if len(r.Rows) != 2*2*n { // patterns x read fractions x cache configs
		t.Fatalf("want %d rows, got %d", 4*n, len(r.Rows))
	}
	for i, row := range r.Rows {
		base := r.Rows[i-i%n]
		switch row[3] {
		case "writethrough":
			if row[4] != base[4] {
				t.Errorf("row %d: write-through device writes %s, uncached %s", i, row[4], base[4])
			}
		case "writeback":
			if cell(row[4]) > cell(base[4]) {
				t.Errorf("row %d: write-back device writes %s above uncached %s", i, row[4], base[4])
			}
		}
		if row[0] == "seq" && cell(row[5]) != 0 {
			t.Errorf("row %d: streaming pattern hit rate %s, want 0", i, row[5])
		}
	}
}

// TestGoldensCoverRegistry: every registered experiment has a golden
// table under testdata/, and every golden table names one.
func TestGoldensCoverRegistry(t *testing.T) {
	if golden.Updating() {
		t.Skip("-update rewrites the goldens; coverage is checked on a plain run")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stale := map[string]bool{}
	for _, f := range files {
		stale[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	for _, id := range IDs() {
		if !stale[id] {
			t.Errorf("experiment %q has no golden table", id)
		}
		delete(stale, id)
	}
	for id := range stale {
		t.Errorf("golden table %q names no registered experiment", id)
	}
}

// checkGolden pins the rendered table of a quick-mode, seed-1 run.
func checkGolden(t *testing.T, r *Result) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", r.ID+".golden"), r.Table())
}

// cell parses a numeric table cell (strips % suffix).
func cell(s string) float64 {
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic("unparsable cell: " + s)
	}
	return v
}

func runQ(t *testing.T, id string) *Result {
	t.Helper()
	r, err := Run(id, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Header) == 0 {
		t.Fatalf("%s: empty result", id)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("%s: ragged row %v vs header %v", id, row, r.Header)
		}
	}
	if !strings.Contains(r.Table(), r.Title) {
		t.Fatalf("%s: Table() missing title", id)
	}
	if !strings.Contains(r.CSV(), r.Header[0]) {
		t.Fatalf("%s: CSV() missing header", id)
	}
	checkGolden(t, r)
	return r
}

func TestFig1Driver(t *testing.T) {
	r := runQ(t, "fig1")
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 coset counts, got %d", len(r.Rows))
	}
	// RCC at N=256 beats BCC (paper's main point).
	last := r.Rows[3]
	if cell(last[2]) <= cell(last[1]) {
		t.Errorf("N=256: RCC %v should beat BCC %v", last[2], last[1])
	}
}

func TestFig2Driver(t *testing.T) {
	r := runQ(t, "fig2")
	first := cell(strings.TrimSuffix(r.Rows[0][1], ""))
	last := cell(r.Rows[len(r.Rows)-1][1])
	if last >= first {
		t.Errorf("observed fault rate should fall with cosets: %v -> %v", first, last)
	}
}

func TestFig3Driver(t *testing.T) {
	r := runQ(t, "fig3")
	m := map[string]string{}
	for _, row := range r.Rows {
		m[row[0]] = row[1]
	}
	if m["Xopt"] != "0b000007000010c0d0" && m["Xopt"] == "" {
		t.Error("missing Xopt")
	}
	if m["total ones incl aux"] != "17" {
		t.Errorf("cost %v, want 17", m["total ones incl aux"])
	}
	if m["decoded"] != m["input D"] {
		t.Error("decode mismatch in worked example")
	}
}

func TestTable1Driver(t *testing.T) {
	r := runQ(t, "table1")
	if len(r.Rows) != 4 {
		t.Fatal("Table I must have 4 rows")
	}
	for i, row := range r.Rows {
		if row[i+1] != "-" {
			t.Errorf("diagonal entry %d = %q, want '-'", i, row[i+1])
		}
	}
}

func TestFig6Driver(t *testing.T) {
	r := runQ(t, "fig6")
	if len(r.Rows) != 20 { // 4 coset counts x 5 designs
		t.Fatalf("want 20 rows, got %d", len(r.Rows))
	}
}

func TestFig7Driver(t *testing.T) {
	r := runQ(t, "fig7")
	// Data-only (aux-free) savings reproduce the paper's Fig 7 numbers;
	// all-in savings (including aux writes) land lower (~28-30%), which
	// is consistent with the paper's own per-benchmark Fig 9 average.
	last := r.Rows[len(r.Rows)-1]
	rccAll, rccData := cell(last[2]), cell(last[3])
	genData := cell(last[5])
	stData := cell(last[7])
	if rccData < 38 || rccData > 55 {
		t.Errorf("RCC data-only saving at 256 = %v%%, paper ~46%%", rccData)
	}
	if genData < 35 || stData < 38 {
		t.Errorf("VCC data-only savings at 256 = %v%%/%v%%, paper ~45%%", genData, stData)
	}
	if stData > rccData+2 {
		t.Errorf("VCC-stored saving %v%% should not exceed RCC %v%%", stData, rccData)
	}
	if rccAll < 22 {
		t.Errorf("RCC all-in saving %v%% below the 22-28%% band", rccAll)
	}
	// Savings grow with coset count.
	if first := cell(r.Rows[0][3]); first >= rccData {
		t.Errorf("savings should grow with N: %v%% at 32 vs %v%% at 256", first, rccData)
	}
}

func TestFig8Driver(t *testing.T) {
	r := runQ(t, "fig8")
	prev := 0.0
	for _, row := range r.Rows {
		red := cell(row[3])
		if red < prev-1.5 { // allow small noise, demand overall growth
			t.Errorf("reduction fell: %v after %v", red, prev)
		}
		prev = red
	}
	// At N=32 VCC has only 2r=4 sub-candidates per partition, capping
	// symbol-granular masking near 68% (structural; the paper's 88.5%
	// is recorded as a deviation in EXPERIMENTS.md). At 256 the paper's
	// ~95.6% is reproduced.
	if first := cell(r.Rows[0][3]); first < 60 {
		t.Errorf("reduction at 32 cosets = %v%%, expected >=60%%", first)
	}
	if last := cell(r.Rows[len(r.Rows)-1][3]); last < 90 {
		t.Errorf("reduction at 256 cosets = %v%%, paper ~95.6%%", last)
	}
}

func TestFig9Driver(t *testing.T) {
	r := runQ(t, "fig9")
	for _, row := range r.Rows {
		base := cell(row[1])
		vE, vS := cell(row[2]), cell(row[3])
		if vE >= base {
			t.Errorf("%s: VCC Opt.Energy %v not below unencoded %v", row[0], vE, base)
		}
		// Savings maintained under SAW-first ordering (within a few
		// points, per Fig 9).
		if vS >= base {
			t.Errorf("%s: VCC Opt.SAW %v not below unencoded %v", row[0], vS, base)
		}
	}
}

func TestFig10Driver(t *testing.T) {
	r := runQ(t, "fig10")
	for _, row := range r.Rows {
		if red := cell(row[3]); red < 90 {
			t.Errorf("%s: SAW reduction %v%%, paper >=95%%", row[0], red)
		}
	}
}

func TestFig13Driver(t *testing.T) {
	r := runQ(t, "fig13")
	for _, row := range r.Rows {
		dbi, vcc, rcc := cell(row[1]), cell(row[2]), cell(row[3])
		if !(dbi >= vcc && vcc >= rcc) {
			t.Errorf("%s: IPC ordering violated: %v %v %v", row[0], dbi, vcc, rcc)
		}
		if rcc < 0.92 {
			t.Errorf("%s: RCC IPC %v below Fig 13 axis", row[0], rcc)
		}
	}
}

func TestTable2Driver(t *testing.T) {
	r := runQ(t, "table2")
	if len(r.Rows) < 10 {
		t.Error("Table II should list the full parameter set")
	}
}

func TestAblateKernelsDriver(t *testing.T) {
	r := runQ(t, "ablate-kernels")
	// SAW row: generated must mask fewer SAWs than stored.
	saw := r.Rows[1]
	if cell(saw[2]) <= cell(saw[1]) {
		t.Errorf("generated SAW %v should exceed stored %v", saw[2], saw[1])
	}
	// Energy row: within ~10% of each other.
	e := r.Rows[0]
	if ratio := cell(e[2]) / cell(e[1]); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("energy ratio generated/stored = %v, want near 1", ratio)
	}
}

func TestAblateHybridDriver(t *testing.T) {
	r := runQ(t, "ablate-hybrid")
	adv := cell(r.Rows[2][1])
	if adv <= 0 {
		t.Errorf("hybrid advantage %v%% on biased data, want positive", adv)
	}
}

func TestAblateCostDriver(t *testing.T) {
	r := runQ(t, "ablate-cost")
	if len(r.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	base := cell(r.Rows[2][1])
	for i := 0; i < 2; i++ {
		if cell(r.Rows[i][1]) >= base {
			t.Errorf("VCC energy row %d not below unencoded", i)
		}
	}
	// SAW-first masks at least as well as energy-first.
	if cell(r.Rows[1][2]) > cell(r.Rows[0][2]) {
		t.Error("SAW-first should not have more SAW cells than energy-first")
	}
}

func TestAblateMDriver(t *testing.T) {
	r := runQ(t, "ablate-m")
	if len(r.Rows) != 3 {
		t.Fatal("want 3 kernel widths")
	}
}

// Lifetime drivers are exercised in Quick mode (seconds).
func TestFig11Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime driver is seconds-long")
	}
	r := runQ(t, "fig11")
	// Header: benchmark + 7 techniques.
	if len(r.Header) != 8 {
		t.Fatalf("want 8 columns, got %d", len(r.Header))
	}
	idx := map[string]int{}
	for i, h := range r.Header {
		idx[h] = i
	}
	for _, row := range r.Rows {
		vcc := cell(row[idx["VCC"]])
		unenc := cell(row[idx["Unencoded"]])
		if vcc <= unenc {
			t.Errorf("%s: VCC %v not above unencoded %v", row[0], vcc, unenc)
		}
	}
}

func TestFig12Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime sweep is tens of seconds")
	}
	r := runQ(t, "fig12")
	for _, row := range r.Rows {
		if row[0] == "VCC" || row[0] == "RCC" {
			if cell(row[4]) <= cell(row[1]) {
				t.Errorf("%s: lifetime should grow from N=32 to N=256: %v -> %v",
					row[0], row[1], row[4])
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("mode strings wrong")
	}
}

func TestAblateCompressDriver(t *testing.T) {
	r := runQ(t, "ablate-compress")
	for _, row := range r.Rows {
		if enc := cell(row[2]); enc > 0.5 {
			t.Errorf("%s: %v%% of encrypted words aux-eligible; ciphertext should be incompressible", row[0], enc)
		}
	}
	// At least one plaintext workload must show substantial inline space.
	best := 0.0
	for _, row := range r.Rows {
		if v := cell(row[1]); v > best {
			best = v
		}
	}
	if best < 50 {
		t.Errorf("best plaintext eligibility %v%%; integer workloads should compress", best)
	}
}

func TestFig13SimDriver(t *testing.T) {
	r := runQ(t, "fig13-sim")
	for _, row := range r.Rows {
		dbi, vcc, rcc := cell(row[1]), cell(row[2]), cell(row[3])
		if !(dbi >= vcc && vcc >= rcc) {
			t.Errorf("%s: event-sim ordering violated: %v %v %v", row[0], dbi, vcc, rcc)
		}
		if rcc < 0.92 {
			t.Errorf("%s: RCC IPC %v below plausible range", row[0], rcc)
		}
	}
}

func TestAblateFaultRepoDriver(t *testing.T) {
	r := runQ(t, "ablate-faultrepo")
	first := cell(r.Rows[0][3])
	last := cell(r.Rows[len(r.Rows)-1][3])
	if last < 99 {
		t.Errorf("final coverage %v%%; repository should converge to the oracle", last)
	}
	if last < first {
		t.Error("coverage should be monotone")
	}
}

func TestAblateWearLevelDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime-based driver is seconds-long")
	}
	r := runQ(t, "ablate-wearlevel")
	for _, row := range r.Rows {
		if cell(row[2]) < cell(row[1])*0.9 {
			t.Errorf("%s: start-gap made lifetime much worse (%v -> %v)",
				row[0], row[1], row[2])
		}
	}
	// The hot-spot-heavy trace must benefit somewhere.
	any := false
	for _, row := range r.Rows {
		if cell(row[3]) > 3 {
			any = true
		}
	}
	if !any {
		t.Error("no technique gained from wear leveling on a skewed trace")
	}
}

func TestAblateVisibilityDriver(t *testing.T) {
	r := runQ(t, "ablate-visibility")
	first := cell(r.Rows[0][2])
	last := cell(r.Rows[len(r.Rows)-1][2])
	if last >= first {
		t.Errorf("discovered-view SAW should fall as the repo learns: %v -> %v", first, last)
	}
	// By the final pass the discovered view should be within ~3x of oracle.
	oracleLast := cell(r.Rows[len(r.Rows)-1][1])
	if last > 3*oracleLast+10 {
		t.Errorf("discovered view did not converge: %v vs oracle %v", last, oracleLast)
	}
}

func TestSLCEnergyDriver(t *testing.T) {
	r := runQ(t, "slc-energy")
	get := func(name string) []string {
		for _, row := range r.Rows {
			if row[0] == name {
				return row
			}
		}
		t.Fatalf("row %q missing", name)
		return nil
	}
	vcc := get("VCC(64,256,16)")
	rcc := get("RCC(64,256)")
	fnw := get("DBI/FNW")
	if cell(vcc[2]) < 15 {
		t.Errorf("VCC SLC flip saving %v%%, want substantial", vcc[2])
	}
	if cell(vcc[2]) <= cell(fnw[2]) {
		t.Errorf("VCC flip saving %v%% should beat FNW %v%%", vcc[2], fnw[2])
	}
	if cell(vcc[4]) < cell(rcc[4])-3 {
		t.Errorf("VCC energy saving %v%% should approach RCC %v%%", vcc[4], rcc[4])
	}
}

func TestAblateCAFODriver(t *testing.T) {
	r := runQ(t, "ablate-cafo")
	if len(r.Rows) != 2 {
		t.Fatal("want plaintext and encrypted rows")
	}
	plain, enc := r.Rows[0], r.Rows[1]
	// Biased techniques collapse under encryption; VCC holds.
	if cell(enc[1]) > cell(plain[1])-20 {
		t.Errorf("CAFO saving should collapse: %v -> %v", plain[1], enc[1])
	}
	if cell(enc[2]) > cell(plain[2])-20 {
		t.Errorf("FNW saving should collapse: %v -> %v", plain[2], enc[2])
	}
	if diff := cell(plain[3]) - cell(enc[3]); diff > 5 || diff < -5 {
		t.Errorf("VCC saving should be encryption-invariant: %v vs %v", plain[3], enc[3])
	}
	// On encrypted data VCC wins.
	if cell(enc[3]) <= cell(enc[2]) {
		t.Errorf("encrypted: VCC %v should beat FNW %v", enc[3], enc[2])
	}
}
