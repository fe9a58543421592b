package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaled shrinks every size of w by div.
func (w spec) scaled(div int) spec {
	w.lines /= div
	w.spares = (w.spares + div - 1) / div
	w.cacheLines = (w.cacheLines + div - 1) / div
	w.warmOps /= div
	w.simOps /= div
	w.replayOps /= div
	return w
}

// TestWorkloadsSmoke runs every workload end to end, untraced and
// traced, at a 64th of its size (about a second and a half in all).
func TestWorkloadsSmoke(t *testing.T) {
	for _, full := range specs {
		w := full.scaled(64)
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureEndToEnd(w, 1, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := measureLayers(w, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{e2e, layers} {
				if o.failed != 0 || len(o.checks) != 0 || o.attempted == 0 {
					t.Errorf("attempted %d, failed %d, failed checks %q", o.attempted, o.failed, o.checks)
				}
			}
			for _, d := range endToEnd {
				if v, ok := e2e.metrics[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v (present %v), want > 0", d.name, v, ok)
				}
			}
			for _, d := range perLayer {
				if _, ok := layers.metrics[d.name]; !ok {
					t.Errorf("per-layer %s missing", d.name)
				}
			}
			if f := layers.metrics["replay.attributed_frac"]; f > 1 {
				t.Errorf("replay attributes %g of its wall time to layers", f)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads and metrics, in the same order, with the same
// units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundDef `json:"end_to_end"`
		PerLayer []boundDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.05},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeSet := func(name string, ops, setup []float64) string {
		var buf bytes.Buffer
		for i := range ops {
			line, err := json.Marshal(report{Workload: "aged-remap-saw", Result: result{
				Correct: true,
				Metrics: map[string]metricValue{
					"ops_per_s": {Value: ops[i], Unit: "ops/s"},
					"setup_s":   {Value: setup[i], Unit: "s"},
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := writeSet("a.jsonl", []float64{100, 101, 99, 100, 102}, []float64{1, 1.1, 0.9, 1, 1})
	b := writeSet("b.jsonl", []float64{101, 100, 100, 99, 101}, []float64{1, 1.5, 0.6, 1.05, 1})
	slow := writeSet("slow.jsonl", []float64{90, 91, 89, 90, 92}, []float64{1, 1, 1, 1, 1})

	var out, errOut bytes.Buffer
	if code := agreeSets(bench, a, b, &out, &errOut); code != 0 {
		t.Errorf("close sets: exit %d, want 0 (setup spread is not gated)\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := agreeSets(bench, a, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("10%% slower set: exit %d, want 1 with a DISAGREE row\n%s", code, out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "aged-remap-saw", "--trace", "2"},
		{"--workload", "aged-remap-saw", "--seconds", "0"},
		{"--agree", "only-one-file"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}
