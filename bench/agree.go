package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// boundDef is one end-to-end metric entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet holds, per workload and metric, the values of a set of
// untraced runs, plus how many runs reported a failed check.
type runSet struct {
	values    map[string]map[string][]float64
	incorrect int
}

func loadSet(path string) (runSet, error) {
	set := runSet{values: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return set, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rep.Trace {
			continue
		}
		if !rep.Result.Correct {
			set.incorrect++
		}
		byMetric := set.values[rep.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			set.values[rep.Workload] = byMetric
		}
		for name, v := range rep.Result.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
	}
	return set, sc.Err()
}

// agreeSets compares two sets of runs of one commit, workload by
// workload and metric by metric. A pair agrees when the medians differ
// by no more than the metric's bound and, except for setup time, each
// set's interquartile range is within the bound too. It prints one row
// per pair and returns 1 if any pair disagrees or any run was incorrect.
func agreeSets(benchPath, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var bench struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", benchPath, err)
		return 2
	}
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian A\tq1 A\tq3 A\tmedian B\tq1 B\tq3 B\tshift\tspread A\tspread B\tbound\t\t")
	disagree := 0
	for _, w := range specs {
		if a.values[w.name] == nil && b.values[w.name] == nil {
			continue
		}
		for _, d := range bench.EndToEnd {
			va, vb := a.values[w.name][d.Name], b.values[w.name][d.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t\t\t\t\t\t\t\t\t\t%.3f\tMISSING\t\n", w.name, d.Name, len(va), len(vb), d.Bound)
				disagree++
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			ma, mb := median(va), median(vb)
			shift := (mb - ma) / ma
			spreadA, spreadB := (qa[2]-qa[0])/ma, (qb[2]-qb[0])/mb
			ok := math.Abs(shift) <= d.Bound && (d.Name == "setup_s" || spreadA <= d.Bound && spreadB <= d.Bound)
			verdict := "ok"
			if !ok {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%+.4f\t%.4f\t%.4f\t%.3f\t%s\t\n",
				w.name, d.Name, len(va), len(vb), ma, qa[0], qa[2], mb, qb[0], qb[2], shift, spreadA, spreadB, d.Bound, verdict)
		}
	}
	tw.Flush()
	if a.incorrect+b.incorrect > 0 {
		fmt.Fprintf(stdout, "%d runs reported failed checks\n", a.incorrect+b.incorrect)
		disagree++
	}
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d disagreements\n", disagree)
		return 1
	}
	fmt.Fprintln(stdout, "sets agree")
	return 0
}
