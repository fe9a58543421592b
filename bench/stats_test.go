package main

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4),
// the computation the bounds in BENCHMARK.json are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1, 2}, [3]float64{1, 2, 3.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		if got := quartiles(c.values); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestSlicer(t *testing.T) {
	// 10000 requests of 10 ops, one completing every millisecond, so
	// each slice closes after 1000 requests and one second. In slices 3
	// and 7 another tenant slows everything tenfold; the quiet slices'
	// values are reported.
	t0 := time.Now()
	s := newSlicer(10, t0)
	done := t0
	for i := 0; i < 10000; i++ {
		gap, lat := time.Millisecond, 50*time.Microsecond
		if k := i / sliceRequests; k == 3 || k == 7 {
			gap, lat = 10*time.Millisecond, 500*time.Microsecond
		}
		done = done.Add(gap)
		s.add(done.Add(-lat), done)
	}
	got := s.timing()
	if got.slices != 10 || got.tail != 99 || got.requests != 10000 {
		t.Fatalf("%+v: want 10 slices (p99) over 10000 requests", got)
	}
	if math.Abs(got.opsPerS-10000) > 1e-6 || got.p50 != 50_000 || got.p99 != 50_000 {
		t.Errorf("timing %+v, want the quiet slices' 10000 ops/s and 50µs", got)
	}
	if want := (8000*50_000.0 + 2000*500_000.0) / 10000; math.Abs(got.meanLat-want) > 1e-6*want {
		t.Errorf("mean latency %g ns, want %g", got.meanLat, want)
	}

	// A slice needs a second as well as sliceRequests requests.
	fast := newSlicer(10, t0)
	for i := 1; i <= 3*sliceRequests; i++ {
		fast.add(t0, t0.Add(time.Duration(i)*100*time.Microsecond))
	}
	if got := fast.timing(); got.slices != 1 {
		t.Errorf("3000 requests in 0.3s: %d slices, want 1", got.slices)
	}

	few := newSlicer(10, t0)
	for i := 1; i <= 150; i++ {
		few.add(t0, t0.Add(time.Duration(i)*time.Millisecond))
	}
	if got := few.timing(); got.slices != 1 || got.tail != 90 || got.opsPerS != 10_000 {
		t.Errorf("150 requests: %+v, want 1 slice (p90) at 10000 ops/s", got)
	}
}

func TestPercentileOf(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if got := percentileOf(v, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentileOf(v, 10); got != 1 {
		t.Errorf("p10 of 1..10 = %g, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}
