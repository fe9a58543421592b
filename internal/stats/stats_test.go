package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !approx(got, 2, 1e-12) {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{8, 8, 8}); !approx(got, 8, 1e-12) {
		t.Errorf("GeoMean = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got := Variance(xs); !approx(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("single-sample variance should be 0")
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{10, 10, 10}
	if CoV(xs) != 0 {
		t.Error("constant sample CoV should be 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CoV should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Error("Min/Max/Sum wrong")
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interp = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// The expected values are Python's statistics.quantiles(values, n=4),
// the same fixtures bench/ holds its own copy of the method to.
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
		if got := Quartiles(c.values); got != c.want || got[1] != Percentile(c.values, 50) {
			t.Errorf("Quartiles(%v) = %v, want %v around the median", c.values, got, c.want)
		}
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("CI of one sample should be 0")
	}
	xs := []float64{1, 2, 3, 4, 5}
	want := 1.96 * StdDev(xs) / math.Sqrt(5)
	if got := CI95(xs); !approx(got, want, 1e-12) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary should have N=0")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(10)
	h.Add(11)
	for i, b := range h.Bins {
		if b != 1 {
			t.Errorf("bin %d = %d, want 1", i, b)
		}
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Total() != 13 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestRatioTo(t *testing.T) {
	got := RatioTo([]float64{10, 5, 20}, 0)
	want := []float64{1, 0.5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RatioTo[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip pathological magnitudes where the running sum
			// overflows; the experiments never produce them.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
