package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 2}, 1.5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5, 5, 5, 5}, 5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEq(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); !almostEq(got, 10) {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); !almostEq(got, 50) {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !almostEq(got, 30) {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); !almostEq(got, 20) {
		t.Errorf("p25 = %v", got)
	}
	if got := Percentile(xs, 12.5); !almostEq(got, 15) {
		t.Errorf("p12.5 = %v, want interpolated 15", got)
	}
}

func TestPercentileMedianAgreement(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 || len(xs)%2 == 0 {
			return true // median interpolation differs for even n
		}
		return almostEq(Percentile(xs, 50), Median(xs))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	err := quick.Check(func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of that set: variance = 32/7.
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0)) {
		t.Errorf("StdDev = %v", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almostEq(got, 1) {
		t.Errorf("equal allocation JainIndex = %v, want 1", got)
	}
	// One participant takes everything: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almostEq(got, 0.25) {
		t.Errorf("monopolized JainIndex = %v, want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); !almostEq(got, 1) {
		t.Errorf("all-zero JainIndex = %v, want 1", got)
	}
}

func TestJainIndexBounds(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisparityRatio(t *testing.T) {
	// §9.2: palindromic cycle ABCDEDCB admits B,C,D twice and A,E once
	// per period — a disparity of exactly 2.
	if got := DisparityRatio([]int64{1, 2, 2, 2, 1}); !almostEq(got, 2) {
		t.Errorf("palindromic cycle disparity = %v, want 2", got)
	}
	if got := DisparityRatio([]int64{3, 3, 3}); !almostEq(got, 1) {
		t.Errorf("fair disparity = %v, want 1", got)
	}
	if !math.IsInf(DisparityRatio([]int64{0, 5}), 1) {
		t.Error("starved participant should yield +Inf")
	}
	if got := DisparityRatio([]int64{0, 0}); !almostEq(got, 1) {
		t.Errorf("all-zero disparity = %v, want 1", got)
	}
}

func TestPercentileMatchesSortedSelection(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return almostEq(Percentile(xs, 0), sorted[0]) &&
			almostEq(Percentile(xs, 100), sorted[len(sorted)-1])
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// Edge case: every summary function must handle the empty sample set
// without panicking, returning its documented sentinel.
func TestEmptySampleSet(t *testing.T) {
	var none []float64
	for name, got := range map[string]float64{
		"Median":     Median(none),
		"Percentile": Percentile(none, 50),
		"Mean":       Mean(none),
		"Min":        Min(none),
		"Max":        Max(none),
		"JainIndex":  JainIndex(none),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(empty) = %v, want NaN", name, got)
		}
	}
	if got := StdDev(none); got != 0 {
		t.Errorf("StdDev(empty) = %v, want 0", got)
	}
	if got := DisparityRatio(nil); !math.IsNaN(got) {
		t.Errorf("DisparityRatio(empty) = %v, want NaN", got)
	}
}

// Edge case: a single sample is its own median, mean, min, max and
// every percentile; spread measures are zero/identity.
func TestSingleSample(t *testing.T) {
	xs := []float64{42.5}
	for name, got := range map[string]float64{
		"Median": Median(xs),
		"Mean":   Mean(xs),
		"Min":    Min(xs),
		"Max":    Max(xs),
		"P0":     Percentile(xs, 0),
		"P50":    Percentile(xs, 50),
		"P99":    Percentile(xs, 99),
		"P100":   Percentile(xs, 100),
	} {
		if got != 42.5 {
			t.Errorf("%s([42.5]) = %v, want 42.5", name, got)
		}
	}
	if got := StdDev(xs); got != 0 {
		t.Errorf("StdDev(single) = %v, want 0", got)
	}
	if got := JainIndex(xs); got != 1 {
		t.Errorf("JainIndex(single) = %v, want 1", got)
	}
	if got := DisparityRatio([]int64{7}); got != 1 {
		t.Errorf("DisparityRatio(single) = %v, want 1", got)
	}
}

// Edge case: all-equal samples — zero spread, perfect fairness,
// every order statistic equal to the common value.
func TestAllEqualSamples(t *testing.T) {
	xs := []float64{3, 3, 3, 3, 3, 3}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := StdDev(xs); got != 0 {
		t.Errorf("StdDev = %v, want 0", got)
	}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got := Percentile(xs, p); got != 3 {
			t.Errorf("Percentile(%v) = %v, want 3", p, got)
		}
	}
	if got := JainIndex(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("JainIndex = %v, want 1", got)
	}
	if got := DisparityRatio([]int64{5, 5, 5}); got != 1 {
		t.Errorf("DisparityRatio = %v, want 1", got)
	}
	// All-zero allocation is defined as perfectly fair.
	if got := JainIndex([]float64{0, 0, 0}); got != 1 {
		t.Errorf("JainIndex(zeros) = %v, want 1", got)
	}
}
