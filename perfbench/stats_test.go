package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{3.1, 1.2, 5.5, 2.2}, 2.65},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(120 - i) // 1..120, reversed
	}
	if got := percentile(xs, 90); got != 108 {
		t.Errorf("p90 of 1..120 = %v, want 108 (12 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 60 {
		t.Errorf("p50 of 1..120 = %v, want 60", got)
	}
}
