package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.1, 1}, {1, 10}, {0.51, 6}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// With 200 samples p95 leaves exactly ten beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 0.95); got != 189 {
		t.Errorf("p95 of 0..199 = %v, want 189 (ten samples beyond it)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median reordered its input")
	}
}
