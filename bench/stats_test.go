package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		got, beyond := percentile(sorted, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(1..1000, %v) = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	// 999 samples leave 9 beyond p99: one short of reportable.
	if _, beyond := percentile(sorted[:999], 99); beyond >= minBeyond {
		t.Errorf("p99 of 999 samples has %d beyond, want fewer than %d", beyond, minBeyond)
	}
	if v, beyond := percentile(nil, 99); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of nothing = %v with %d beyond", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}
