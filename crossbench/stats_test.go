package main

import "testing"

func TestTailPctHonoursTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // not even the median has 10 beyond
		{20, 50},   // 10 beyond the median
		{99, 50},   // p90 leaves 9 beyond
		{100, 90},  // p90 leaves exactly 10 beyond
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	} {
		if got := tailPct(tc.n); got != tc.want {
			t.Errorf("tailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsCountsAndSupportedTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 200 {
		t.Fatalf("N = %d, want 200", d.N)
	}
	if got := d.at(50); got != 100 {
		t.Fatalf("p50 = %v, want 100", got)
	}
	if d.TailPct != 95 || d.Tail != 190 {
		t.Fatalf("tail = p%v %v; want p95 190", d.TailPct, d.Tail)
	}
	if got := d.at(99); got != 0 {
		t.Fatalf("p99 of 200 samples has 2 beyond and must not be reported, got %v", got)
	}
	if got := d.at(90); got != 180 {
		t.Fatalf("p90 = %v, want 180", got)
	}
}
