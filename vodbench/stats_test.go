package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailSitsOnTheLadder(t *testing.T) {
	cases := []struct {
		n          int
		tail, pct  float64
		lowTail    float64
		lowPercent float64
	}{
		{5000, 4950, 99, 51, 1},                          // p99: 50 samples above 4950
		{1000, 990, 99, 11, 1},                           // p99: exactly ten above
		{999, 900, 90, 100, 10},                          // p99 would leave 9.99: fall to p90
		{100, 90, 90, 11, 10},                            // p90: exactly ten above
		{36, 26, 100 - 100*10.0/36, 11, 100 * 10.0 / 36}, // exact order statistic
	}
	for _, c := range cases {
		hi, lo := summarize(seq(c.n)), summarizeLow(seq(c.n))
		if hi.N != c.n || hi.Tail != c.tail || hi.Percentile != c.pct {
			t.Errorf("n=%d: high tail %v at p%v, want %v at p%v", c.n, hi.Tail, hi.Percentile, c.tail, c.pct)
		}
		if lo.Tail != c.lowTail || lo.Percentile != c.lowPercent {
			t.Errorf("n=%d: low tail %v at p%v, want %v at p%v", c.n, lo.Tail, lo.Percentile, c.lowTail, c.lowPercent)
		}
	}
	if s := summarize(seq(1000)); s.Median != 500.5 {
		t.Errorf("median %v, want 500.5", s.Median)
	}
}

func TestSummarizeFewSamplesReportsExtreme(t *testing.T) {
	for _, n := range []int{1, 5, 10} {
		hi, lo := summarize(seq(n)), summarizeLow(seq(n))
		if hi.Tail != float64(n) || hi.Percentile != 100 {
			t.Errorf("n=%d: high tail %v at p%v, want max %d at p100", n, hi.Tail, hi.Percentile, n)
		}
		if lo.Tail != 1 || lo.Percentile != 0 {
			t.Errorf("n=%d: low tail %v at p%v, want min 1 at p0", n, lo.Tail, lo.Percentile)
		}
	}
	// Eleven samples is the first size with ten beyond the tail.
	if s := summarize(seq(11)); s.Tail != 1 {
		t.Errorf("n=11: tail %v, want the smallest sample", s.Tail)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty input: %+v, want the zero summary", s)
	}
}

func TestMedianOfLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := medianOf(xs); m != 2 {
		t.Fatalf("median %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatalf("input reordered: %v", xs)
	}
}
