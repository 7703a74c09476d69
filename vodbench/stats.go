package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail value,
// so a tail never rests on a handful of outliers.
const tailMin = 10

// summary is a timing distribution reduced to its median and tail.
type summary struct {
	N      int
	Median float64
	// Tail is the value at Percentile: the highest of p99 and p90 that
	// has at least tailMin samples beyond it, or, with fewer than 100
	// samples, the sample with exactly tailMin beyond it (the extreme
	// sample when there are no more than tailMin). For a low tail the
	// percentiles mirror: p1, p10, then the exact order statistic.
	Tail       float64
	Percentile float64
}

// tailPercentiles are the percentiles a tail may sit at, highest first.
// Holding the tail to this short ladder keeps it at the same percentile
// from run to run as long as the sample count stays within a decade,
// where "exactly ten beyond" would move it with every count and rest on
// the most extreme, least repeatable samples.
var tailPercentiles = []float64{99, 90}

// summarize returns the median and the high tail of xs (sorted in
// place). An empty input yields the zero summary.
func summarize(xs []float64) summary {
	return summarizeSide(xs, true)
}

// summarizeLow is summarize for metrics where low values are the bad
// ones (deadline slack): the tail counts samples below it.
func summarizeLow(xs []float64) summary {
	return summarizeSide(xs, false)
}

func summarizeSide(xs []float64, high bool) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	s := summary{N: n, Median: median(xs)}
	// rank is the 1-based rank, from the bad end, of the tail sample;
	// outside is the share of samples past the tail, in percent.
	rank, outside := 1, 0.0
	switch {
	case n >= tailMin*10:
		for _, p := range tailPercentiles {
			if beyond := float64(n) * (100 - p) / 100; beyond >= tailMin {
				rank, outside = int(math.Floor(beyond))+1, 100-p
				break
			}
		}
	case n > tailMin:
		rank, outside = tailMin+1, 100*float64(tailMin)/float64(n)
	}
	if high {
		s.Tail, s.Percentile = xs[n-rank], 100-outside
	} else {
		s.Tail, s.Percentile = xs[rank-1], outside
	}
	return s
}

// median of sorted xs (mean of the middle pair for even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload did
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
