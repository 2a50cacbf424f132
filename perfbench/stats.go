package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own metric arithmetic (percentiles, counter
// deltas) rather than calling the program's apps.PercentileFloats or
// obs.Delta, so a change to the program cannot redefine the yardstick it
// is measured with; a test pins the percentile rule to the program's.

// tailLadder lists the percentiles a tail metric may report, highest
// first, in tenths of a percent so the arithmetic below is exact.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile is the highest percentile of the ladder that still has
// at least ten of n samples beyond it, so a tail figure never rests on a
// handful of points. It returns 0 when n < 20 (not even the median
// qualifies).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

// percentile returns the p-th percentile of samples by linear
// interpolation between closest ranks (the R-7 rule), 0 for no samples.
// samples need not be sorted; it is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(v []float64) float64 { return percentile(v, 50) }

// interquartileMean is the mean of the middle half of v: the values
// whose rank lies between the first and third quartiles. Like the median
// it ignores stray repetitions, but it moves smoothly when the values
// fall in two clusters (as timings do on a machine that alternates
// between a fast and a slow state), where the median jumps from one
// cluster to the other.
func interquartileMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if lo >= hi {
		return median(s)
	}
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quartiles returns the first quartile, median and third quartile of v
// by Python's statistics.quantiles(v, n=4) (its default "exclusive"
// method, extrapolation at the ends included), the rule by which
// run-to-run spread is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(q2))
}

// counterDelta returns cur[k]-prev[k] for every key of cur whose value
// changed: the work a layer did between two obs snapshots.
func counterDelta(prev, cur map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// perOp divides a pass total by its operation count (0 when no ops ran).
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
