package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// tail picks the highest percentile of xs that still has at least ten
// samples beyond it, and says which percentile that is. With fewer than
// twenty samples no percentile above the median qualifies, so the
// median is returned as the 50th.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n < 20 {
		return median(s), 50
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// segmentSpread is max / min of the medians of the non-empty segments.
func segmentSpread(segments [][]float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, s := range segments {
		if len(s) == 0 {
			continue
		}
		m := median(s)
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if hi == 0 || math.IsInf(lo, 1) || lo == 0 {
		return 1
	}
	return hi / lo
}

// share is num / den, 0 for an empty denominator.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// mix folds one word into an FNV-1a style hash; fnvOffset starts one.
const fnvOffset = uint64(14695981039346656037)

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// worseBy is the share of base by which got is worse, in the metric's
// direction; negative when got is better.
func worseBy(better string, base, got float64) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == higher {
		return (base - got) / math.Abs(base)
	}
	return (got - base) / math.Abs(base)
}

// quartileSpread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method), the
// acceptance rule the repository's driver applies to ten runs.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
