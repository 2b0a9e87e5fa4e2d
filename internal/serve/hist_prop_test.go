package serve

import (
	"math"
	"sort"
	"testing"

	"ocularone/internal/rng"
)

// N reports the observation count.
func (h *Hist) N() int64 { return h.n }

// histSamples draws n log-uniform latencies spanning the histogram's
// whole in-range span (microseconds to minutes).
func histSamples(r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(r.Range(math.Log(1e-3), math.Log(6e4)))
	}
	return out
}

// TestHistQuantileMonotonic: for any sample set, quantiles are
// non-decreasing in p — p50 <= p90 <= p99 <= max — across many random
// populations, including tiny and single-value ones.
func TestHistQuantileMonotonic(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		var h Hist
		n := 1 + r.Intn(500)
		for _, v := range histSamples(r.SplitN("trial", trial), n) {
			h.Add(v)
		}
		qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
		prev := -1.0
		for _, p := range qs {
			q := h.QuantileMS(p)
			if q < prev {
				t.Fatalf("trial %d: quantile %.2f = %v below previous %v", trial, p, q, prev)
			}
			prev = q
		}
		if h.QuantileMS(1) > h.MaxMS() {
			t.Fatalf("trial %d: q100 %v above exact max %v", trial, h.QuantileMS(1), h.MaxMS())
		}
	}
}

// TestHistQuantileRelativeError: for in-range values, the reported
// quantile is the lower edge of the sample's bin, so it sits within
// one sub-bin below the exact order-statistic value. Sub-bins are
// linear in the mantissa, so the widest bin in an octave is the
// bottom one: a factor of (histSub+1)/histSub = 9/8.
func TestHistQuantileRelativeError(t *testing.T) {
	r := rng.New(37)
	factor := float64(histSub+1) / histSub
	for trial := 0; trial < 100; trial++ {
		var h Hist
		vals := histSamples(r.SplitN("trial", trial), 400)
		for _, v := range vals {
			h.Add(v)
		}
		sort.Float64s(vals)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
			exact := vals[int(p*float64(len(vals)-1))]
			got := h.QuantileMS(p)
			if got > exact {
				t.Fatalf("trial %d p=%.2f: quantile %v above exact %v (lower edges must underestimate)",
					trial, p, got, exact)
			}
			if got*factor*(1+1e-12) < exact {
				t.Fatalf("trial %d p=%.2f: quantile %v more than one sub-bin below exact %v",
					trial, p, got, exact)
			}
		}
	}
}

// TestHistMergeCommutative: merging histograms in either order yields
// identical quantiles, mean, count, and max — merge is a lossless fold
// of bin counts.
func TestHistMergeCommutative(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 50; trial++ {
		var a, b Hist
		tr := r.SplitN("trial", trial)
		for _, v := range histSamples(tr.Split("a"), 150) {
			a.Add(v)
		}
		for _, v := range histSamples(tr.Split("b"), 250) {
			b.Add(v)
		}
		var ab, ba Hist
		ab.Merge(&a)
		ab.Merge(&b)
		ba.Merge(&b)
		ba.Merge(&a)
		if ab.N() != ba.N() || ab.MaxMS() != ba.MaxMS() || ab.MeanMS() != ba.MeanMS() {
			t.Fatalf("trial %d: merge order changed summary stats", trial)
		}
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if ab.QuantileMS(p) != ba.QuantileMS(p) {
				t.Fatalf("trial %d: merge order changed q%.2f: %v vs %v",
					trial, p, ab.QuantileMS(p), ba.QuantileMS(p))
			}
		}
		// Merged quantiles bracket the per-part quantiles.
		for _, p := range []float64{0.5, 0.9} {
			lo, hi := a.QuantileMS(p), b.QuantileMS(p)
			if lo > hi {
				lo, hi = hi, lo
			}
			if q := ab.QuantileMS(p); q < lo-1e-12 || q > hi+1e-12 {
				t.Fatalf("trial %d: merged q%.2f %v outside part range [%v, %v]", trial, p, q, lo, hi)
			}
		}
	}
}

// TestHistEdgeBins: values at and beyond the histogram range clamp to
// the edge bins without corrupting counts or quantile order.
func TestHistEdgeBins(t *testing.T) {
	var h Hist
	h.Add(0)    // underflow
	h.Add(-5)   // negative clamps to underflow
	h.Add(1e-9) // below min exp
	h.Add(1e9)  // beyond overflow octave
	h.Add(100)  // in range
	if h.N() != 5 {
		t.Fatalf("edge values miscounted: n=%d", h.N())
	}
	if q0, q1 := h.QuantileMS(0), h.QuantileMS(1); q0 > q1 {
		t.Fatalf("edge-bin quantiles out of order: %v > %v", q0, q1)
	}
	if h.MaxMS() != 1e9 {
		t.Fatalf("exact max lost: %v", h.MaxMS())
	}
}
