package serve

import "math"

// Histogram geometry: log-scaled bins with 8 sub-bins per octave
// (≈9% relative resolution), covering ~2^-10 ms (1 µs) up to 2^21 ms
// (~35 min). Values outside clamp to the edge bins.
const (
	histSubBits   = 3
	histSub       = 1 << histSubBits
	histMinExp    = 1023 - 10
	histOctaves   = 31
	histBins      = histOctaves * histSub
	histOverflow  = histBins - 1
	histUnderflow = 0
)

// Hist is a fixed-size log-scaled latency histogram: zero allocations,
// deterministic contents, quantiles to within one sub-bin (≈9%). The
// million-request runs the serving simulator targets cannot afford to
// retain raw samples, and a deterministic digest is exactly what the
// trajectory fingerprints need.
type Hist struct {
	counts [histBins]int64
	n      int64
	sum    float64
	max    float64
}

// binOf maps a millisecond value to its bin via float bits: the
// exponent selects the octave, the top mantissa bits the sub-bin. No
// Log call on the hot path.
func binOf(v float64) int {
	if v <= 0 {
		return histUnderflow
	}
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	if exp < histMinExp {
		return histUnderflow
	}
	idx := (exp-histMinExp)<<histSubBits | int(bits>>(52-histSubBits)&(histSub-1))
	if idx > histOverflow {
		return histOverflow
	}
	return idx
}

// binLowerMS returns the lower edge of bin i in ms — the value
// quantiles report below the overflow bin (a deterministic,
// conservative representative).
func binLowerMS(i int) float64 {
	exp := uint64(histMinExp + i>>histSubBits)
	mant := uint64(i&(histSub-1)) << (52 - histSubBits)
	return math.Float64frombits(exp<<52 | mant)
}

// Add records one latency observation.
func (h *Hist) Add(ms float64) {
	h.counts[binOf(ms)]++
	h.n++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
}

// MeanMS returns the exact mean of the recorded values.
func (h *Hist) MeanMS() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// MaxMS returns the exact maximum recorded value.
func (h *Hist) MaxMS() float64 { return h.max }

// QuantileMS returns the p-quantile (p in [0,1]) to one sub-bin's
// resolution, as the lower edge of the bin holding the p-th
// observation. The overflow bin has no upper edge, so a rank that
// lands there reports the exact maximum.
func (h *Hist) QuantileMS(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(p * float64(h.n-1))
	var seen int64
	for i, c := range h.counts[:histOverflow] {
		seen += c
		if seen > rank {
			return binLowerMS(i)
		}
	}
	return h.max
}

// Merge folds another histogram into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
