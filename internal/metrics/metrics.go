package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Confusion is a binary confusion matrix for the single-class vest
// detection task. The paper's test images all contain exactly one vest,
// so the "False" true-label row is structurally zero — matching the
// matrices printed in Figs. 1, 3 and 4.
type Confusion struct {
	TP, FN int // true label "True": detected / missed
	FP, TN int // true label "False": spurious detection / correct reject
}

// Add accumulates another matrix.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FN += o.FN
	c.FP += o.FP
	c.TN += o.TN
}

// Total returns the number of evaluated samples.
func (c Confusion) Total() int { return c.TP + c.FN + c.FP + c.TN }

// Accuracy returns (TP+TN)/total as a percentage.
func (c Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(c.TP+c.TN) / float64(t)
}

// Matrix returns the percentage matrix in the paper's layout:
// rows = true label (True, False), cols = predicted (True, False).
func (c Confusion) Matrix() [2][2]float64 {
	t := float64(c.Total())
	if t == 0 {
		return [2][2]float64{}
	}
	return [2][2]float64{
		{100 * float64(c.TP) / t, 100 * float64(c.FN) / t},
		{100 * float64(c.FP) / t, 100 * float64(c.TN) / t},
	}
}

// String renders the matrix like the paper's figures.
func (c Confusion) String() string {
	m := c.Matrix()
	var sb strings.Builder
	sb.WriteString("            Pred True   Pred False\n")
	fmt.Fprintf(&sb, "True  True  %9.2f   %10.2f\n", m[0][0], m[0][1])
	fmt.Fprintf(&sb, "Label False %9.2f   %10.2f\n", m[1][0], m[1][1])
	return sb.String()
}

// LatencySummary describes a latency distribution in milliseconds.
type LatencySummary struct {
	N                   int
	MeanMS, MedianMS    float64
	P25MS, P75MS        float64
	P95MS, MinMS, MaxMS float64
}

// SummarizeMS computes a LatencySummary from millisecond samples.
func SummarizeMS(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	ms := append([]float64(nil), samples...)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	sort.Float64s(ms)
	return LatencySummary{
		N:        len(ms),
		MeanMS:   sum / float64(len(ms)),
		MedianMS: percentile(ms, 50),
		P25MS:    percentile(ms, 25),
		P75MS:    percentile(ms, 75),
		P95MS:    percentile(ms, 95),
		MinMS:    ms[0],
		MaxMS:    ms[len(ms)-1],
	}
}

// percentile interpolates the p-th percentile of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d median=%.2fms IQR=[%.2f,%.2f] p95=%.2fms", s.N, s.MedianMS, s.P25MS, s.P75MS, s.P95MS)
}
