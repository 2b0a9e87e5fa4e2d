package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestConfusionBasics(t *testing.T) {
	c := Confusion{TP: 90, FN: 10}
	if c.Total() != 100 {
		t.Fatalf("total %d", c.Total())
	}
	if c.Accuracy() != 90 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	if c.Recall() != 90 {
		t.Fatalf("recall %v", c.Recall())
	}
	if c.Precision() != 100 {
		t.Fatalf("precision %v (no FPs)", c.Precision())
	}
}

func TestPrecisionEqualsAccuracyWithoutFPs(t *testing.T) {
	// The identity the paper invokes: all-positive test set, no false
	// positives ⇒ precision == accuracy.
	c := Confusion{TP: 993, FN: 7}
	if c.Precision() != 100 {
		t.Fatalf("precision %v", c.Precision())
	}
	if math.Abs(c.Accuracy()-99.3) > 1e-9 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, FN: 2, FP: 3, TN: 4}
	a.Add(Confusion{TP: 10, FN: 20, FP: 30, TN: 40})
	if a != (Confusion{TP: 11, FN: 22, FP: 33, TN: 44}) {
		t.Fatalf("add result %+v", a)
	}
}

func TestMatrixLayout(t *testing.T) {
	c := Confusion{TP: 75, FN: 25}
	m := c.Matrix()
	if m[0][0] != 75 || m[0][1] != 25 || m[1][0] != 0 || m[1][1] != 0 {
		t.Fatalf("matrix %v", m)
	}
	s := c.String()
	if !strings.Contains(s, "75.00") || !strings.Contains(s, "25.00") {
		t.Fatalf("render: %s", s)
	}
}

func TestEmptyConfusion(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 {
		t.Fatal("empty confusion not zeroed")
	}
	if c.Matrix() != [2][2]float64{} {
		t.Fatal("empty matrix not zero")
	}
}

func TestSummarize(t *testing.T) {
	ds := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	s := Summarize(ds)
	if s.N != 5 || s.MedianMS != 30 || s.MinMS != 10 || s.MaxMS != 50 {
		t.Fatalf("summary %+v", s)
	}
	if s.MeanMS != 30 {
		t.Fatalf("mean %v", s.MeanMS)
	}
	if s.P25MS != 20 || s.P75MS != 40 {
		t.Fatalf("IQR [%v,%v]", s.P25MS, s.P75MS)
	}
}

func TestSummarizeMSUnsortedInput(t *testing.T) {
	s := SummarizeMS([]float64{5, 1, 3, 2, 4})
	if s.MedianMS != 3 || s.MinMS != 1 || s.MaxMS != 5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummarizeMSDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	SummarizeMS(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary non-zero")
	}
	if s := SummarizeMS(nil); s.N != 0 {
		t.Fatal("empty summary non-zero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := SummarizeMS([]float64{0, 10})
	if s.MedianMS != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", s.MedianMS)
	}
	if s.P95MS != 9.5 {
		t.Fatalf("p95 of {0,10} = %v, want 9.5", s.P95MS)
	}
}

func TestSummaryString(t *testing.T) {
	s := SummarizeMS([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "median=2.00ms") {
		t.Fatalf("string: %s", s.String())
	}
}

func TestSingleSample(t *testing.T) {
	s := SummarizeMS([]float64{7})
	if s.MedianMS != 7 || s.P25MS != 7 || s.P95MS != 7 {
		t.Fatalf("single-sample summary %+v", s)
	}
}

// Precision returns TP/(TP+FP) as a percentage; with no false positives
// it equals Accuracy on an all-positive test set, the identity the paper
// relies on ("since there are no false positives, precision equals
// accuracy").
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return 100 * float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN) as a percentage.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return 100 * float64(c.TP) / float64(c.TP+c.FN)
}

// Summarize computes a LatencySummary from raw durations.
func Summarize(durations []time.Duration) LatencySummary {
	if len(durations) == 0 {
		return LatencySummary{}
	}
	ms := make([]float64, len(durations))
	var sum float64
	for i, d := range durations {
		ms[i] = float64(d.Nanoseconds()) / 1e6
		sum += ms[i]
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
