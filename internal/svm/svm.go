package svm

import (
	"fmt"
	"math"

	"ocularone/internal/rng"
)

// Model is a trained linear SVM: Predict returns sign(w·x + b).
type Model struct {
	W []float64
	B float64
}

// Pegasos hyper-parameters: the regularisation strength and the passes
// over the data.
const (
	lambda = 1e-3
	epochs = 80
)

// Train fits a linear SVM on feature vectors xs with labels ys in
// {-1,+1}; seed orders each epoch's pass. It panics on empty or
// inconsistent input.
func Train(xs [][]float64, ys []int, seed uint64) *Model {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic(fmt.Sprintf("svm: %d samples, %d labels", len(xs), len(ys)))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			panic(fmt.Sprintf("svm: sample %d has dim %d, want %d", i, len(x), dim))
		}
		if ys[i] != 1 && ys[i] != -1 {
			panic(fmt.Sprintf("svm: label %d is %d, want ±1", i, ys[i]))
		}
	}
	r := rng.New(seed)
	w := make([]float64, dim)
	var b float64
	t := 1
	for epoch := 0; epoch < epochs; epoch++ {
		for _, i := range r.Perm(len(xs)) {
			eta := 1 / (lambda * float64(t))
			t++
			margin := float64(ys[i]) * (dot(w, xs[i]) + b)
			// Regularisation shrink.
			for d := range w {
				w[d] *= 1 - eta*lambda
			}
			if margin < 1 {
				// Sub-gradient step on the hinge loss.
				for d := range w {
					w[d] += eta * float64(ys[i]) * xs[i][d]
				}
				b += eta * float64(ys[i])
			}
			// Optional projection onto the 1/sqrt(lambda) ball keeps the
			// iterates bounded (Pegasos theorem 1).
			if n := norm(w); n > 1/math.Sqrt(lambda) {
				scale := 1 / (n * math.Sqrt(lambda))
				for d := range w {
					w[d] *= scale
				}
			}
		}
	}
	return &Model{W: w, B: b}
}

// Score returns the signed margin w·x + b.
func (m *Model) Score(x []float64) float64 {
	return dot(m.W, x) + m.B
}

// Predict returns +1 or -1.
func (m *Model) Predict(x []float64) int {
	if m.Score(x) >= 0 {
		return 1
	}
	return -1
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}
