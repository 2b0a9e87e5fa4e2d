package svm

import (
	"testing"

	"ocularone/internal/rng"
)

// separable2D draws two Gaussian blobs separated along x.
func separable2D(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	xs := make([][]float64, 0, 2*n)
	ys := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		xs = append(xs, []float64{r.NormRange(2, 0.5), r.NormRange(0, 1)})
		ys = append(ys, 1)
		xs = append(xs, []float64{r.NormRange(-2, 0.5), r.NormRange(0, 1)})
		ys = append(ys, -1)
	}
	return xs, ys
}

func TestTrainSeparable(t *testing.T) {
	xs, ys := separable2D(200, 1)
	m := Train(xs, ys, 2)
	if acc := m.Accuracy(xs, ys); acc < 0.99 {
		t.Fatalf("train accuracy %v on separable data", acc)
	}
	// Generalisation to a fresh draw.
	xt, yt := separable2D(100, 3)
	if acc := m.Accuracy(xt, yt); acc < 0.98 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestDecisionBoundaryOrientation(t *testing.T) {
	xs, ys := separable2D(100, 4)
	m := Train(xs, ys, 5)
	// Positive class lives at x>0: weight on the first feature dominates.
	if m.W[0] <= 0 {
		t.Fatalf("w = %v, want positive first component", m.W)
	}
	if m.Score([]float64{3, 0}) <= 0 || m.Score([]float64{-3, 0}) >= 0 {
		t.Fatal("boundary misoriented")
	}
}

func TestTrainWithBiasShift(t *testing.T) {
	// Classes separated at x = 5: the bias must move the boundary.
	r := rng.New(6)
	var xs [][]float64
	var ys []int
	for i := 0; i < 200; i++ {
		xs = append(xs, []float64{r.NormRange(6, 0.3)})
		ys = append(ys, 1)
		xs = append(xs, []float64{r.NormRange(4, 0.3)})
		ys = append(ys, -1)
	}
	m := Train(xs, ys, 7)
	if acc := m.Accuracy(xs, ys); acc < 0.95 {
		t.Fatalf("biased-data accuracy %v", acc)
	}
}

func TestNoisyDataStillLearns(t *testing.T) {
	xs, ys := separable2D(200, 8)
	// Flip 10% of labels.
	r := rng.New(9)
	for i := range ys {
		if r.Bool(0.1) {
			ys[i] = -ys[i]
		}
	}
	m := Train(xs, ys, 10)
	xt, yt := separable2D(100, 11)
	if acc := m.Accuracy(xt, yt); acc < 0.9 {
		t.Fatalf("noisy-training test accuracy %v", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := separable2D(50, 12)
	m1 := Train(xs, ys, 13)
	m2 := Train(xs, ys, 13)
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("same-seed training differs")
		}
	}
	if m1.B != m2.B {
		t.Fatal("bias differs")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil, 0) },
		func() { Train([][]float64{{1}}, []int{1, -1}, 0) },
		func() { Train([][]float64{{1}, {1, 2}}, []int{1, -1}, 0) },
		func() { Train([][]float64{{1}}, []int{0}, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPredictSign(t *testing.T) {
	m := &Model{W: []float64{1, -1}, B: 0.5}
	if m.Predict([]float64{1, 0}) != 1 {
		t.Fatal("positive side misclassified")
	}
	if m.Predict([]float64{0, 2}) != -1 {
		t.Fatal("negative side misclassified")
	}
	if m.Score([]float64{0, 0}) != 0.5 {
		t.Fatal("bias not applied")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &Model{W: []float64{1}}
	if m.Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy not 0")
	}
}

// Accuracy evaluates the model on a labelled set, returning a fraction
// in [0,1].
func (m *Model) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	hit := 0
	for i, x := range xs {
		if m.Predict(x) == ys[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(xs))
}
