package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor metadata: %v", x)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("FromSlice copied data")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape/data mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 3)
	if x.At(2, 3) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data[2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	x.Data[5] = 3
	y := x.Reshape(3, 4)
	if y.At(1, 1) != 3 {
		t.Fatal("Reshape does not share data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddAndScale(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Add(y)
	x.Scale(2)
	want := []float32{22, 44, 66}
	for i, v := range want {
		if x.Data[i] != v {
			t.Fatalf("Add/Scale: got %v, want %v", x.Data, want)
		}
	}
}

func TestSumMaxArgMax(t *testing.T) {
	x := FromSlice([]float32{3, -1, 7, 2}, 4)
	if x.Sum() != 11 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Max() != 7 || x.ArgMax() != 2 {
		t.Fatalf("Max/ArgMax = %v/%d", x.Max(), x.ArgMax())
	}
}

func TestSigmoidKnownValues(t *testing.T) {
	x := FromSlice([]float32{0, 100, -100}, 3)
	x.Sigmoid()
	if math.Abs(float64(x.Data[0])-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", x.Data[0])
	}
	if x.Data[1] < 0.999 || x.Data[2] > 0.001 {
		t.Fatalf("sigmoid saturation wrong: %v", x.Data)
	}
}

func TestSiLU(t *testing.T) {
	x := FromSlice([]float32{0, 1, -1}, 3)
	x.SiLU()
	if x.Data[0] != 0 {
		t.Fatalf("silu(0) = %v", x.Data[0])
	}
	// silu(1) = 1/(1+e^-1) ≈ 0.73106
	if math.Abs(float64(x.Data[1])-0.73106) > 1e-4 {
		t.Fatalf("silu(1) = %v", x.Data[1])
	}
	if x.Data[2] >= 0 {
		t.Fatalf("silu(-1) = %v, want negative", x.Data[2])
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-2, 0, 3}, 3)
	x.ReLU()
	want := []float32{0, 0, 3}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("ReLU = %v", x.Data)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	x.Softmax()
	for r := 0; r < 2; r++ {
		var s float32
		for c := 0; c < 3; c++ {
			s += x.At(r, c)
		}
		if math.Abs(float64(s)-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
	// Large-magnitude row must not produce NaN (stability check).
	for _, v := range x.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("softmax produced NaN")
		}
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0005, 2}, 2)
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal too strict")
	}
	if a.Equal(b, 1e-5) {
		t.Fatal("Equal too loose")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 17
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i % 13)
	}
	c := MatMul(a, id)
	if !c.Equal(a, 0) {
		t.Fatal("A × I != A")
	}
}

// naiveMatMul is the reference implementation the blocked kernel must match.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {100, 33, 17}, {257, 19, 31}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = float32((i*7)%11) - 5
		}
		for i := range b.Data {
			b.Data[i] = float32((i*13)%17) - 8
		}
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, 1e-3) {
			t.Fatalf("MatMul %v mismatch vs naive", dims)
		}
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{5, 6}, 2)
	y := MatVec(a, x)
	if y.Data[0] != 17 || y.Data[1] != 39 {
		t.Fatalf("MatVec = %v", y.Data)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	a := New(37, 53)
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	tt := Transpose(Transpose(a))
	if !tt.Equal(a, 0) {
		t.Fatal("double transpose != identity")
	}
	b := Transpose(a)
	if b.At(5, 7) != a.At(7, 5) {
		t.Fatal("transpose element mismatch")
	}
}

// Property: MatMul distributes over addition: (A+B)×C = A×C + B×C.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		m, k, n := 5, 4, 6
		mk, kn := m*k, k*n
		a, b, c := New(m, k), New(m, k), New(k, n)
		s := seed
		next := func() float32 {
			s = s*6364136223846793005 + 1442695040888963407
			return float32((s>>33)%100) / 10
		}
		for i := 0; i < mk; i++ {
			a.Data[i], b.Data[i] = next(), next()
		}
		for i := 0; i < kn; i++ {
			c.Data[i] = next()
		}
		ab := a.Clone()
		ab.Add(b)
		left := MatMul(ab, c)
		right := MatMul(a, c)
		right.Add(MatMul(b, c))
		return left.Equal(right, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// At returns the element at the given multi-index (row-major).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
