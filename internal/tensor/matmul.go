package tensor

import "fmt"

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n).
// The kernel is a cache-blocked ikj loop, which keeps B rows streaming
// through L1/L2 and vectorises well.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A × B, reusing dst's storage. dst must have
// shape m×n and is overwritten. Large shapes run the packed
// register-blocked kernel (pack.go); small ones keep the reference
// ikj loop — both produce bit-identical results.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if usePackedGEMM(m, k, n) {
		matMulPackedInto(dst, a, b, Epilogue{}, 0)
		return
	}
	matMulRefInto(dst, a, b)
}

// matMulRefInto is the retained reference path: zero dst, then the
// cache-blocked ikj loop. The packed kernel's golden parity tests pin
// against it.
func matMulRefInto(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	const kBlock = 256
	for k0 := 0; k0 < k; k0 += kBlock {
		k1 := k0 + kBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := dst.Data[i*n : (i+1)*n]
			for kk := k0; kk < k1; kk++ {
				// No zero-skip branch here: on dense YOLO activations the
				// sparsity test mispredicts far more than it saves, and
				// adding a·0 leaves every finite result bit-identical.
				brow := b.Data[kk*n : (kk+1)*n]
				axpy(arow[kk], brow, crow)
			}
		}
	}
}

// axpy computes y += a*x over equal-length slices. Kept as a separate
// function so the compiler eliminates bounds checks in the hot loop.
func axpy(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, xv := range x {
		y[i] += a * xv
	}
}

// MatVec computes y = A × x for a 2-D A (m×k) and 1-D x (k).
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 || x.Rank() != 1 || a.Shape[1] != x.Shape[0] {
		panic(fmt.Sprintf("tensor: MatVec shapes %v × %v", a.Shape, x.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	y := New(m)
	xd := x.Data
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		var s float32
		for j, v := range row {
			s += v * xd[j]
		}
		y.Data[i] = s
	}
	return y
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got %v", a.Shape))
	}
	t := New(a.Shape[1], a.Shape[0])
	TransposeInto(t, a)
	return t
}
