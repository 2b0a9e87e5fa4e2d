package tensor

import (
	"math"
	"testing"

	"ocularone/internal/rng"
)

// TestQuantizeLinearRoundTrip pins the affine quantize/dequantize pair:
// symmetric per-tensor round-trips within half a step, and explicit
// zero-points shift the stored codes without changing the decoded value.
func TestQuantizeLinearRoundTrip(t *testing.T) {
	r := rng.New(1)
	x := randTensor(r, 4, 33)
	q := QuantizeSymmetric(x)
	if len(q.Scales) != 1 || q.Zeros != nil {
		t.Fatalf("QuantizeSymmetric scales=%d zeros=%v", len(q.Scales), q.Zeros)
	}
	back := q.Dequantize()
	step := q.Scales[0]
	for i, v := range x.Data {
		if d := math.Abs(float64(v - back.Data[i])); d > float64(step)/2+1e-7 {
			t.Fatalf("elem %d: %v -> %v, drift %v > step/2 %v", i, v, back.Data[i], d, step/2)
		}
	}

	// Affine with a zero-point decodes to the same values.
	qa := QuantizeLinear(x, []float32{step}, []int32{3})
	backA := qa.Dequantize()
	for i := range back.Data {
		got, want := backA.Data[i], back.Data[i]
		// A zero-point of 3 costs up to 3 codes of headroom at the top of
		// the range (saturation), nothing elsewhere.
		if d := math.Abs(float64(got - want)); d > 3*float64(step)+1e-7 {
			t.Fatalf("affine elem %d: %v vs symmetric %v", i, got, want)
		}
	}
}

// TestQuantizePerChannelScales verifies axis-0 scales track each
// channel's own absmax.
func TestQuantizePerChannelScales(t *testing.T) {
	x := New(2, 4)
	copy(x.Data, []float32{0.1, -0.2, 0.05, 0.15, 10, -20, 5, 15})
	q := QuantizePerChannel(x)
	if len(q.Scales) != 2 {
		t.Fatalf("want 2 scales, got %d", len(q.Scales))
	}
	if got, want := q.Scales[0], float32(0.2)/127; math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("channel 0 scale %v, want %v", got, want)
	}
	if got, want := q.Scales[1], float32(20)/127; math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("channel 1 scale %v, want %v", got, want)
	}
	back := q.Dequantize()
	for i, v := range x.Data {
		step := q.ScaleFor(i / 4)
		if d := math.Abs(float64(v - back.Data[i])); d > float64(step)/2+1e-6 {
			t.Fatalf("elem %d drift %v > %v", i, d, step/2)
		}
	}
}

// matmulInt8Ref is the scalar reference the blocked kernel must match
// exactly (int32 accumulation is associative, so any loop order agrees).
func matmulInt8Ref(a, b *QTensor, rowScale []float32) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a.Data[i*k+kk]) * int32(b.Data[kk*n+j])
			}
			out.Data[i*n+j] = float32(acc) * rowScale[i]
		}
	}
	return out
}

// TestMatMulInt8IntoMatchesReference checks the blocked 4-row kernel
// against the naive triple loop across tile-boundary shapes (ragged
// rows, ragged column blocks).
func TestMatMulInt8IntoMatchesReference(t *testing.T) {
	r := rng.New(2)
	for _, dims := range [][3]int{{1, 7, 5}, {4, 16, 33}, {6, 64, 513}, {9, 100, 1030}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := QuantizeSymmetric(randTensor(r, m, k))
		b := QuantizeSymmetric(randTensor(r, k, n))
		rowScale := make([]float32, m)
		for i := range rowScale {
			rowScale[i] = 0.01 * float32(i+1)
		}
		want := matmulInt8Ref(a, b, rowScale)
		got := New(m, n)
		MatMulInt8Into(got, a, b, rowScale)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("m=%d k=%d n=%d: elem %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestConv2DQMatchesConv2D bounds the quantized conv against the fp32
// reference: with 8-bit weights and activations the per-element error
// stays within a few quantization steps.
func TestConv2DQMatchesConv2D(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct {
		name string
		spec ConvSpec
		h, w int
	}{
		{"dense3x3", ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 12, 12},
		{"stride2", ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 13, 13},
		{"depthwise", ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 8}, 10, 10},
		{"pointwise", ConvSpec{InC: 16, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 9, 9},
	} {
		x := randTensor(r, tc.spec.InC, tc.h, tc.w)
		w := randTensor(r, tc.spec.OutC, tc.spec.InC/groupsOf(tc.spec), tc.spec.KH, tc.spec.KW)
		bias := randTensor(r, tc.spec.OutC)
		want := Conv2D(x, w, bias, tc.spec)

		qw := QuantizePerChannel(w)
		xScale := absMax(x.Data) / 127
		got := Conv2DQ(x, qw, bias, tc.spec, xScale)

		if !got.SameShape(want) {
			t.Fatalf("%s: shape %v vs %v", tc.name, got.Shape, want.Shape)
		}
		// Error budget: one activation step per tap plus one weight step,
		// summed over the receptive field.
		taps := float32(tc.spec.KH * tc.spec.KW * tc.spec.InC / groupsOf(tc.spec))
		tol := taps * xScale // ~half a step of noise per tap, generous 2x margin
		for i := range got.Data {
			d := got.Data[i] - want.Data[i]
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s: elem %d drift %v > tol %v (got %v want %v)",
					tc.name, i, d, tol, got.Data[i], want.Data[i])
			}
		}
	}
}

func groupsOf(s ConvSpec) int {
	if s.Groups <= 0 {
		return 1
	}
	return s.Groups
}

func absMax(d []float32) float32 {
	var mx float32
	for _, v := range d {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// yoloGEMM builds the YOLO-backbone-scale operands the BENCHMARKS.md
// speedup claim is measured at: a 64→128 3×3 conv at 40×40 lowered to
// [128,576] × [576,1600].
func yoloGEMM() (a, c *Tensor, qa, qc *QTensor, rowScale []float32) {
	r := rng.New(5)
	a = randTensor(r, 128, 576)
	c = randTensor(r, 576, 1600)
	qa = QuantizePerChannel(a)
	qc = QuantizeSymmetric(c)
	rowScale = make([]float32, 128)
	for i := range rowScale {
		rowScale[i] = qa.ScaleFor(i) * qc.Scales[0]
	}
	return
}

// BenchmarkMatMulYOLOShapeFP32 is the fp32 GEMM at the YOLO conv shape —
// the baseline of the int8 speedup claim.
func BenchmarkMatMulYOLOShapeFP32(b *testing.B) {
	a, c, _, _, _ := yoloGEMM()
	dst := New(128, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

// BenchmarkMatMulYOLOShapeInt8 is the int8 GEMM (with fused
// requantization) at the same shape.
func BenchmarkMatMulYOLOShapeInt8(b *testing.B) {
	_, _, qa, qc, rowScale := yoloGEMM()
	dst := New(128, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInt8Into(dst, qa, qc, rowScale)
	}
}

// TestQuantizeRoundMatchesBranchDefinition pins the sign-bit form of
// quantizeRound to its definition — round half away from zero, then
// saturate — on the values where the two could part: signed zeros,
// exact ties, the saturation edges, infinities, NaN, and random bit
// patterns.
func TestQuantizeRoundMatchesBranchDefinition(t *testing.T) {
	ref := func(v, inv float32, zero int32) int8 {
		r := v * inv
		if r >= 0 {
			r += 0.5
		} else {
			r -= 0.5
		}
		qv := int32(r) + zero
		if qv > 127 {
			qv = 127
		} else if qv < -128 {
			qv = -128
		}
		return int8(qv)
	}
	negZero := math.Float32frombits(1 << 31)
	inf := float32(math.Inf(1))
	vals := []float32{0, negZero, 0.5, -0.5, 1.5, -1.5, 0.49999997, -0.49999997, 126.5, 127.5, -127.5, -128.5,
		1e-45, -1e-45, 3e38, -3e38, inf, -inf, float32(math.NaN()), math.Float32frombits(0xffc00000)}
	r := rng.New(5)
	for i := 0; i < 200000; i++ {
		vals = append(vals, math.Float32frombits(uint32(r.Uint64())))
	}
	for _, inv := range []float32{1, 127, 0.03, 0} {
		for _, zero := range []int32{0, -7, 100} {
			for _, v := range vals {
				if got, want := quantizeRound(v, inv, zero), ref(v, inv, zero); got != want {
					t.Fatalf("quantizeRound(%v [%#x], %v, %d) = %d, definition gives %d",
						v, math.Float32bits(v), inv, zero, got, want)
				}
			}
		}
	}
}

// Dequantize converts back to float32: v = (q - zero) * scale per
// axis-0 channel.
func (q *QTensor) Dequantize() *Tensor {
	t := New(q.Shape...)
	ch := 1
	if q.Rank() > 0 {
		ch = q.Shape[0]
	}
	plane := 0
	if ch > 0 {
		plane = len(q.Data) / ch
	}
	for c := 0; c < ch; c++ {
		s := q.ScaleFor(c)
		z := q.zeroFor(c)
		src := q.Data[c*plane : (c+1)*plane]
		dst := t.Data[c*plane : (c+1)*plane]
		for i, v := range src {
			dst[i] = float32(int32(v)-z) * s
		}
	}
	return t
}
