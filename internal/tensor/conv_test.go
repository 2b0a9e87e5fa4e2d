package tensor

import (
	"math"
	"testing"
)

// naiveConv2D is the direct-convolution reference for the im2col kernel.
func naiveConv2D(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	h, wd := x.Shape[1], x.Shape[2]
	oh, ow := spec.OutSize(h, wd)
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	icg := spec.InC / groups
	ocg := spec.OutC / groups
	dh, dw := spec.dil()
	out := New(spec.OutC, oh, ow)
	for oc := 0; oc < spec.OutC; oc++ {
		g := oc / ocg
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ic := 0; ic < icg; ic++ {
					for ky := 0; ky < spec.KH; ky++ {
						iy := oy*spec.StrideH - spec.PadH + ky*dh
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < spec.KW; kx++ {
							ix := ox*spec.StrideW - spec.PadW + kx*dw
							if ix < 0 || ix >= wd {
								continue
							}
							xv := x.At(g*icg+ic, iy, ix)
							wv := w.Data[((oc*icg+ic)*spec.KH+ky)*spec.KW+kx]
							s += xv * wv
						}
					}
				}
				if bias != nil {
					s += bias.Data[oc]
				}
				out.Set(s, oc, oy, ox)
			}
		}
	}
	return out
}

func fillPattern(t *Tensor, mod int) {
	for i := range t.Data {
		t.Data[i] = float32((i*31)%mod) - float32(mod)/2
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		spec ConvSpec
		h, w int
	}{
		{"1x1", ConvSpec{InC: 3, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 8, 8},
		{"3x3-pad1", ConvSpec{InC: 2, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 10, 12},
		{"3x3-stride2", ConvSpec{InC: 3, OutC: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 16, 16},
		{"5x5", ConvSpec{InC: 1, OutC: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 9, 9},
		{"grouped", ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}, 7, 7},
		{"depthwise", ConvSpec{InC: 6, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 6}, 8, 6},
		{"dilated", ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 11, 11},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			groups := c.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			x := New(c.spec.InC, c.h, c.w)
			w := New(c.spec.OutC, c.spec.InC/groups, c.spec.KH, c.spec.KW)
			bias := New(c.spec.OutC)
			fillPattern(x, 13)
			fillPattern(w, 7)
			fillPattern(bias, 5)
			got := Conv2D(x, w, bias, c.spec)
			want := naiveConv2D(x, w, bias, c.spec)
			if !got.Equal(want, 1e-3) {
				t.Fatalf("conv mismatch for %s", c.name)
			}
		})
	}
}

func TestConv2DNilBias(t *testing.T) {
	spec := ConvSpec{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	x := FromSlice([]float32{2, 4}, 1, 1, 2)
	w := FromSlice([]float32{3}, 1, 1, 1, 1)
	out := Conv2D(x, w, nil, spec)
	if out.Data[0] != 6 || out.Data[1] != 12 {
		t.Fatalf("1x1 conv = %v", out.Data)
	}
}

func TestConvOutSize(t *testing.T) {
	spec := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	oh, ow := spec.OutSize(640, 640)
	if oh != 320 || ow != 320 {
		t.Fatalf("OutSize = %d,%d want 320,320", oh, ow)
	}
}

func TestMaxPool2D(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := MaxPool2D(x, 2, 2, 0)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("MaxPool = %v, want %v", out.Data, want)
		}
	}
	if out.Shape[1] != 2 || out.Shape[2] != 2 {
		t.Fatalf("MaxPool shape %v", out.Shape)
	}
}

func TestMaxPool2DWithPadding(t *testing.T) {
	// SPPF-style pooling: k=5, stride=1, pad=2 keeps spatial dims.
	x := New(2, 6, 6)
	fillPattern(x, 9)
	out := MaxPool2D(x, 5, 1, 2)
	if out.Shape[1] != 6 || out.Shape[2] != 6 {
		t.Fatalf("SPPF pool shape %v", out.Shape)
	}
	// Every output must be >= corresponding input (max over window incl. self).
	for i, v := range out.Data {
		if v < x.Data[i] {
			t.Fatalf("pool output %d smaller than input", i)
		}
	}
}

func TestUpsampleNearest2x(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	out := UpsampleNearest2x(x)
	want := []float32{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("Upsample = %v", out.Data)
		}
	}
}

func TestConcatChannels(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2)
	out := ConcatChannels(a, b)
	if out.Shape[0] != 3 {
		t.Fatalf("concat shape %v", out.Shape)
	}
	if out.At(0, 0, 0) != 1 || out.At(1, 0, 0) != 5 || out.At(2, 1, 1) != 12 {
		t.Fatalf("concat data %v", out.Data)
	}
}

func TestConcatChannelsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on spatial mismatch")
		}
	}()
	ConcatChannels(New(1, 2, 2), New(1, 3, 3))
}

func TestBatchNormInference(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	// gamma=2, beta=1, mean=2.5, var=1.25 → y = 2*(x-2.5)/sqrt(1.25+0) + 1
	BatchNormInference(x, []float32{2}, []float32{1}, []float32{2.5}, []float32{1.25}, 0)
	sd := float32(math.Sqrt(1.25))
	want := []float32{
		2*(1-2.5)/sd + 1, 2*(2-2.5)/sd + 1,
		2*(3-2.5)/sd + 1, 2*(4-2.5)/sd + 1,
	}
	for i := range want {
		if math.Abs(float64(x.Data[i]-want[i])) > 1e-5 {
			t.Fatalf("BN = %v, want %v", x.Data, want)
		}
	}
}

func TestBatchNormIdentity(t *testing.T) {
	x := New(3, 4, 4)
	fillPattern(x, 11)
	orig := x.Clone()
	// gamma=1, beta=0, mean=0, var=1 is identity (eps=0).
	ones := []float32{1, 1, 1}
	zeros := []float32{0, 0, 0}
	BatchNormInference(x, ones, zeros, zeros, ones, 0)
	if !x.Equal(orig, 1e-6) {
		t.Fatal("identity BN changed values")
	}
}
