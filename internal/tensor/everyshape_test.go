package tensor

import (
	"fmt"
	"slices"
	"testing"

	"ocularone/internal/rng"
)

// Every convolution, whatever its shape, runs the packed implicit-im2col
// drivers: no size rule keeps a group on the materialised im2col +
// reference GEMM any more. These tests hold the drivers to that
// reference lowering (conv2DRef / conv2DQRef) across the shapes such a
// rule used to turn away — fewer rows than one A panel, k of 1 and odd
// k, planes narrower than any tile, depthwise groups — on every tier.

// everyShape decodes a conv geometry and a batch width from small
// integers (the fuzzer's bytes, the table test's loop variables): ocg
// 1…9, icg 1…4, kernels up to 3×3, groups 1, 2 or C (depthwise-style:
// one input channel a group), stride 1–2, padding 0–2, dilation 1–2,
// planes up to 12×12, batches of 1–4.
func everyShape(ocg, icg, kh, kw, groupSel, stride, pad, dil, h, w, nb int) (spec ConvSpec, hh, ww, batch int) {
	ocg, icg = 1+ocg%9, 1+icg%4
	groups := 1 + groupSel%3
	if groups == 3 {
		groups, icg = 2+icg, 1
	}
	spec = ConvSpec{
		InC: groups * icg, OutC: groups * ocg, Groups: groups,
		KH: 1 + kh%3, KW: 1 + kw%3,
		StrideH: 1 + stride%2, StrideW: 1 + stride/2%2,
		PadH: pad % 3, PadW: pad / 3 % 3,
		DilationH: 1 + dil%2, DilationW: 1 + dil/2%2,
	}
	return spec, 1 + h%12, 1 + w%12, 1 + nb%4
}

// checkConvEveryShape runs one geometry through every conv entry point
// on the tier in effect. fp32 — Conv2D, and the plan's ConvPackedInto /
// ConvPackedCheckInto over prepacked weights — against conv2DRef: bit
// for bit where the tier's kernels round as the reference does, inside
// the FMA bound elsewhere; checked and unchecked always bit for bit with
// each other. int8 — Conv2DQ against conv2DQRef; ConvPackedQBatchInto
// over the whole batch (folded when the planes are small) and sample by
// sample, checked and unchecked, with a per-channel affine and ReLU, SiLU
// or sigmoid, against Conv2DQ plus goEpilogue — bit for bit on every tier.
func checkConvEveryShape(t *testing.T, spec ConvSpec, h, w, nb int, seed uint64) {
	t.Helper()
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		return
	}
	what := fmt.Sprintf("%+v on %dx%d, batch %d, seed %d", spec, h, w, nb, seed)
	groups := spec.Groups
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k, plane := icg*spec.KH*spec.KW, oh*ow
	r := rng.New(seed)
	wt := randTensor(r, spec.OutC, icg, spec.KH, spec.KW)
	bias := randTensor(r, spec.OutC)
	ep := Epilogue{Shift: bias.Data} // v + b, as addBias
	xs := make([]*Tensor, nb)
	for s := range xs {
		xs[s] = randTensor(r, spec.InC, h, w)
	}
	group := func(out *Tensor, g int) *Tensor {
		return FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
	}

	for s, x := range xs {
		want := conv2DRef(x, wt, bias, spec)
		tol := convTolerances(x, wt, bias, spec)
		cmpTol(t, fmt.Sprintf("%s: Conv2D sample %d", what, s), Conv2D(x, wt, bias, spec).Data, want.Data, tol)
		got, chk := New(spec.OutC, oh, ow), New(spec.OutC, oh, ow)
		for g := 0; g < groups; g++ {
			wp := PackWeights(FromSlice(wt.Data[g*ocg*k:(g+1)*ocg*k], ocg, k))
			ConvPackedInto(group(got, g), wp, x, spec, g*icg, oh, ow, ep, g*ocg)
			if !ConvPackedCheckInto(group(chk, g), wp, x, spec, g*icg, oh, ow, ep, g*ocg) {
				t.Fatalf("%s: sample %d group %d: clean checked conv flagged", what, s, g)
			}
		}
		cmpTol(t, fmt.Sprintf("%s: ConvPackedInto sample %d", what, s), got.Data, want.Data, tol)
		if !slices.Equal(chk.Data, got.Data) {
			t.Fatalf("%s: sample %d: checked conv differs from unchecked", what, s)
		}
	}

	qw := QuantizePerChannel(wt)
	const xScale = 1.0 / 100
	// The packed int8 convs finish with a full epilogue: a per-channel
	// affine and one of the three activations.
	qep := testEpilogue(r, spec.OutC)
	qep.Act = []EpAct{EpActReLU, EpActSiLU, EpActSigmoid}[seed%3]
	wants := make([]*Tensor, nb)
	for s, x := range xs {
		if !slices.Equal(Conv2DQ(x, qw, bias, spec, xScale).Data, conv2DQRef(x, qw, bias, spec, xScale).Data) {
			t.Fatalf("%s: Conv2DQ sample %d differs from the reference lowering", what, s)
		}
		wants[s] = Conv2DQ(x, qw, nil, spec, xScale)
		goEpilogue(qep, wants[s].Data, 0, spec.OutC, plane, 0, plane, 0)
	}
	for _, checked := range []bool{false, true} {
		for _, perSample := range []bool{false, true} {
			outs := make([]*Tensor, nb)
			for s := range outs {
				outs[s] = New(spec.OutC, oh, ow)
			}
			for g := 0; g < groups; g++ {
				qp := PackWeightsQ(qw.Data[g*ocg*k:(g+1)*ocg*k], ocg, k, spec.KH*spec.KW)
				rs := convQScales(qw, xScale, g, ocg)
				dsts := make([]*Tensor, nb)
				for s := range dsts {
					dsts[s] = group(outs[s], g)
				}
				var bad []bool
				if checked {
					bad = make([]bool, nb)
				}
				ok := true
				if perSample {
					for s := range xs {
						ok = convPackedQOne(dsts[s], qp, xs[s], spec, g*icg, oh, ow, 1/xScale, rs, qep, g*ocg, checked) && ok
					}
				} else {
					ok = ConvPackedQBatchInto(dsts, qp, xs, spec, g*icg, oh, ow, 1/xScale, rs, qep, g*ocg, bad)
				}
				if !ok || slices.Contains(bad, true) {
					t.Fatalf("%s: group %d (checked=%v, per sample=%v): clean int8 conv flagged: %v", what, g, checked, perSample, bad)
				}
			}
			for s := range outs {
				if !slices.Equal(outs[s].Data, wants[s].Data) {
					t.Fatalf("%s: int8 sample %d (checked=%v, per sample=%v, act %d) differs from Conv2DQ and the Go epilogue", what, s, checked, perSample, qep.Act)
				}
			}
		}
	}
}

// TestConvEveryShapeMatchesReference sweeps every ocg 1…9 against every
// icg, kernel and grouping of everyShape, with stride, padding,
// dilation, plane and batch drawn per combination from a fixed stream.
func TestConvEveryShapeMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		r := rng.New(18)
		draw := func() int { return int(r.Float32() * 1024) }
		for ocg := 0; ocg < 9; ocg++ {
			for icg := 0; icg < 4; icg++ {
				for kern := 0; kern < 9; kern++ {
					for groupSel := 0; groupSel < 3; groupSel++ {
						spec, h, w, nb := everyShape(ocg, icg, kern/3, kern%3, groupSel, draw(), draw(), draw(), draw(), draw(), draw())
						checkConvEveryShape(t, spec, h, w, nb, uint64(draw()))
					}
				}
			}
		}
	})
}

// FuzzConvEveryShape draws the whole geometry.
func FuzzConvEveryShape(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))   // 1×1×1 on 1×1
	f.Add(uint64(2), uint8(0), uint8(0), uint8(2), uint8(2), uint8(2), uint8(0), uint8(4), uint8(0), uint8(5), uint8(5), uint8(3))   // depthwise 3×3 on 6×6, batch 4
	f.Add(uint64(3), uint8(0), uint8(3), uint8(2), uint8(2), uint8(0), uint8(0), uint8(4), uint8(0), uint8(11), uint8(11), uint8(1)) // m = 1, k = 36
	f.Add(uint64(4), uint8(8), uint8(2), uint8(1), uint8(2), uint8(1), uint8(3), uint8(8), uint8(3), uint8(6), uint8(9), uint8(2))   // 9 rows, 2 groups, strided, dilated
	f.Add(uint64(5), uint8(3), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), uint8(4), uint8(0), uint8(2), uint8(2), uint8(3))   // k = 27 (≡ 3 mod 4) on 3×3, batch 4: folded
	f.Add(uint64(6), uint8(5), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), uint8(5), uint8(2))   // 1×1, k = 2 (≡ 2 mod 4) on 6×6, batch 3: folded
	f.Add(uint64(7), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1), uint8(1), uint8(1), uint8(0), uint8(11), uint8(10), uint8(1)) // 1×3, 2 groups, k = 9 (≡ 1 mod 4), stride 2×1
	// Channel groups with 3, 2 and 1 pad channels on the quad tier (1, 0, 1
	// on the pair tiers) through the strided gather, dilated.
	f.Add(uint64(8), uint8(4), uint8(0), uint8(2), uint8(2), uint8(0), uint8(3), uint8(8), uint8(3), uint8(11), uint8(11), uint8(3)) // icg = 1, 3×3 stride 2 dilation 2 on 12×12, batch 4: folded
	f.Add(uint64(9), uint8(5), uint8(1), uint8(2), uint8(2), uint8(1), uint8(3), uint8(8), uint8(3), uint8(11), uint8(11), uint8(0)) // icg = 2, 2 groups, the same conv, batch 1
	f.Add(uint64(10), uint8(8), uint8(2), uint8(2), uint8(2), uint8(0), uint8(3), uint8(4), uint8(3), uint8(9), uint8(10), uint8(1)) // icg = 3, pad 1, 10×11, batch 2
	f.Fuzz(func(t *testing.T, seed uint64, ocg, icg, kh, kw, groupSel, stride, pad, dil, h, w, nb uint8) {
		spec, hh, ww, batch := everyShape(int(ocg), int(icg), int(kh), int(kw), int(groupSel), int(stride), int(pad), int(dil), int(h), int(w), int(nb))
		forEachTier(t, func(t *testing.T, tier string) {
			checkConvEveryShape(t, spec, hh, ww, batch, seed)
		})
	})
}
