package tensor

import (
	"math"
	"unsafe"
)

// Row kernels: the per-element loops a plan executes outside the GEMM —
// the conv epilogue (affine or bias, then ReLU / SiLU / sigmoid), which
// on an int8 conv also requantizes the accumulator tile it reads, the
// in-place activations and Add of the interpreters, the running max of a
// pooling window, the quantizing copy of an int8 conv's input, and under
// both conv packs the im2col gather of a B panel. Each has one Go form —
// below; the int8 epilogue's is requantTile's (packq.go), the gather's
// the loop of each pack (pack.go, packq.go) — and on the tiers that bind
// rowKernels an AVX2 form (rowops_amd64.s) that produces the same bits,
// so neither the tier nor where a row's ragged tail falls ever shows in
// a result.
//
// Affine, bias, ReLU, add and max are single IEEE operations per lane
// (VMULPS, VADDPS, VMAXPS) and match the scalar loops exactly. SiLU and
// sigmoid are defined here, once, as float32 arithmetic (logisticDenom)
// in which every multiply and add is a separate rounding; the assembly
// executes the same operations in the same order with VMULPS / VADDPS and
// no FMA, which is why the activations are tier-independent by definition
// rather than drift-bounded (TestLogisticRowMatchesDefinition compares
// the two on every float32). Quantizing is quantizeRound: a multiply, an
// add of the signed half and a truncating conversion, then a clamp the
// assembly gets from its two saturating packs
// (TestQuantizeRowMatchesQuantizeRound, also on every float32).
// Requantizing, the epilogue's int32 source, is a wrapping int32
// subtraction, the conversion to float32 (round to nearest even,
// VCVTDQ2PS as CVTSL2SS) and one multiply, ahead of the affine and the
// activation in the same pass (TestRequantRowMatchesGo, on every
// accumulator). The gather computes nothing: it moves dwords, so its
// parity is == by construction and what its tests pin is which dwords —
// and that no load or store leaves them (TestGatherRowsMatchesGo,
// TestGatherRowsAtPageEnd).

// rowKernels is the vector form of the row kernels, bound per tier
// (nil: the Go forms run).
type rowKernels struct {
	// epilogue finishes a rows×w block at p (row stride ld floats): per
	// row r, v·scale[r] + shift[r] (scale nil: v + shift[r]; both nil:
	// v), then act. v is the block's own value, or with acc non-nil
	// float32(a − comp[r])·rowScale[r] for the int32 a at the same place
	// of a rows×w block at acc (row stride lda int32s) — an int8 conv's
	// accumulator tile, requantized and finished in one pass.
	epilogue func(p *float32, rows, ld, w int, scale, shift *float32, act EpAct, acc *int32, lda int, comp *int32, rowScale *float32)
	// add is dst[i] += src[i] over n elements.
	add func(dst, src *float32, n int)
	// max is best[i] = v[i] if v[i] > best[i], over n elements.
	max func(best, v *float32, n int)
	// quantize is dst[i] = quantizeRound(src[i], inv, 0) over n elements,
	// every byte then XORed with the matching byte of flip.
	quantize func(dst *int8, src *float32, n int, inv float32, flip uint32)
	// gather fills a conv B panel of rows × ld dwords at dst — a dword is
	// an fp32 element, or the channel quad of a pixel of the quad tier's
	// int8 copy. Row r is tap t0+r of the planes at src, plane dwords
	// apart: taps[t] is a tap's offset into its plane, and t wraps at
	// ntaps onto the next plane. Of each row, segment sg (panelSeg, nsegs
	// of them) receives at dst[r·ld + sg.off + j], j < sg.cnt, the row's
	// source dword sg.pos + j·sw, sw 1 or 2. Nothing else is read or
	// written, and no bound is tested (gatherTab.gather tests one). Every
	// pointer passes through this func value and so escapes: taps and segs
	// live in pooled scratch (gatherTab).
	gather func(dst unsafe.Pointer, ld int, src unsafe.Pointer, taps *int32, ntaps, t0, plane, rows int, segs *panelSeg, nsegs, sw int)
}

// The logistic definition: d = 1 + e^x for x = −v, then v/d or 1/d.
//
//   - x is clamped below at expLo, where e^x vanishes beside 1.
//   - n = round-to-even(x·log₂e), capped at 127, by adding and subtracting
//     1.5·2²³; r = x − n·ln2 in two steps (Cody–Waite: ln2Hi has 11
//     significant bits, so n·ln2Hi is exact).
//   - e^r = 1 + q with q = r + r²·P(r), P the degree-5 polynomial of
//     Cephes' expf.
//   - s = 2ⁿ and sInv = 2⁻ⁿ are built in the exponent field, and
//     d = s·((1 + sInv) + q). The scaling by s is exact and 1 + sInv is
//     exact for |n| ≤ 23, so d takes one rounding where 1 + s·(1 + q)
//     would take three; past n = 23 the 1 + sInv sum drops sInv, which is
//     then added to q instead.
//
// Above n = 127 (x ≥ 88.4) r grows instead of n, and d overflows to +Inf
// where 2¹²⁷·e^r does — from x = 128·ln2, as the exact e^x: every term is
// positive, so nothing cancels on the way, and v/d is the −0 (or, for
// v = −Inf, the NaN) that v / (1 + exp(−v)) gives.
const (
	expLo      = -87
	expLog2e   = 1.44269504088896341
	expTHi     = 127.49
	expRound   = 12582912 // 1.5·2²³
	expLn2Hi   = 0.693359375
	expLn2Lo   = -2.12194440e-4
	expP0      = 1.9875691500e-4
	expP1      = 1.3981999507e-3
	expP2      = 8.3334519073e-3
	expP3      = 4.1665795894e-2
	expP4      = 1.6666665459e-1
	expP5      = 5.0000001201e-1
	expBiasExp = 127
	expTiny    = 0x1p-23 // 1 + sInv drops an sInv below this
)

// logisticDenom returns 1 + e^(−v) by the definition above. Every
// float32(...) conversion is a rounding the compiler may not fuse away
// (Go spec, "Floating-point operators"), so every architecture computes
// the same bits.
func logisticDenom(v float32) float32 {
	x := -v
	if x < expLo {
		x = expLo
	}
	t := float32(x * expLog2e)
	if t > expTHi {
		t = expTHi
	}
	m := t + expRound
	n := float32(m - expRound)
	r := float32(x - float32(n*expLn2Hi))
	r = float32(r - float32(n*expLn2Lo))
	y := float32(r*expP0) + expP1
	y = float32(y*r) + expP2
	y = float32(y*r) + expP3
	y = float32(y*r) + expP4
	y = float32(y*r) + expP5
	q := float32(y*float32(r*r)) + r
	sBits := (math.Float32bits(m) + expBiasExp) << 23
	s := math.Float32frombits(sBits)
	sInv := math.Float32frombits(2*expBiasExp<<23 - sBits)
	c := float32(1 + sInv)
	lo := float32(0)
	if sInv < expTiny {
		lo = sInv
	}
	return float32(s * float32(c+float32(q+lo)))
}

func siluDef(v float32) float32    { return v / logisticDenom(v) }
func sigmoidDef(v float32) float32 { return 1 / logisticDenom(v) }

// rowAct applies act to row in place.
func rowAct(row []float32, act EpAct) {
	if kernRows != nil && len(row) > 0 {
		kernRows.epilogue(&row[0], 1, 0, len(row), nil, nil, act, nil, 0, nil, nil)
		return
	}
	rowActGo(row, act)
}

func rowActGo(row []float32, act EpAct) {
	switch act {
	case EpActSiLU:
		for i, v := range row {
			row[i] = siluDef(v)
		}
	case EpActReLU:
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	case EpActSigmoid:
		for i, v := range row {
			row[i] = sigmoidDef(v)
		}
	}
}

// rowAdd accumulates src into dst, which has the same length. (The loop
// keeps the shape of the one it replaced in Tensor.Add: which operand's
// payload survives an add of two NaNs follows from the instruction the
// compiler picks for it.)
func rowAdd(dst, src []float32) {
	if kernRows != nil && len(dst) > 0 {
		kernRows.add(&dst[0], &src[:len(dst)][0], len(dst))
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// rowMax raises best to v where v is greater — one tap of a pooling
// window over a run of outputs; v may run on past best. A NaN in v never
// wins and equal values (±0) keep best, as the scalar comparison does. A
// run shorter than a vector is quicker in place than through a call.
func rowMax(best, v []float32) {
	v = v[:len(best)]
	if len(best) >= 8 && kernRows != nil {
		kernRows.max(&best[0], &v[0], len(best))
		return
	}
	for i, x := range v {
		if x > best[i] {
			best[i] = x
		}
	}
}

// rowQuantize quantizes src at inverse scale inv into dst, symmetric
// (quantizeRound with zero-point 0), and XORs every result with flip: 0
// stores the int8 value, −128 the value plus 128 as an unsigned byte —
// the operand form of the quad int8 tier (packq.go).
func rowQuantize(dst []int8, src []float32, inv float32, flip int8) {
	if kernRows != nil && len(src) > 0 {
		kernRows.quantize(&dst[:len(src)][0], &src[0], len(src), inv, uint32(uint8(flip))*0x01010101)
		return
	}
	for i, v := range src {
		dst[i] = quantizeRound(v, inv, 0) ^ flip
	}
}
