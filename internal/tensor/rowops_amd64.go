//go:build amd64

package tensor

import (
	"math"
	"unsafe"
)

// AVX2 row kernels (rowops_amd64.s), bound by the avx2fma and avx512vnni
// tiers. They use VMULPS / VADDPS / VMAXPS / VDIVPS and no FMA: every
// lane performs the Go forms' operations (rowops.go) one rounding at a
// time, so their results are those forms' bits. A row's ragged tail runs
// under a VMASKMOVPS mask, so it takes the same instructions. (The
// gather computes nothing; its tail is narrower moves.)

// epilogueRowsAVX2 implements rowKernels.epilogue.
//
//go:noescape
func epilogueRowsAVX2(p *float32, rows, ld, w int, scale, shift *float32, act EpAct, acc *int32, lda int, comp *int32, rowScale *float32)

// addRowAVX2 implements rowKernels.add.
//
//go:noescape
func addRowAVX2(dst, src *float32, n int)

// maxRowAVX2 implements rowKernels.max.
//
//go:noescape
func maxRowAVX2(best, v *float32, n int)

// quantizeRowAVX2 implements rowKernels.quantize.
//
//go:noescape
func quantizeRowAVX2(dst *int8, src *float32, n int, inv float32, flip uint32)

// gatherRowsAVX2 implements rowKernels.gather.
//
//go:noescape
func gatherRowsAVX2(dst unsafe.Pointer, ld int, src unsafe.Pointer, taps *int32, ntaps, t0, plane, rows int, segs *panelSeg, nsegs, sw int)

var avx2Rows = &rowKernels{epilogue: epilogueRowsAVX2, add: addRowAVX2, max: maxRowAVX2, quantize: quantizeRowAVX2, gather: gatherRowsAVX2}

// logisticConsts holds the constants of the logistic definition
// (rowops.go), one 8-lane vector each, in the order rowops_amd64.s
// indexes them — built from the definition's own constants so the two
// forms cannot disagree on a digit.
var logisticConsts = func() (t [17][8]uint32) {
	f := math.Float32bits
	for i, c := range [...]uint32{
		1 << 31, f(expLo), f(expLog2e), f(expTHi), f(expRound), f(expLn2Hi), f(expLn2Lo),
		f(expP0), f(expP1), f(expP2), f(expP3), f(expP4), f(expP5),
		expBiasExp, 2 * expBiasExp << 23, f(1), f(expTiny),
	} {
		for j := range t[i] {
			t[i][j] = c
		}
	}
	return t
}()

// tailMasks yields the VMASKMOVPS mask of a tail of r lanes (0 < r < 8)
// at index 8−r: r lanes of ones, then zeros.
var tailMasks = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// quantConsts are quantizeRowAVX2's vectors: the float32 sign bit, the
// half quantizeRound adds under that sign, and the VPERMD order that
// undoes the lane interleave of two rounds of 128-bit-lane packs.
var quantConsts = [3][8]uint32{
	{1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31},
	{0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000, 0x3f000000},
	{0, 4, 1, 5, 2, 6, 3, 7},
}
