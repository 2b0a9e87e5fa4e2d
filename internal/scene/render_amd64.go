//go:build amd64

package scene

import (
	"math"

	"ocularone/internal/rng"
)

// AVX-512 forms of the render's random streams (render_amd64.s), bound
// with the avx512vnni tier (vectorForm), whose check includes the DQ and
// VL instructions they use. SplitMix64 is counter-based, so eight draws
// are eight lanes: VPMULLQ does Mix's multiplies.

// noiseBlockAVX512 implements noiseBlockGo.
//
//go:noescape
func noiseBlockAVX512(z *[64]uint64, base uint64) (hits uint64)

// groundRowAVX512 shades n8 > 0 runs of eight pixels from dst on: per run,
// u = VCVTUQQ2PD(z>>11)·2⁻⁵³ (exact), n = 1 + (u − 0.5)·speckle,
// f = haze·n, then the 24 channel values f·colour, each clamped to
// [0, 255] and truncated as shade's cl does (no NaN is reachable), as
// three 8-byte stores.
//
//go:noescape
func groundRowAVX512(dst *uint8, n8 int, base uint64, haze float64, tab *groundTab)

// renderConsts holds the kernels' constants in the order render_amd64.s
// indexes them, built from rng's and this package's own constants so the
// two forms cannot disagree on a digit.
var renderConsts = func() (c struct {
	lanes            [8]uint64 // (j+1)·Gamma: lane j's draw from a base state
	step, mul1, mul2 uint64    // 8·Gamma and Mix's multipliers
	odds             uint64    // noiseOdds<<11: z < odds is z>>11 < noiseOdds
	unit, half, amp  float64   // 2⁻⁵³, 0.5, speckle
	one, top         float64   // 1, 255
	spread           [3][8]uint64
}) {
	for j := range c.lanes {
		c.lanes[j] = uint64(j+1) * rng.Gamma
	}
	c.step, c.mul1, c.mul2, c.odds = c.lanes[7], rng.MixMul1, rng.MixMul2, noiseOdds<<11 // lanes[7] = 8·Gamma
	c.unit, c.half, c.amp, c.one, c.top = math.Ldexp(1, -53), 0.5, speckle, 1, 255
	// VPERMPD indices: channel k of a run of eight pixels is pixel k/3's.
	for k := 0; k < 24; k++ {
		c.spread[k/8][k%8] = uint64(k / 3)
	}
	return c
}()
