package tensor

import (
	"fmt"
	"testing"

	"ocularone/internal/rng"
)

// The narrow 8×12 tile is held to the 4×NR stripe route bit for bit:
// both give every C element one ascending-k chain of fused multiply-adds
// from zero, so on a tier that binds a narrow kernel the same GEMM run
// with the kernel unbound is the oracle.

// stripeRouteOnly runs fn with the narrow kernel unbound, so every shape
// takes the selected tier's 4×NR route.
func stripeRouteOnly(fn func()) {
	kern := kernNarrowF32
	kernNarrowF32 = nil
	defer func() { kernNarrowF32 = kern }()
	fn()
}

// skipWithoutNarrowTile skips tiers that keep the single route.
func skipWithoutNarrowTile(t *testing.T) {
	if kernNarrowF32 == nil {
		t.Skip("tier binds no narrow tile: one route only")
	}
}

// testEpilogue is a full epilogue (scale, shift, activation) over m rows.
func testEpilogue(r *rng.RNG, m int) Epilogue {
	scale, shift := make([]float32, m), make([]float32, m)
	for i := range scale {
		scale[i] = r.Float32() + 0.5
		shift[i] = r.Float32() - 0.5
	}
	return Epilogue{Scale: scale, Shift: shift, Act: EpActSiLU}
}

// checkNarrowMatchesStripe runs one GEMM through gemmStripesF32 (below
// the matrix entry points' usePackedGEMM threshold too) on both routes, without and with the
// epilogue, and wants equal bits.
func checkNarrowMatchesStripe[S f32BSource](t *testing.T, what string, m, n, k int, ap []float32, src S, ep Epilogue) {
	t.Helper()
	run := func(ep Epilogue) []float32 {
		dst := make([]float32, m*n)
		for i := range dst {
			dst[i] = 99 // both routes must overwrite every element
		}
		gemmStripesF32(dst, m, n, k, ap, src, ep, 0, nil, nil)
		return dst
	}
	for _, e := range []Epilogue{{}, ep} {
		got := run(e)
		var want []float32
		stripeRouteOnly(func() { want = run(e) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s m=%d k=%d n=%d epilogue=%v: elem %d narrow %v != stripe %v",
					what, m, k, n, e.hasWork(), i, got[i], want[i])
			}
		}
	}
}

// checkNarrowConv is checkNarrowMatchesStripe for every group of a conv
// through the implicit-im2col B source.
func checkNarrowConv(t *testing.T, r *rng.RNG, spec ConvSpec, h, w int) {
	t.Helper()
	groups := max(spec.Groups, 1)
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(h, w)
	x := randTensor(r, spec.InC, h, w)
	wt := randTensor(r, spec.OutC, k)
	ep := testEpilogue(r, ocg)
	for g := 0; g < groups; g++ {
		ap := PackWeights(FromSlice(wt.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)).data
		src := newF32ConvB(x, spec, g*icg, icg, oh, ow)
		checkNarrowMatchesStripe(t, fmt.Sprintf("conv %+v on %dx%d group %d", spec, h, w, g),
			ocg, oh*ow, k, ap, src, ep)
		src.release()
	}
}

// TestNarrowTileMatchesStripe sweeps the narrow tile against the stripe
// route: every n from 1 to one past the selection bound, m on and off
// the tier's narrowMR-row grid (m = 8, 12, 24 on the 16-row tile and m %
// 8 = 4 on the 8-row one must fall back whole), k around the wide
// route's kc block and at the deepest layer's 4608, both B sources, and
// conv geometries whose output rows are shorter than a sliver.
func TestNarrowTileMatchesStripe(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		skipWithoutNarrowTile(t)
		for _, c := range []struct {
			m, n int
			want bool
		}{{8, 1, narrowMR == 8}, {16, 1, true}, {512, 9, true}, {256, 36, true}, {256, 37, false}, {12, 9, false}, {4, 36, false}, {128, 144, false}} {
			if got := useNarrowF32(c.m, c.n); got != c.want {
				t.Fatalf("useNarrowF32(m=%d, n=%d) = %v, want %v", c.m, c.n, got, c.want)
			}
		}

		r := rng.New(1400)
		for _, m := range []int{8, 12, 16, 24, 64, 512} {
			for _, k := range []int{1, 16, 27, 191, 192, 193, 4608} {
				a := randTensor(r, m, k)
				ap := PackWeights(a).data
				ep := testEpilogue(r, m)
				ns := make([]int, 0, 37)
				for n := 1; n <= narrowMaxN+1; n++ {
					// The deep shape costs m·k·n per n: keep the sliver edges.
					if m*k > 1<<18 && n%narrowNR > 1 && n != 9 {
						continue
					}
					ns = append(ns, n)
				}
				for _, n := range ns {
					b := randTensor(r, k, n)
					checkNarrowMatchesStripe(t, "matrix", m, n, k, ap, f32MatrixB{b: b.Data, n: n}, ep)
				}
			}
		}

		sizes := [][2]int{{3, 3}, {6, 6}, {5, 7}, {7, 5}, {1, 9}, {9, 4}, {12, 12}, {11, 13}, {6, 7}}
		for _, kern := range []int{1, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					for _, groups := range []int{1, 2} {
						for _, ocg := range []int{8, 12, 24} {
							for _, icg := range []int{3, 16, 64} {
								spec := ConvSpec{InC: icg * groups, OutC: ocg * groups, Groups: groups,
									KH: kern, KW: kern, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
								for _, hw := range sizes {
									if oh, ow := spec.OutSize(hw[0], hw[1]); oh <= 0 || ow <= 0 || oh*ow > 2*narrowMaxN {
										continue
									}
									checkNarrowConv(t, r, spec, hw[0], hw[1])
								}
							}
						}
					}
				}
			}
		}
		// The two shapes the tile was built for: k = 4608 at 3×3, k = 2304 at 6×6.
		deep := ConvSpec{InC: 512, OutC: 512, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		checkNarrowConv(t, r, deep, 3, 3)
		deep.InC, deep.OutC = 256, 256
		checkNarrowConv(t, r, deep, 6, 6)
	})
}

// FuzzNarrowTileMatchesStripe draws the GEMM shape and a conv geometry:
// every byte folds into its field's range; m is a multiple of 4 so half
// the draws fall back.
func FuzzNarrowTileMatchesStripe(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(8), uint16(26), uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(2))
	f.Add(uint64(2), uint8(15), uint8(35), uint16(575), uint8(3), uint8(1), uint8(1), uint8(0), uint8(5), uint8(5))
	f.Add(uint64(3), uint8(2), uint8(12), uint16(191), uint8(1), uint8(2), uint8(0), uint8(1), uint8(11), uint8(6))
	f.Add(uint64(4), uint8(7), uint8(36), uint16(0), uint8(3), uint8(2), uint8(1), uint8(1), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint8, depth uint16, kern, stride, pad, groups, h, w uint8) {
		m := 4 * (1 + int(rows%32))
		n := 1 + int(cols)%(narrowMaxN+4)
		k := 1 + int(depth%700)
		g := 1 + int(groups%2)
		spec := ConvSpec{InC: g * (1 + int(depth%24)), OutC: g * m, Groups: g,
			KH: 1 + 2*int(kern%2), KW: 1 + 2*int(kern%2),
			StrideH: 1 + int(stride%2), StrideW: 1 + int(stride%2), PadH: int(pad % 2), PadW: int(pad % 2)}
		hh, ww := 1+int(h%13), 1+int(w%13)
		oh, ow := spec.OutSize(hh, ww)
		forEachTier(t, func(t *testing.T, tier string) {
			skipWithoutNarrowTile(t)
			r := rng.New(seed)
			a := randTensor(r, m, k)
			b := randTensor(r, k, n)
			checkNarrowMatchesStripe(t, "matrix", m, n, k, PackWeights(a).data, f32MatrixB{b: b.Data, n: n}, testEpilogue(r, m))
			if oh > 0 && ow > 0 && oh*ow <= 2*narrowMaxN {
				checkNarrowConv(t, r, spec, hh, ww)
			}
		})
	})
}

// BenchmarkNarrowTileCrossover times one GEMM (m = 256, k = 2304, matrix
// B) on both routes as n grows — the measurement narrowMaxN was picked
// from.
func BenchmarkNarrowTileCrossover(b *testing.B) {
	if kernNarrowF32 == nil {
		b.Skip("tier binds no narrow tile")
	}
	const m, k = 256, 2304
	a := randTensor(rng.New(1), m, k)
	ap := PackWeights(a).data
	for _, n := range []int{9, 12, 24, 36} {
		bm := randTensor(rng.New(2), k, n)
		dst := make([]float32, m*n)
		src := f32MatrixB{b: bm.Data, n: n}
		b.Run(fmt.Sprintf("n%d/narrow", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmNarrowF32(dst, m, n, k, ap, src, Epilogue{}, 0, nil, nil)
			}
		})
		b.Run(fmt.Sprintf("n%d/stripe", n), func(b *testing.B) {
			stripeRouteOnly(func() {
				for i := 0; i < b.N; i++ {
					gemmStripesF32(dst, m, n, k, ap, src, Epilogue{}, 0, nil, nil)
				}
			})
		})
	}
}
