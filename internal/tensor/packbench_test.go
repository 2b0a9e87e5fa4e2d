package tensor

import (
	"fmt"
	"testing"

	"ocularone/internal/rng"
)

// BenchmarkConvPanelPack times the im2col feed of a conv alone — the B
// source made (newF32ConvB / newQConvB: the bordered copy, at int8 the
// quantizing one), every panel of the conv packed at the width and depth
// its driver packs it, the source released — with no GEMM behind it. The
// rows are the Table-2 networks' conv geometries at 96×96, the ones of
// BENCHMARKS.md §PR 23 "The pack alone": fp32 packs one sample, kc-blocked
// gemmNR panels on the stripe route and full-depth narrowNR ones where
// the narrow tile runs; int8 packs what ConvPackedQBatchInto packs for a
// batch of four, full-depth qNR slivers sample by sample, or across the
// samples where the batch folds. ns/op is the conv; ns/Belem divides it
// by the B elements written (k·n, at int8 the padded depth by the
// batch's columns) — times the clock in GHz, cycles an element. The file
// uses nothing a parent commit lacks, so copied into a checkout of one
// it measures that pack: go test -c both, alternate the binaries. Run
// with GOMAXPROCS=1.
func BenchmarkConvPanelPack(b *testing.B) {
	const nb = 4
	for _, tc := range []struct {
		ch, side, kern, stride int
	}{
		{64, 24, 3, 1}, {32, 48, 3, 1}, {128, 12, 3, 1}, {256, 6, 3, 1}, {512, 3, 3, 1},
		{64, 24, 3, 2}, {3, 96, 7, 2}, {128, 12, 1, 1},
	} {
		spec := ConvSpec{InC: tc.ch, OutC: max(tc.ch, 64), KH: tc.kern, KW: tc.kern,
			StrideH: tc.stride, StrideW: tc.stride, PadH: tc.kern / 2, PadW: tc.kern / 2}
		oh, ow := spec.OutSize(tc.side, tc.side)
		k, n := tc.ch*tc.kern*tc.kern, oh*ow
		x := randTensor(rng.New(24), tc.ch, tc.side, tc.side)
		xs := make([]*Tensor, nb)
		for i := range xs {
			xs[i] = x
		}
		name := fmt.Sprintf("%dch_%dx%d_k%ds%d", tc.ch, tc.side, tc.side, tc.kern, tc.stride)
		perElem := func(b *testing.B, elems int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/Belem")
		}

		b.Run(name+"/fp32_"+ConvRouteF32(spec.OutC, n), func(b *testing.B) {
			nr, kb := gemmNR, gemmKC
			if useNarrowF32(spec.OutC, n) {
				nr, kb = narrowNR, k
			}
			bbuf := make([]float32, min(kb, k)*nr)
			for i := 0; i < b.N; i++ {
				src := newF32ConvB(x, spec, 0, tc.ch, oh, ow)
				for j0 := 0; j0 < n; j0 += nr {
					for k0 := 0; k0 < k; k0 += kb {
						src.pack(bbuf, nr, k0, min(kb, k-k0), j0, min(nr, n-j0))
					}
				}
				src.release()
			}
			perElem(b, k*n)
		})

		b.Run(name+"/int8_"+ConvRouteQ(nb, n), func(b *testing.B) {
			kd := (tc.ch + qK - 1) / qK * qK * tc.kern * tc.kern // the padded depth
			bbuf := make([]int8, kd*qNR)
			batches := [][]*Tensor{xs}
			if !foldsBatchQ(nb, n) {
				batches = [][]*Tensor{xs[:1], xs[1:2], xs[2:3], xs[3:]}
			}
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					src := newQConvB(batch, 100, spec, 0, k, oh, ow)
					for j0, cols := 0, len(batch)*n; j0 < cols; j0 += qNR {
						src.pack(bbuf, j0, min(qNR, cols-j0))
					}
					src.release()
				}
			}
			perElem(b, kd*nb*n)
		})
	}
}

// BenchmarkFP32Kernels is the fp32 twin of BenchmarkInt8Kernels: each
// tier's bare stripe tile (kernF32, kc-blocked gemmNR panels) and narrow
// tile (kernNarrowF32, full-depth narrowNR panels, narrowMR rows a call)
// at the five BenchmarkConvTable2Shapes GEMMs, every B panel packed
// before the timer starts — the kernels alone, no pack, no epilogue, no
// scatter. GFLOPS counts the multiply-adds the tile issues, padded
// columns included; useGFLOPS the 2·m·k·n the conv needs. Like the rest
// of this file it compiles in a parent checkout. Run with GOMAXPROCS=1
// and take the fastest of -count 5: the host swings run to run.
func BenchmarkFP32Kernels(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{512, 4608, 9}, {256, 2304, 36}, {128, 1152, 144}, {64, 576, 576}, {32, 288, 2304},
	}
	orig := KernelTier()
	defer func() { _ = SetKernelTier(orig) }()
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			b.Fatal(err)
		}
		for _, s := range shapes {
			r := rng.New(8)
			ap := PackWeights(randTensor(r, s.m, s.k)).data
			report := func(b *testing.B, cols int) {
				sec := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(2*float64(s.m*s.k*cols)/sec/1e9, "GFLOPS")
				b.ReportMetric(2*float64(s.m*s.k*s.n)/sec/1e9, "useGFLOPS")
			}
			b.Run(fmt.Sprintf("%s/stripe/m%d_k%d_n%d", tier, s.m, s.k, s.n), func(b *testing.B) {
				nr, kc := gemmNR, gemmKC
				nSliv := (s.n + nr - 1) / nr
				bp := alignedSlice[float32](nSliv * s.k * nr) // sliver s, k block k0: at (s·k + k0)·nr
				for i := range bp {
					bp[i] = r.Float32() - 0.5
				}
				ldc := nSliv * nr
				c := make([]float32, s.m*ldc)
				kern := kernF32
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for sl := 0; sl < nSliv; sl++ {
						for k0 := 0; k0 < s.k; k0 += kc {
							accum := uintptr(min(k0, 1))
							for i0 := 0; i0 < s.m; i0 += gemmMR {
								kern(&c[i0*ldc+sl*nr], ldc, &ap[i0*s.k+k0*gemmMR], &bp[(sl*s.k+k0)*nr], min(kc, s.k-k0), accum)
							}
						}
					}
				}
				report(b, nSliv*nr)
			})
			b.Run(fmt.Sprintf("%s/narrow/m%d_k%d_n%d", tier, s.m, s.k, s.n), func(b *testing.B) {
				mr := narrowMR
				if kernNarrowF32 == nil || s.m%mr != 0 {
					b.Skip("tier binds no narrow tile")
				}
				nSliv := (s.n + narrowNR - 1) / narrowNR
				panel := s.k * narrowNR
				bp := alignedSlice[float32](nSliv * panel)
				for i := range bp {
					bp[i] = r.Float32() - 0.5
				}
				c := make([]float32, mr*narrowNR)
				kern := kernNarrowF32
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for i0 := 0; i0 < s.m; i0 += mr {
						for sl := 0; sl < nSliv; sl++ {
							kern(&c[0], &ap[i0*s.k], &bp[sl*panel], s.k)
						}
					}
				}
				report(b, nSliv*narrowNR)
			})
		}
	}
}
