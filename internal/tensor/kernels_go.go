package tensor

import "unsafe"

// Pure-Go micro-kernels — the "generic" dispatch tier, and the only
// tier on non-amd64 platforms. They replay the exact per-element op
// chains of the SSE2 assembly kernels (one multiply and one add per k
// step, ascending k), so generic-tier packed results stay
// bit-identical to the reference kernel on every architecture.

// sliceFrom rebuilds a length-n slice over the packed-panel pointer
// arguments the micro-kernel contract passes.
func sliceFrom[T any](p *T, n int) []T {
	return unsafe.Slice(p, n)
}

// gemm4x8Go accumulates a 4×8 fp32 tile of C from packed panels; see
// gemmKernelF32 for the contract.
func gemm4x8Go(c *float32, ldc int, a, b *float32, kc int, accum uintptr) {
	const nr = 8
	cs := sliceFrom(c, 3*ldc+nr)
	as := sliceFrom(a, kc*gemmMR)
	bs := sliceFrom(b, kc*nr)
	var acc [gemmMR * nr]float32
	if accum != 0 {
		for r := 0; r < gemmMR; r++ {
			copy(acc[r*nr:(r+1)*nr], cs[r*ldc:r*ldc+nr])
		}
	}
	for kk := 0; kk < kc; kk++ {
		ak := as[kk*gemmMR : kk*gemmMR+gemmMR]
		bk := bs[kk*nr : kk*nr+nr]
		for r := 0; r < gemmMR; r++ {
			av := ak[r]
			ar := acc[r*nr : (r+1)*nr]
			for j, bv := range bk {
				ar[j] += av * bv
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		copy(cs[r*ldc:r*ldc+nr], acc[r*nr:(r+1)*nr])
	}
}

// gemmQ4x8Go computes a 4×8 int32 tile from int8 pair-interleaved
// panels; see gemmKernelQ for the contract.
func gemmQ4x8Go(acc *int32, a unsafe.Pointer, b *int8, k2 int) {
	const nr = 8
	accs := sliceFrom(acc, 4*nr)
	as := sliceFrom((*int16)(a), k2*8)
	bs := sliceFrom(b, k2*2*nr)
	for i := range accs[:4*nr] {
		accs[i] = 0
	}
	for kk := 0; kk < k2; kk++ {
		ap := as[kk*8 : kk*8+8]
		bp := bs[kk*2*nr : kk*2*nr+2*nr]
		for r := 0; r < 4; r++ {
			a0 := int32(ap[r*2])
			a1 := int32(ap[r*2+1])
			ar := accs[r*nr : (r+1)*nr]
			for j := 0; j < nr; j++ {
				ar[j] += a0*int32(bp[j*2]) + a1*int32(bp[j*2+1])
			}
		}
	}
}
