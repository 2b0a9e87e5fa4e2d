package tensor

import (
	"syscall"
	"testing"
	"unsafe"

	"ocularone/internal/rng"
)

// TestNarrowKernelAtPageEnd pins the difference between the narrow
// tile's prefetches and its loads: the 8×k PackedA panel pair ends on
// the last byte before a PROT_NONE page, so the kernel's prefetches
// (narrowPF bytes ahead, at these depths always past the operand) fall
// into unmapped memory and are dropped, while a load one element too far
// is a SIGSEGV. Depths cover every k % 4, the unrolled turn's tail. The
// operands are small integers, so every product and sum is exact and the
// plain triple loop is the oracle at ==.
func TestNarrowKernelAtPageEnd(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	const bytesPerK = narrowMR * 4
	forEachTier(t, func(t *testing.T, tier string) {
		skipWithoutNarrowTile(t)
		r := rng.New(77)
		small := func() float32 { return float32(int(r.Uint64()%17) - 8) }
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 64, page / bytesPerK} {
			a := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page-k*bytesPerK])), narrowMR*k)
			b := make([]float32, k*narrowNR)
			for i := range a {
				a[i] = small()
			}
			for i := range b {
				b[i] = small()
			}
			c := make([]float32, narrowMR*narrowNR)
			kernNarrowF32(&c[0], &a[0], &b[0], k)
			for j := 0; j < narrowNR; j++ {
				for row := 0; row < narrowMR; row++ {
					var want float32
					for kk := 0; kk < k; kk++ {
						want += a[row/gemmMR*k*gemmMR+kk*gemmMR+row%gemmMR] * b[kk*narrowNR+j]
					}
					if got := c[j*narrowMR+row]; got != want {
						t.Fatalf("k=%d: C[%d,%d] = %v, want %v", k, row, j, got, want)
					}
				}
			}
		}
	})
}
