package tensor

import (
	"syscall"
	"testing"
	"unsafe"

	"ocularone/internal/rng"
)

// pageBeforeFault maps one writable page followed by a PROT_NONE one:
// mem[:page] is usable and the byte after it faults.
func pageBeforeFault(t *testing.T) (mem []byte, page int) {
	return bytesBeforeFault(t, 1)
}

// bytesBeforeFault is pageBeforeFault with room for size bytes: mem[:end]
// is usable — end is size rounded up to whole pages — and the byte after
// it faults.
func bytesBeforeFault(t *testing.T, size int) (mem []byte, end int) {
	page := syscall.Getpagesize()
	end = (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, end+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[end:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem, end
}

// TestNarrowKernelAtPageEnd pins the difference between the narrow
// tile's prefetches and its loads: the narrowMR×k PackedA panel block —
// at the tier's row count, 8 or 16 — ends on the last byte before a
// PROT_NONE page, so the kernel's prefetches (narrowPF bytes ahead, at
// these depths always past the operand) fall into unmapped memory and
// are dropped, while a load one element too far is a SIGSEGV. Depths
// cover every k % 4, the unrolled turn's tail. The operands are small
// integers, so every product and sum is exact and the plain triple loop
// is the oracle at ==.
func TestNarrowKernelAtPageEnd(t *testing.T) {
	mem, page := pageBeforeFault(t)
	forEachTier(t, func(t *testing.T, tier string) {
		skipWithoutNarrowTile(t)
		bytesPerK := narrowMR * 4
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

// TestStripeKernelAtPageEnd is the stripe tile's twin of the narrow
// tile's page-end test: the 4×k A panel, the k×NR B panel and C's last
// row each end on the last byte before a PROT_NONE page of their own, so
// a load or store one element — or one k step — past its operand is a
// SIGSEGV. C's rows sit ldc = NR+3 floats apart; the floats between them
// must come back as they were. Both accum modes, depths around every
// tier's kc and the unrolled turns. Small-integer operands make every
// product and sum exact: the plain triple loop is the oracle at ==.
func TestStripeKernelAtPageEnd(t *testing.T) {
	const kMax, ldcMax = 193, gemmNRMax + 3
	aMem, aEnd := bytesBeforeFault(t, 4*gemmMR*kMax)
	bMem, bEnd := bytesBeforeFault(t, 4*kMax*gemmNRMax)
	cMem, cEnd := bytesBeforeFault(t, 4*gemmMR*ldcMax)
	floats := func(mem []byte, end, n int) []float32 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&mem[end-4*n])), n)
	}
	forEachTier(t, func(t *testing.T, tier string) {
		r := rng.New(78)
		small := func() float32 { return float32(int(r.Uint64()%17) - 8) }
		nr := gemmNR
		ldc := nr + 3
		for _, k := range []int{1, 2, 3, 4, 5, 127, 128, 129, 192, kMax} {
			a, b := floats(aMem, aEnd, gemmMR*k), floats(bMem, bEnd, k*nr)
			c := floats(cMem, cEnd, (gemmMR-1)*ldc+nr)
			for i := range a {
				a[i] = small()
			}
			for i := range b {
				b[i] = small()
			}
			for accum := uintptr(0); accum <= 1; accum++ {
				for i := range c {
					c[i] = small()
				}
				want := append([]float32(nil), c...)
				for row := 0; row < gemmMR; row++ {
					for j := 0; j < nr; j++ {
						var sum float32
						if accum == 1 {
							sum = want[row*ldc+j]
						}
						for kk := 0; kk < k; kk++ {
							sum += a[kk*gemmMR+row] * b[kk*nr+j]
						}
						want[row*ldc+j] = sum
					}
				}
				kernF32(&c[0], ldc, &a[0], &b[0], k, accum)
				for i := range c {
					if c[i] != want[i] {
						t.Fatalf("k=%d accum=%d: C float %d (row %d col %d) = %v, want %v", k, accum, i, i/ldc, i%ldc, c[i], want[i])
					}
				}
			}
		}
	})
}

// TestGatherRowsAtPageEnd holds the gather kernel to "exactly cnt dwords
// read and written": the source run of every length 1 … 40 (every
// cnt % 8, through several vector turns) ends, at stride 1 and 2, on the
// last dword before a PROT_NONE page — where the unbordered view of
// x.Data a 1×1 s2 shortcut gathers from may end — and so does the panel
// row it is stored to; a load or store one dword too far is a SIGSEGV. The
// second of two rows is the one at the edge, so the tap walk is under
// the same test. (It bites: with cnt + 1 in the segment the first case
// faults in the kernel's load.)
func TestGatherRowsAtPageEnd(t *testing.T) {
	srcMem, page := pageBeforeFault(t)
	dstMem, _ := pageBeforeFault(t)
	words := func(mem []byte, n int) []uint32 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[page-4*n])), n)
	}
	forEachTier(t, func(t *testing.T, tier string) {
		if kernRows == nil {
			t.Skip("tier binds no row kernels")
		}
		const rowGap = 3 // the second tap's offset
		for _, sw := range []int{1, 2} {
			for cnt := 1; cnt <= 40; cnt++ {
				src := words(srcMem, rowGap+(cnt-1)*sw+1)
				for i := range src {
					src[i] = 0x01010101 * uint32(i+1)
				}
				dst := words(dstMem, 2*cnt)
				clear(dst)
				taps := []int32{0, rowGap}
				segs := []panelSeg{{off: 0, cnt: int32(cnt), pos: 0}}
				want := make([]uint32, len(dst))
				gatherRowsRef(want, cnt, src, taps, 0, 0, 2, segs, sw)
				kernRows.gather(unsafe.Pointer(&dst[0]), cnt, unsafe.Pointer(&src[0]), &taps[0], len(taps), 0, 0, 2, &segs[0], 1, sw)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("stride %d cnt %d: panel dword %d = %#x, want %#x", sw, cnt, i, dst[i], want[i])
					}
				}
			}
		}
	})
}
