package imgproc

import (
	"syscall"
	"testing"

	"ocularone/internal/rng"
)

// TestScanFormsAtPageEnd puts each run's last byte on the last byte
// before a PROT_NONE page and runs both scans in their AVX-512 forms:
// the masked loads may span the page end, since a masked-out byte does
// not fault, but a load that took one byte past the run is a SIGSEGV.
// The results must still equal the Go forms'.
func TestScanFormsAtPageEnd(t *testing.T) {
	if !VectorForm() {
		t.Skip("the AVX-512 forms run only on the avx512vnni tier")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	r := rng.New(5)
	for i := range mem[:page] {
		mem[i] = uint8(r.Uint64())
	}
	b := &ExtremaBox{Lo: [3]uint32{40, 20, 10}, Span: [3]uint32{150, 100, 120}}
	for n := 1; n <= 200; n++ {
		row := mem[page-3*n : page]
		got, want := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
		b.Row(got, row)
		inGoForm(t, func() { b.Row(want, row) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ExtremaBox.Row n=%d: word %d = %#x, Go form %#x", n, i, got[i], want[i])
			}
		}
		glo, ghi := lumaRange(row, 3*n, 1, n, true)
		wlo, whi := lumaRange(row, 3*n, 1, n, false)
		if glo != wlo || ghi != whi {
			t.Fatalf("lumaRange n=%d: (%d, %d), Go form (%d, %d)", n, glo, ghi, wlo, whi)
		}
	}
}
