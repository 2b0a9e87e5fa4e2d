package imgproc

import (
	"syscall"
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// guardedPage returns a page of memory whose next page is PROT_NONE,
// unmapped when the test ends: a read or write past its last byte is a
// SIGSEGV.
func guardedPage(t *testing.T) []uint8 {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[:page]
}

// TestScanFormsAtPageEnd puts each run's last byte on the last byte
// before a PROT_NONE page and runs both scans in their AVX-512 forms:
// the masked loads may span the page end, since a masked-out byte does
// not fault, but a load that took one byte past the run is a SIGSEGV.
// The results must still equal the Go forms'.
func TestScanFormsAtPageEnd(t *testing.T) {
	if !VectorForm() {
		t.Skip("the AVX-512 forms run only on the avx512vnni tier")
	}
	mem := guardedPage(t)
	page := len(mem)
	r := rng.New(5)
	for i := range mem {
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

// TestMapBytesAtPageEnd runs MapBytes's AVX-512 form over runs of 1 to
// 200 bytes that end on the last byte before a PROT_NONE page: a tail
// step whose load or store took a byte past the run is a SIGSEGV.
func TestMapBytesAtPageEnd(t *testing.T) {
	if !VectorForm() || !tensor.HasAVX512VBMI() {
		t.Skip("MapBytes's AVX-512 form runs only on the avx512vnni tier with VBMI")
	}
	mem := guardedPage(t)
	var lut [256]uint8
	for v := range lut {
		lut[v] = uint8(255 - v)
	}
	r := rng.New(6)
	for n := 1; n <= 200; n++ {
		run := mem[len(mem)-n:]
		for i := range run {
			run[i] = uint8(r.Uint64())
		}
		want := make([]uint8, n)
		for i, v := range run {
			want[i] = lut[v]
		}
		MapBytes(run, &lut)
		for i := range run {
			if run[i] != want[i] {
				t.Fatalf("n=%d: byte %d = %d, table %d", n, i, run[i], want[i])
			}
		}
	}
}
