package scene

import (
	"bytes"
	"syscall"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// TestNoiseAtPageEnd runs noiseAVX512 over frames of 1 to 300 bytes
// that end on the last byte before a PROT_NONE page: a block whose load
// or store took a byte past the frame is a SIGSEGV. Each frame must
// equal noiseWalk's.
func TestNoiseAtPageEnd(t *testing.T) {
	if !imgproc.VectorForm() || !tensor.HasAVX512VBMI() {
		t.Skip("the noise kernel runs only on the avx512vnni tier with VBMI2")
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
	for n := 1; n <= 300; n++ {
		pix := mem[page-n : page]
		for i := range pix {
			pix[i] = uint8(i * 37)
		}
		want := bytes.Clone(pix)
		noiseWalk(want, rng.New(uint64(n)))
		noiseAVX512(&pix[0], n, rng.New(uint64(n)).Skip(0))
		if !bytes.Equal(pix, want) {
			t.Fatalf("%d bytes: the kernel's frame differs from noiseWalk's", n)
		}
	}
}
