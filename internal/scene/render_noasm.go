//go:build !amd64

package scene

import "unsafe"

// Off amd64 there is no avx512vnni tier, so imgproc.VectorForm is never
// true and the noise kernel is never called; the ground row's AVX-512
// name runs its Go form.

func noiseAVX512(pix *uint8, n int, base uint64) { panic("unreachable") }

func groundRowAVX512(dst *uint8, n8 int, base uint64, haze float64, tab *groundTab) {
	groundRow(unsafe.Slice(dst, 24*n8), base, haze, tab, false)
}
