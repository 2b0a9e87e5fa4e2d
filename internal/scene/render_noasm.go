//go:build !amd64

package scene

import "unsafe"

// Off amd64 there is no avx512vnni tier, so vectorForm is never true;
// the AVX-512 names run the Go forms.

func noiseBlockAVX512(z *[64]uint64, base uint64) uint64 { return noiseBlockGo(z, base) }

func groundRowAVX512(dst *uint8, n8 int, base uint64, haze float64, tab *groundTab) {
	groundRow(unsafe.Slice(dst, 24*n8), base, haze, tab, false)
}
