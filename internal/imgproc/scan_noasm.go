//go:build !amd64

package imgproc

// Off amd64 there is no avx512vnni tier, so VectorForm is never true
// and the AVX-512 forms are never called.

func lumaRangeAVX512(pix *uint8, stride, rows, n int) (lo, hi int32) { panic("unreachable") }

func boxRowAVX512(out *uint64, pix *uint8, n int, b *ExtremaBox) { panic("unreachable") }

func mapBytesAVX512(pix *uint8, n int, lut *[256]uint8) { panic("unreachable") }
