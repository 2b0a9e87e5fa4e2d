//go:build !amd64

package imgproc

// Off amd64 there is no avx512vnni tier, so VectorForm is never true
// and the AVX-512 forms are never called.

func mapRowAVX512(to *float64, from *uint8, n8 int, tab *[256]float64) { panic("unreachable") }

func lerpRowAVX512(out, src *float64, at0, at1 *int32, wg, wf *float64, n8 int) {
	panic("unreachable")
}

func blendRowAVX512(out *uint8, top, bot *float64, n8 int, gy, fy float64) { panic("unreachable") }
