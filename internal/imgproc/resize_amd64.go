//go:build amd64

package imgproc

// AVX-512 forms of ResizeLUTInto's three loops (resize_amd64.s), bound
// with the avx512vnni tier (VectorForm), whose check includes the F, DQ
// and VL instructions they use. Each covers n8 > 0 blocks of eight
// values; the Go forms they implement are beside ResizeLUTInto.

// mapRowAVX512 implements mapRow: VPMOVZXBD widens eight bytes to
// indices, VGATHERDPD reads their table entries.
//
//go:noescape
func mapRowAVX512(to *float64, from *uint8, n8 int, tab *[256]float64)

// lerpRowAVX512 implements lerpRow: two VGATHERDPDs read the taps, then
// VMULPD, VMULPD, VADDPD (no FMA: the Go form rounds the products).
//
//go:noescape
func lerpRowAVX512(out, src *float64, at0, at1 *int32, wg, wf *float64, n8 int)

// blendRowAVX512 implements blendRow: VMULPD, VMULPD, VADDPD, then
// clampU8 as max(·, 0), min(·, 255), +0.5 and VCVTTPD2DQ, which is what
// its two branches and uint8(v+0.5) come to on every value the blend
// can produce (no NaN reaches it).
//
//go:noescape
func blendRowAVX512(out *uint8, top, bot *float64, n8 int, gy, fy float64)

// resizeConsts holds blendRowAVX512's constants in the order
// resize_amd64.s indexes them.
var resizeConsts = [2]float64{0.5, 255}
