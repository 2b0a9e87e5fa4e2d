//go:build amd64

package imgproc

// AVX-512 forms of the two per-pixel scans of the vest detector's front
// end (scan_amd64.s), bound with the avx512vnni tier (VectorForm), whose
// check includes the F and BW instructions they use. Both read a run of
// pixels sixteen at a time: a 48-byte masked load, VPERMD to give each
// 128-bit lane the twelve bytes of four pixels, VPSHUFB to spread each
// pixel over one dword lane. The load's mask stops at the run's last
// byte, and a lane past it leaves no trace in the result, so neither
// form reads a byte the Go form does not.

// lumaRangeAVX512 implements lumaRange for rows > 0 and n > 0: VPMADDWD
// forms 299r + 587g and 114b in two dwords per pixel and VPADDD sums
// them, the Go form's integer luma exactly; VPMINSD and VPMAXSD keep
// each lane's ends, and the lanes are reduced once at the end, so the
// result is the least and greatest of the same integers.
//
//go:noescape
func lumaRangeAVX512(pix *uint8, stride, rows, n int) (lo, hi int32)

// boxRowAVX512 implements ExtremaBox.Row for n > 0 pixels: VPMAXUB and
// VPMINUB over a pixel's dword and its copies shifted down one and two
// bytes give its max and min channel in the low byte, and three
// VPSUBD / VPCMPUD pairs make Holds's three unsigned range tests. Each
// block's 16-bit mask enters the word from the top, so after four
// blocks block 0's bits are bits 0..15; a last partial word is shifted
// down by the blocks it lacks, leaving the bits past n clear.
//
//go:noescape
func boxRowAVX512(out *uint64, pix *uint8, n int, b *ExtremaBox)

// mapBytesAVX512 implements MapBytes for n > 0 bytes, 64 a step: two
// VPERMI2B look each byte up in the table's low and high halves (an
// index's low seven bits select one of two quarters' 128 bytes),
// VPMOVB2M takes bit 7 of the index and one masked blend picks the
// half. The last n%64 bytes are one step under a load and store mask,
// so no byte past pix[n-1] is read or written. VPERMI2B is AVX-512
// VBMI, which the tier's check does not cover: MapBytes also asks
// tensor.HasAVX512VBMI.
//
//go:noescape
func mapBytesAVX512(pix *uint8, n int, lut *[256]uint8)

// scanConsts holds the kernels' constants in the order scan_amd64.s
// indexes them, built from the luma weights and the pixel layout.
var scanConsts = func() (c struct {
	spread  [16]uint32 // VPERMD: lane k takes dwords 3k, 3k+1, 3k+2
	rgb     [16]uint8  // VPSHUFB: dword j = (r, g, b, 0) of pixel j
	rg      [16]uint8  // VPSHUFB: words (r, g) of pixel j
	blue    [16]uint8  // VPSHUFB: words (b, 0) of pixel j
	wrg, wb [2]int16   // VPMADDWD weights of (r, g) and (b, 0)
	lumaTop int32      // the greatest luma: lumaRange's starting lo
}) {
	for k := 0; k < 4; k++ {
		for i := 0; i < 3; i++ {
			c.spread[4*k+i] = uint32(3*k + i)
		}
	}
	const zero = 0x80 // a VPSHUFB index with the top bit set writes 0
	for j := uint8(0); j < 4; j++ {
		c.rgb[4*j], c.rgb[4*j+1], c.rgb[4*j+2], c.rgb[4*j+3] = 3*j, 3*j+1, 3*j+2, zero
		c.rg[4*j], c.rg[4*j+1], c.rg[4*j+2], c.rg[4*j+3] = 3*j, zero, 3*j+1, zero
		c.blue[4*j], c.blue[4*j+1], c.blue[4*j+2], c.blue[4*j+3] = 3*j+2, zero, zero, zero
	}
	c.wrg, c.wb = [2]int16{lumaR, lumaG}, [2]int16{lumaB, 0}
	c.lumaTop = 255 * (lumaR + lumaG + lumaB)
	return c
}()
