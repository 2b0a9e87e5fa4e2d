package imgproc

import "ocularone/internal/tensor"

// The package's whole-run byte passes: the two per-pixel scans of the
// vest detector's front end — the luma range of a contrast tile and the
// box pre-filter of the colour mask — and MapBytes, the byte-table map
// under the render's tone maps and AdjustBrightness. Each has a Go form
// and an AVX-512 form (scan_amd64.s), bound by the avx512vnni kernel
// tier, and MapBytes's also by tensor.HasAVX512VBMI; the Go forms run
// everywhere else and are the oracles of the AVX-512 ones.

// The integer luma weights, in thousandths: a pixel's luma is
// (lumaR·r + lumaG·g + lumaB·b) / 1000.
const lumaR, lumaG, lumaB = 299, 587, 114

// lumaRange returns the least and the greatest integer luma
// lumaR·r + lumaG·g + lumaB·b of rows > 0 runs of n > 0 pixels, the
// runs starting stride bytes apart from pix[0].
func lumaRange(pix []uint8, stride, rows, n int, vec bool) (lo, hi int) {
	pix = pix[:(rows-1)*stride+3*n] // every byte either form reads
	if vec {
		l, h := lumaRangeAVX512(&pix[0], stride, rows, n)
		return int(l), int(h)
	}
	lo, hi = 255*(lumaR+lumaG+lumaB), 0
	for y := 0; y < rows; y++ {
		row := pix[y*stride : y*stride+3*n]
		for o := 0; o+2 < len(row); o += 3 {
			lum := int(row[o])*lumaR + int(row[o+1])*lumaG + int(row[o+2])*lumaB
			lo, hi = min(lo, lum), max(hi, lum)
		}
	}
	return lo, hi
}

// ExtremaBox is a box on a pixel's extreme channels e = (max, min,
// max − min) of (r, g, b): it holds the pixel when e[k] − Lo[k] ≤ Span[k]
// in uint32 arithmetic for every k, so a Lo[k] above 255 holds none.
// The vest detector's colour mask keeps one around every (max, min)
// pair its colour table admits, and looks up only the pixels inside.
type ExtremaBox struct{ Lo, Span [3]uint32 }

// Holds reports whether b holds the pixel (r, g, bl).
func (b *ExtremaBox) Holds(r, g, bl uint8) bool {
	mx, mn := uint32(max(r, g, bl)), uint32(min(r, g, bl))
	return mx-b.Lo[0] <= b.Span[0] && mn-b.Lo[1] <= b.Span[1] && mx-mn-b.Lo[2] <= b.Span[2]
}

// Row sets bit x%64 of out[x/64] when b holds pixel x of the packed RGB
// row, and clears it otherwise, over (n+63)/64 words for the row's n
// pixels: the bits past n are clear.
func (b *ExtremaBox) Row(out []uint64, row []uint8) {
	n := len(row) / 3
	out = out[:(n+63)>>6]
	if VectorForm() && n > 0 {
		boxRowAVX512(&out[0], &row[0], n, b)
		return
	}
	clear(out)
	for x := 0; x < n; x++ {
		if o := 3 * x; b.Holds(row[o], row[o+1], row[o+2]) {
			out[x>>6] |= 1 << (x & 63)
		}
	}
}

// MapBytes replaces every byte v of pix with lut[v].
func MapBytes(pix []uint8, lut *[256]uint8) {
	if len(pix) > 0 && VectorForm() && tensor.HasAVX512VBMI() {
		mapBytesAVX512(&pix[0], len(pix), lut)
		return
	}
	t := *lut // a copy, which the loop reads without a nil check a byte
	for i, v := range pix {
		pix[i] = t[v]
	}
}
