package detect

import (
	"math"
	"math/bits"
	"slices"

	"ocularone/internal/imgproc"
)

// window is one cluster's acceptance box in HSV: its centre and the
// effective half-width on each axis, fixed for a whole frame.
type window struct {
	h, s, v    float64
	dh, ds, dv float64
}

// admitsSV reports whether the window's saturation and value ranges
// hold (s, v).
func (c window) admitsSV(s, v float64) bool {
	return math.Abs(s-c.s) <= c.ds && math.Abs(v-c.v) <= c.dv
}

// admitsHue reports whether the window's hue range, which wraps at 360,
// holds h.
func (c window) admitsHue(h float64) bool {
	dh := math.Abs(h - c.h)
	if dh > 180 {
		dh = 360 - dh
	}
	return dh <= c.dh
}

// colourTable answers the saturation and value half of every cluster's
// window for a pixel's (max, min) channel pair, which is all SatVal
// reads: bits[max(max+1)/2 + min] has bit k set when window k admits
// that pair (k < 7; bit 7 stands for any window from the eighth on).
// Only pairs with min ≤ max occur, so the table is that triangle, one
// row per max: 32,896 bytes, which stay in L1. It is built with
// SatVal and admitsSV, so it decides exactly as the per-pixel tests
// would, and rebuilt only when a frame's windows differ from the ones
// it holds. box is the least ExtremaBox holding every pair whose entry
// is non-zero, so a pixel outside it has entry 0: the vector form of
// matchMask looks up only the pixels inside.
type colourTable struct {
	windows, built []window
	bits           *[triangle]uint8
	box            imgproc.ExtremaBox
}

// triangle is the number of (max, min) pairs with min ≤ max.
const triangle = 256 * 257 / 2

// entry returns the table entry of the pixel (r, g, b).
func (t *colourTable) entry(r, g, b uint8) uint8 {
	mx := int(max(r, g, b))
	return t.bits[mx*(mx+1)>>1+int(min(r, g, b))]
}

// overflowBit is the table bit of the windows past the seventh.
const overflowBit = 7

// build sets t.windows to d's windows for this frame and makes the
// table and its box answer for them; it returns t.
func (t *colourTable) build(d *Detector) *colourTable {
	t.windows = t.windows[:0]
	for _, c := range d.Clusters {
		mh, ms, mv := c.effMargins(d.Tier)
		t.windows = append(t.windows, window{
			h: c.meanH, s: c.meanS, v: c.meanV,
			dh: mh * c.stdH, ds: ms * c.stdS, dv: mv * c.stdV,
		})
	}
	if t.bits != nil && slices.Equal(t.windows, t.built) {
		return t
	}
	if t.bits == nil {
		t.bits = new([triangle]uint8)
	}
	// The box's ends on (max, min, max − min); lo past 255 when no
	// entry is set, which holds nothing.
	lo, hi := [3]int{256, 256, 256}, [3]int{}
	i := 0
	for mx := 0; mx < 256; mx++ {
		for mn := 0; mn <= mx; mn++ {
			s, v := imgproc.SatVal(uint8(mx), uint8(mn), uint8(mn))
			var b uint8
			for k, c := range t.windows {
				if c.admitsSV(s, v) {
					b |= 1 << min(k, overflowBit)
				}
			}
			t.bits[i] = b
			i++
			if b != 0 {
				for k, e := range [3]int{mx, mn, mx - mn} {
					lo[k], hi[k] = min(lo[k], e), max(hi[k], e)
				}
			}
		}
	}
	for k := range lo {
		t.box.Lo[k], t.box.Span[k] = uint32(lo[k]), uint32(max(hi[k]-lo[k], 0))
	}
	t.built = append(t.built[:0], t.windows...)
	return t
}

// hueHit reports whether the pixel's hue lies in the hue range of a
// window whose bit is set in b, the pixel's table entry.
func (t *colourTable) hueHit(b, r, g, bl uint8) bool {
	h := imgproc.Hue(r, g, bl)
	for ; b != 0; b &= b - 1 {
		k := bits.TrailingZeros8(b)
		if k == overflowBit {
			s, v := imgproc.SatVal(r, g, bl)
			for _, c := range t.windows[overflowBit:] {
				if c.admitsSV(s, v) && c.admitsHue(h) {
					return true
				}
			}
			return false
		}
		if t.windows[k].admitsHue(h) {
			return true
		}
	}
	return false
}

// match returns the mask word of the pixels of seg, at most 64, whose
// bits are set in in: bit j is set when some cluster's window admits
// pixel j.
func (t *colourTable) match(seg []uint8, in uint64) uint64 {
	var word uint64
	for ; in != 0; in &= in - 1 {
		o := 3 * bits.TrailingZeros64(in)
		r, g, b := seg[o], seg[o+1], seg[o+2]
		if e := t.entry(r, g, b); e != 0 && t.hueHit(e, r, g, b) {
			word |= in & -in
		}
	}
	return word
}

// Masks are bit-packed: a w-cell row is rowWords(w) words, cell x bit
// x%64 of word x/64, and the bits past w are always clear.

// rowWords is the number of words a packed row of w cells takes.
func rowWords(w int) int { return (w + 63) >> 6 }

// dilate writes into dst the mask grown by r cells (Chebyshev ball).
func dilate(dst, mask []uint64, w, h, r int) {
	copy(dst, mask)
	spread(dst, w, h, r, false)
}

// erode writes into dst the mask shrunk by r cells (Chebyshev ball);
// cells outside the image count as unset.
func erode(dst, mask []uint64, w, h, r int) {
	copy(dst, mask)
	spread(dst, w, h, r, true)
}

// spread replaces every cell of the w×h packed mask a with the OR (the
// AND when erode is set) of the cells within r of it on both axes,
// cells off the image unset: a square is the composition of its
// horizontal and vertical segments. Each segment is built by doubling:
// a span of n cells combined with itself k ≤ n cells along is a span of
// n+k cells.
func spread(a []uint64, w, h, r int, erode bool) {
	wpr := rowWords(w)
	for y := 0; y < h; y++ {
		spreadRow(a[y*wpr:(y+1)*wpr], r, erode)
		// Cells pushed past the row's end fed only cells within r of
		// where they came from; they must not outlive the pass.
		if w&63 != 0 {
			a[(y+1)*wpr-1] &= 1<<(w&63) - 1
		}
	}
	for n := 1; n <= r; {
		k := min(n, r+1-n)
		// Row y takes row y-k from the bottom up and then row y+k from
		// the top down, so each reads a row the same step has not yet
		// rewritten; n stays the span both ways.
		for y := h - 1; y >= 0; y-- {
			combineRow(a[y*wpr:(y+1)*wpr], a, (y-k)*wpr, erode)
		}
		for y := 0; y < h; y++ {
			combineRow(a[y*wpr:(y+1)*wpr], a, (y+k)*wpr, erode)
		}
		n += k
	}
}

// combineRow ORs (ANDs) into row the packed row of a starting at word
// off, which is off the image, and so unset, outside [0, len(a)).
func combineRow(row, a []uint64, off int, erode bool) {
	switch {
	case off >= 0 && off < len(a):
		for i, v := range a[off : off+len(row)] {
			row[i] = combine(row[i], v, erode)
		}
	case erode:
		clear(row)
	}
}

// spreadRow is spread's horizontal pass over one packed row, the same
// doubling with cells for rows: the step that takes x-k runs from the
// high word down, the one that takes x+k from the low word up.
func spreadRow(a []uint64, r int, erode bool) {
	for n := 1; n <= r; {
		k := min(n, r+1-n)
		for i := len(a) - 1; i >= 0; i-- {
			a[i] = combine(a[i], shiftedWord(a, i, -k), erode)
		}
		for i := range a {
			a[i] = combine(a[i], shiftedWord(a, i, k), erode)
		}
		n += k
	}
}

func combine(a, b uint64, and bool) uint64 {
	if and {
		return a & b
	}
	return a | b
}

// shiftedWord returns word i of the packed row a read k cells along:
// its cell x is a's cell x+k, unset off the row.
func shiftedWord(a []uint64, i, k int) uint64 {
	j, b := i+k>>6, uint(k&63) // cell 64i+p is bit p+b of word j, or bit p+b-64 of j+1
	var v uint64
	if j >= 0 && j < len(a) {
		v = a[j] >> b
	}
	if j+1 >= 0 && j+1 < len(a) {
		v |= a[j+1] << (64 - b)
	}
	return v
}

// component is a connected region of matched pixels.
type component struct {
	rect imgproc.Rect
	area int
}

// run is a maximal horizontal stretch [x0, x1) of set cells on row y,
// a node of the union-find that labels components.
type run struct {
	y, x0, x1     int
	parent, label int
}

// find returns the root of run i's set, halving the path on the way.
func find(runs []run, i int) int {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
}

// components extracts the 4-connected regions of a w×h packed mask, in
// the raster order of their first pixel. Runs that overlap a run of the
// row above join its set; a set's root is its lowest-numbered run, which
// is its first in raster order. The result is valid until s is reused.
func (s *scratch) components(mask []uint64, w, h int) []component {
	wpr := rowWords(w)
	runs := s.runs[:0]
	above := 0 // first run of the row above
	for y := 0; y < h; y++ {
		row := mask[y*wpr : (y+1)*wpr]
		first, j := len(runs), above
		for x := nextCell(row, 0, 0); x < w; x = nextCell(row, x, 0) {
			end := nextCell(row, x, ^uint64(0))
			i := len(runs)
			runs = append(runs, run{y: y, x0: x, x1: end, parent: i})
			for j < first && runs[j].x1 <= x {
				j++
			}
			for k := j; k < first && runs[k].x0 < end; k++ {
				if a, b := find(runs, k), find(runs, i); a != b {
					runs[max(a, b)].parent = min(a, b)
				}
			}
			x = end
		}
		above = first
	}
	out := s.comps[:0]
	for i := range runs {
		rn := &runs[i]
		root := find(runs, i)
		if root == i {
			rn.label = len(out)
			out = append(out, component{rect: imgproc.Rect{X0: w, Y0: h}})
		}
		c := &out[runs[root].label]
		c.area += rn.x1 - rn.x0
		c.rect.X0, c.rect.X1 = min(c.rect.X0, rn.x0), max(c.rect.X1, rn.x1)
		c.rect.Y0, c.rect.Y1 = min(c.rect.Y0, rn.y), max(c.rect.Y1, rn.y+1)
	}
	s.runs, s.comps = runs, out
	return out
}

// nextCell returns the first cell at or after x of the packed row whose
// bit differs from the bits of flip (0: the next set cell; all ones: the
// next clear one), or len(row)·64 when there is none.
func nextCell(row []uint64, x int, flip uint64) int {
	i := x >> 6
	if i >= len(row) {
		return len(row) << 6
	}
	v := (row[i] ^ flip) >> uint(x&63) << uint(x&63)
	for v == 0 {
		if i++; i == len(row) {
			return i << 6
		}
		v = row[i] ^ flip
	}
	return i<<6 + bits.TrailingZeros64(v)
}
