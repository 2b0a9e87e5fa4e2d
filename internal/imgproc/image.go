package imgproc

import (
	"fmt"

	"ocularone/internal/parallel"
)

// Image is an 8-bit RGB image. Pix holds W*H*3 bytes, row-major, with
// channels interleaved (R, G, B).
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a black image of the given dimensions.
func NewImage(w, h int) *Image {
	return new(Image).Reshape(w, h)
}

// Reshape makes im a w×h image, reusing its pixel buffer when that is
// large enough, and returns it. The pixels are unspecified: it is for
// a pooled image about to be overwritten whole.
func (im *Image) Reshape(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image dims %dx%d", w, h))
	}
	im.W, im.H, im.Pix = w, h, grow(im.Pix, w*h*3)
	return im
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	c := &Image{W: im.W, H: im.H, Pix: make([]uint8, len(im.Pix))}
	copy(c.Pix, im.Pix)
	return c
}

// At returns the RGB triple at (x, y). Out-of-bounds coordinates are
// clamped to the border, the convention every filter in this package uses.
func (im *Image) At(x, y int) (r, g, b uint8) {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	o := (y*im.W + x) * 3
	return im.Pix[o], im.Pix[o+1], im.Pix[o+2]
}

// Set writes the RGB triple at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, r, g, b uint8) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	o := (y*im.W + x) * 3
	im.Pix[o], im.Pix[o+1], im.Pix[o+2] = r, g, b
}

// Fill paints the whole image with one colour.
func (im *Image) Fill(r, g, b uint8) {
	for i := 0; i < len(im.Pix); i += 3 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
	}
}

// Rect is an axis-aligned box in pixel coordinates; Max is exclusive.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width (0 if degenerate).
func (r Rect) W() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (0 if degenerate).
func (r Rect) H() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the rectangle area in pixels.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle has no interior.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{min(r.X0, o.X0), min(r.Y0, o.Y0), max(r.X1, o.X1), max(r.Y1, o.Y1)}
}

// IoU returns intersection-over-union of two rectangles, the detection
// matching criterion used throughout the benchmark (threshold 0.7 during
// training, 0.5 at evaluation, matching the paper's Ultralytics defaults).
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	return float64(inter) / float64(union)
}

// Clamp restricts the rectangle to the image bounds w×h.
func (r Rect) Clamp(w, h int) Rect {
	return r.Intersect(Rect{0, 0, w, h})
}

// Center returns the rectangle's centre point.
func (r Rect) Center() (float64, float64) {
	return float64(r.X0+r.X1) / 2, float64(r.Y0+r.Y1) / 2
}

// FillRect paints a solid rectangle, clipped to the image.
func (im *Image) FillRect(r Rect, cr, cg, cb uint8) {
	r = r.Clamp(im.W, im.H)
	for y := r.Y0; y < r.Y1; y++ {
		o := (y*im.W + r.X0) * 3
		for x := r.X0; x < r.X1; x++ {
			im.Pix[o], im.Pix[o+1], im.Pix[o+2] = cr, cg, cb
			o += 3
		}
	}
}

// FillEllipse paints a solid axis-aligned ellipse inscribed in r.
func (im *Image) FillEllipse(r Rect, cr, cg, cb uint8) {
	cx, cy := r.Center()
	rx := float64(r.W()) / 2
	ry := float64(r.H()) / 2
	if rx <= 0 || ry <= 0 {
		return
	}
	cl := r.Clamp(im.W, im.H)
	for y := cl.Y0; y < cl.Y1; y++ {
		dy := (float64(y) + 0.5 - cy) / ry
		for x := cl.X0; x < cl.X1; x++ {
			dx := (float64(x) + 0.5 - cx) / rx
			if dx*dx+dy*dy <= 1 {
				o := (y*im.W + x) * 3
				im.Pix[o], im.Pix[o+1], im.Pix[o+2] = cr, cg, cb
			}
		}
	}
}

// DrawLine draws a 1-pixel line from (x0,y0) to (x1,y1) (Bresenham).
func (im *Image) DrawLine(x0, y0, x1, y1 int, cr, cg, cb uint8) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		im.Set(x0, y0, cr, cg, cb)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Mean returns the per-channel mean intensity (0-255 scale).
func (im *Image) Mean() (r, g, b float64) {
	var sr, sg, sb int64
	for i := 0; i < len(im.Pix); i += 3 {
		sr += int64(im.Pix[i])
		sg += int64(im.Pix[i+1])
		sb += int64(im.Pix[i+2])
	}
	n := float64(im.W * im.H)
	return float64(sr) / n, float64(sg) / n, float64(sb) / n
}

// Luma returns the mean luminance using the Rec.601 weights.
func (im *Image) Luma() float64 {
	r, g, b := im.Mean()
	return 0.299*r + 0.587*g + 0.114*b
}

// subImageInto copies the region src∩r into dst (pre-sized r.W()×r.H()).
func subImageInto(dst, src *Image, r Rect) {
	parallel.For(r.H(), func(row int) {
		sy := r.Y0 + row
		for x := 0; x < r.W(); x++ {
			cr, cg, cb := src.At(r.X0+x, sy)
			o := (row*dst.W + x) * 3
			dst.Pix[o], dst.Pix[o+1], dst.Pix[o+2] = cr, cg, cb
		}
	})
}

// Crop returns a copy of the given region (clamped reads at the border).
func Crop(src *Image, r Rect) *Image {
	if r.Empty() {
		panic("imgproc: Crop with empty rect")
	}
	dst := NewImage(r.W(), r.H())
	subImageInto(dst, src, r)
	return dst
}
