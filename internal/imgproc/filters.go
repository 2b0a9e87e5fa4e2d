package imgproc

import (
	"fmt"
	"math"
	"sync"

	"ocularone/internal/parallel"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// VectorForm reports whether the package's kernels — the resampling
// kernel's three loops and the two scans — run their AVX-512 forms:
// bound by the kernel tier, as the tensor row kernels and the render's
// random streams are, so OCULARONE_KERNEL_TIER and
// tensor.SetKernelTier select the Go forms with every other tier. The
// vest detector reads it to pick its colour mask's form.
func VectorForm() bool { return tensor.KernelTier() == tensor.TierAVX512VNNI }

// Resize scales src to w×h with bilinear interpolation.
func Resize(src *Image, w, h int) *Image {
	dst := NewImage(w, h)
	ResizeInto(dst, src)
	return dst
}

// ResizeInto scales src to dst's dimensions with bilinear
// interpolation, overwriting every pixel of dst.
func ResizeInto(dst, src *Image) { ResizeLUTInto(dst, src, &identityLUT) }

// TileLUT maps each byte of a source image through a 256-entry table
// chosen by the tile the pixel lies in: the tables LocalContrastNormalize
// applies, or one identity table. ResizeLUTInto reads its source through
// one, so a contrast-normalised downscale never stores the normalised
// full-resolution image.
type TileLUT struct {
	tile, tilesX int
	bytes        [][256]uint8
	vals         [][256]float64 // vals[t][v] == float64(bytes[t][v])
}

// identityLUT is one tile wider and taller than any image, mapping every
// byte to itself. Shared and never written after init.
var identityLUT = func() (m TileLUT) {
	m.tile, m.tilesX = 1<<30, 1
	m.bytes, m.vals = make([][256]uint8, 1), make([][256]float64, 1)
	for v := 0; v < 256; v++ {
		m.bytes[0][v], m.vals[0][v] = uint8(v), float64(v)
	}
	return m
}()

// IdentityLUT returns the shared identity mapping; it must not be
// rebuilt with Contrast.
func IdentityLUT() *TileLUT { return &identityLUT }

// Contrast makes m the per-tile tables of LocalContrastNormalize(src,
// tile) and returns it. A tile's rescale is one monotone function of the
// byte value: span = (max − min) of the tile's luma, identity when span
// < 8, else clampU8((v − min)·255/span).
func (m *TileLUT) Contrast(src *Image, tile int) *TileLUT {
	if tile <= 0 {
		tile = 64
	}
	tilesX := (src.W + tile - 1) / tile
	tilesY := (src.H + tile - 1) / tile
	m.tile, m.tilesX = tile, tilesX
	m.bytes, m.vals = grow(m.bytes, tilesX*tilesY), grow(m.vals, tilesX*tilesY)
	vec := VectorForm()
	for t := range m.bytes {
		x0, y0 := t%tilesX*tile, t/tilesX*tile
		x1, y1 := min(x0+tile, src.W), min(y0+tile, src.H)
		// Luma range in thousandths: dividing is monotone, so the
		// range of the quotients is the quotient of the range's ends.
		lo, hi := lumaRange(src.Pix[(y0*src.W+x0)*3:], src.W*3, y1-y0, x1-x0, vec)
		lo, hi = lo/1000, hi/1000
		lut, val := &m.bytes[t], &m.vals[t]
		span := hi - lo
		for v := range lut {
			lut[v] = uint8(v)
			if span >= 8 { // else rescaling would only amplify noise
				lut[v] = clampU8((float64(v) - float64(lo)) * (255.0 / float64(span)))
			}
			val[v] = float64(lut[v])
		}
	}
	return m
}

// Span returns the table of pixel (x, y) and the first column past x
// that lies in another tile.
func (m *TileLUT) Span(x, y int) (lut *[256]uint8, end int) {
	tx := x / m.tile
	return &m.bytes[y/m.tile*m.tilesX+tx], (tx + 1) * m.tile
}

// resizeTap is one output coordinate's pair of source samples along an
// axis: the two source indices with the border clamp already applied,
// and the weight of each.
type resizeTap struct {
	i0, i1 int
	f, g   float64 // weight of i1 and of i0 (g = 1-f)
}

// bilinearTap places output coordinate i on an axis of srcN samples,
// ratio = srcN / outputs.
func bilinearTap(i int, ratio float64, srcN int) resizeTap {
	s := (float64(i)+0.5)*ratio - 0.5
	i0 := int(math.Floor(s))
	f := s - float64(i0)
	return resizeTap{i0: min(max(i0, 0), srcN-1), i1: min(max(i0+1, 0), srcN-1), f: f, g: 1 - f}
}

// resizeScratch is the working memory of one ResizeLUTInto call: the
// taps of every output value (column × channel), one source row mapped
// through its tiles' tables, and two source rows after the horizontal
// interpolation, kept while consecutive output rows share them. Pooled,
// so a steady-state caller allocates nothing.
type resizeScratch struct {
	at0, at1 []int32   // index in the mapped row of each value's two taps
	wg, wf   []float64 // the weight of each
	mapped   []float64
	lerped   [2][]float64
	holds    [2]int // source row in each lerped slot
}

var resizePool = sync.Pool{New: func() any { return new(resizeScratch) }}

// lerpRow returns source row r of src, mapped through m, interpolated
// horizontally onto the output columns, from the cache when it holds
// it; a miss overwrites the slot that does not hold row keep.
func (s *resizeScratch) lerpRow(src *Image, m *TileLUT, r, keep int, vec bool) []float64 {
	slot := 0
	switch {
	case s.holds[0] == r:
		return s.lerped[0]
	case s.holds[1] == r:
		return s.lerped[1]
	case s.holds[0] == keep:
		slot = 1
	}
	s.holds[slot] = r
	row := src.Pix[r*src.W*3 : (r+1)*src.W*3]
	vals := m.vals[r/m.tile*m.tilesX:]
	for t, x0 := 0, 0; t < m.tilesX; t++ {
		x1 := len(row)
		if t+1 < m.tilesX {
			x1 = x0 + 3*m.tile
		}
		mapRow(s.mapped[x0:x1], row[x0:x1], &vals[t], vec)
		x0 = x1
	}
	lerpRow(s.lerped[slot], s.mapped, s.at0, s.at1, s.wg, s.wf, vec)
	return s.lerped[slot]
}

// ResizeLUTInto scales src, read through m, to dst's dimensions with
// bilinear interpolation, overwriting every pixel of dst; m must have
// been built for src. Each output byte is clampU8(top·(1−fy) + bot·fy)
// where top and bot are the horizontal interpolations a·(1−fx) + b·fx
// of mapped bytes on the two source rows; the border clamp, the
// weights and the tiles are resolved once per column and once per row
// instead of per pixel. It is the package's one resampling kernel:
// Resize is it through the identity, LocalContrastNormalize through
// the contrast tables at src's own size, where every weight is 0 or 1
// and each byte comes out as its table entry.
func ResizeLUTInto(dst, src *Image, m *TileLUT) {
	w, h := dst.W, dst.H
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	vec := VectorForm()
	s := resizePool.Get().(*resizeScratch)
	defer resizePool.Put(s)
	n := w * 3
	s.at0, s.at1, s.wg, s.wf = grow(s.at0, n), grow(s.at1, n), grow(s.wg, n), grow(s.wf, n)
	for x := 0; x < w; x++ {
		c := bilinearTap(x, xr, src.W)
		for k := 0; k < 3; k++ {
			e := x*3 + k
			s.at0[e], s.at1[e], s.wg[e], s.wf[e] = int32(c.i0*3+k), int32(c.i1*3+k), c.g, c.f
		}
	}
	s.mapped = grow(s.mapped, src.W*3)
	s.lerped[0] = grow(s.lerped[0], n)
	s.lerped[1] = grow(s.lerped[1], n)
	s.holds = [2]int{-1, -1}
	for y := 0; y < h; y++ {
		r := bilinearTap(y, yr, src.H)
		top := s.lerpRow(src, m, r.i0, r.i1, vec)
		bot := s.lerpRow(src, m, r.i1, r.i0, vec)
		blendRow(dst.Pix[y*n:(y+1)*n], top, bot, r.g, r.f, vec)
	}
}

// The three loops of ResizeLUTInto. Each runs its AVX-512 form over
// whole blocks of eight values when vec is set, and its Go form over
// the rest; the forms do the same float64 operations in the same order.

// mapRow sets to[i] = tab[from[i]].
func mapRow(to []float64, from []uint8, tab *[256]float64, vec bool) {
	if n8 := len(from) / 8; vec && n8 > 0 {
		mapRowAVX512(&to[0], &from[0], n8, tab)
		to, from = to[8*n8:], from[8*n8:]
	}
	to = to[:len(from)]
	for i, v := range from {
		to[i] = tab[v]
	}
}

// lerpRow sets out[e] = src[at0[e]]·wg[e] + src[at1[e]]·wf[e].
func lerpRow(out, src []float64, at0, at1 []int32, wg, wf []float64, vec bool) {
	if n8 := len(out) / 8; vec && n8 > 0 {
		lerpRowAVX512(&out[0], &src[0], &at0[0], &at1[0], &wg[0], &wf[0], n8)
		out, at0, at1, wg, wf = out[8*n8:], at0[8*n8:], at1[8*n8:], wg[8*n8:], wf[8*n8:]
	}
	at0, at1, wg, wf = at0[:len(out)], at1[:len(out)], wg[:len(out)], wf[:len(out)]
	for e := range out {
		out[e] = src[at0[e]]*wg[e] + src[at1[e]]*wf[e]
	}
}

// blendRow sets out[i] = clampU8(top[i]·g + bot[i]·f).
func blendRow(out []uint8, top, bot []float64, g, f float64, vec bool) {
	if n8 := len(out) / 8; vec && n8 > 0 {
		blendRowAVX512(&out[0], &top[0], &bot[0], n8, g, f)
		out, top, bot = out[8*n8:], top[8*n8:], bot[8*n8:]
	}
	top, bot = top[:len(out)], bot[:len(out)]
	for i := range out {
		out[i] = clampU8(top[i]*g + bot[i]*f)
	}
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// gaussKernel builds a normalised 1-D Gaussian kernel for the given sigma.
func gaussKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	var sum float64
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur convolves im in place with a separable Gaussian of the
// given sigma; sigma <= 0 leaves it as it is. Each row and then each
// column is copied into one line buffer and written back blurred, so
// the frame needs no intermediate copy. It runs on the calling
// goroutine: its callers fan out across frames.
func GaussianBlur(im *Image, sigma float64) {
	if sigma <= 0 {
		return
	}
	k := gaussKernel(sigma)
	w, h := im.W, im.H
	line := make([]uint8, max(w, h)*3)
	for y := 0; y < h; y++ {
		row := im.Pix[y*w*3 : (y+1)*w*3]
		blurLine(row, 3, line[:copy(line, row)], k)
	}
	col := line[:h*3]
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			copy(col[y*3:y*3+3], im.Pix[(y*w+x)*3:])
		}
		blurLine(im.Pix[x*3:], w*3, col, k)
	}
}

// blurLine writes the line of pixels src, convolved with k and clamped
// to its end pixels, to dst, whose pixels lie stride bytes apart.
func blurLine(dst []uint8, stride int, src []uint8, k []float64) {
	n, radius := len(src)/3, len(k)/2
	for p := 0; p < n; p++ {
		var r, g, b float64
		for i, kv := range k {
			q := min(max(p+i-radius, 0), n-1) * 3
			r += kv * float64(src[q])
			g += kv * float64(src[q+1])
			b += kv * float64(src[q+2])
		}
		o := p * stride
		dst[o], dst[o+1], dst[o+2] = clampU8(r), clampU8(g), clampU8(b)
	}
}

// AdjustBrightness scales all channels by factor (e.g. 0.3 simulates the
// paper's low-light adversarial condition).
func AdjustBrightness(src *Image, factor float64) *Image {
	var lut [256]uint8
	for v := range lut {
		lut[v] = clampU8(float64(v) * factor)
	}
	dst := src.Clone()
	MapBytes(dst.Pix, &lut)
	return dst
}

// AddGaussianNoise adds zero-mean Gaussian noise with the given stddev
// (in 0-255 units) to im in place, using per-row deterministic streams.
func AddGaussianNoise(im *Image, stddev float64, r *rng.RNG) {
	seed := r.Uint64()
	parallel.For(im.H, func(y int) {
		rr := rng.New(seed + uint64(y)*0x9e37)
		row := im.Pix[y*im.W*3 : (y+1)*im.W*3]
		for i, v := range row {
			row[i] = clampU8(float64(v) + rr.NormRange(0, stddev))
		}
	})
}

// Rotate returns src rotated by angle radians about its centre, sampling
// with bilinear interpolation; exposed pixels are black. Used for the
// tilted-orientation adversarial category.
func Rotate(src *Image, angle float64) *Image {
	dst := NewImage(src.W, src.H)
	sin, cos := math.Sin(-angle), math.Cos(-angle)
	cx, cy := float64(src.W)/2, float64(src.H)/2
	parallel.For(src.H, func(y int) {
		dy := float64(y) + 0.5 - cy
		for x := 0; x < src.W; x++ {
			dx := float64(x) + 0.5 - cx
			sx := cx + dx*cos - dy*sin - 0.5
			sy := cy + dx*sin + dy*cos - 0.5
			x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
			if x0 < -1 || x0 > src.W || y0 < -1 || y0 > src.H {
				continue
			}
			fx, fy := sx-float64(x0), sy-float64(y0)
			r00, g00, b00 := src.At(x0, y0)
			r10, g10, b10 := src.At(x0+1, y0)
			r01, g01, b01 := src.At(x0, y0+1)
			r11, g11, b11 := src.At(x0+1, y0+1)
			lerp2 := func(a, b, c, d uint8) uint8 {
				top := float64(a)*(1-fx) + float64(b)*fx
				bot := float64(c)*(1-fx) + float64(d)*fx
				return clampU8(top*(1-fy) + bot*fy)
			}
			o := (y*src.W + x) * 3
			dst.Pix[o] = lerp2(r00, r10, r01, r11)
			dst.Pix[o+1] = lerp2(g00, g10, g01, g11)
			dst.Pix[o+2] = lerp2(b00, b10, b01, b11)
		}
	})
	return dst
}

// RotateRect maps a rectangle through the same rotation Rotate applies and
// returns the axis-aligned bounding box of the rotated corners.
func RotateRect(r Rect, w, h int, angle float64) Rect {
	sin, cos := math.Sin(angle), math.Cos(angle)
	cx, cy := float64(w)/2, float64(h)/2
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range [][2]float64{
		{float64(r.X0), float64(r.Y0)},
		{float64(r.X1), float64(r.Y0)},
		{float64(r.X0), float64(r.Y1)},
		{float64(r.X1), float64(r.Y1)},
	} {
		dx, dy := p[0]-cx, p[1]-cy
		nx := cx + dx*cos - dy*sin
		ny := cy + dx*sin + dy*cos
		minX, maxX = math.Min(minX, nx), math.Max(maxX, nx)
		minY, maxY = math.Min(minY, ny), math.Max(maxY, ny)
	}
	return Rect{int(minX), int(minY), int(math.Ceil(maxX)), int(math.Ceil(maxY))}
}

// unit maps a channel byte to [0,1]: unit[v] == float64(v)/255.
var unit = func() (t [256]float64) {
	for v := range t {
		t[v] = float64(v) / 255
	}
	return t
}()

// RGBToHSV converts one 8-bit RGB triple to HSV with h in [0,360),
// s and v in [0,1].
func RGBToHSV(r, g, b uint8) (h, s, v float64) {
	s, v = SatVal(r, g, b)
	return Hue(r, g, b), s, v
}

// SatVal returns the s and v of RGBToHSV. Scaling by 1/255 is
// monotone, so the extreme channels are picked as bytes and only they
// are scaled.
func SatVal(r, g, b uint8) (s, v float64) {
	v = unit[max(r, g, b)]
	if v > 0 {
		s = (v - unit[min(r, g, b)]) / v
	}
	return s, v
}

// Hue returns the h of RGBToHSV; greys have hue 0.
func Hue(r, g, b uint8) float64 {
	mx := max(r, g, b)
	d := unit[mx] - unit[min(r, g, b)]
	if d == 0 {
		return 0
	}
	rf, gf, bf := unit[r], unit[g], unit[b]
	var h float64
	switch mx {
	case r:
		h = (gf - bf) / d // in [-1,1]
	case g:
		h = (bf-rf)/d + 2
	default:
		h = (rf-gf)/d + 4
	}
	h *= 60
	if h < 0 {
		h += 360
	}
	return h
}

// HSVToRGB converts HSV (h in [0,360), s,v in [0,1]) to 8-bit RGB.
func HSVToRGB(h, s, v float64) (uint8, uint8, uint8) {
	c := v * s
	hp := math.Mod(h, 360) / 60
	x := c * (1 - math.Abs(math.Mod(hp, 2)-1))
	var rf, gf, bf float64
	switch {
	case hp < 1:
		rf, gf, bf = c, x, 0
	case hp < 2:
		rf, gf, bf = x, c, 0
	case hp < 3:
		rf, gf, bf = 0, c, x
	case hp < 4:
		rf, gf, bf = 0, x, c
	case hp < 5:
		rf, gf, bf = x, 0, c
	default:
		rf, gf, bf = c, 0, x
	}
	m := v - c
	return clampU8((rf + m) * 255), clampU8((gf + m) * 255), clampU8((bf + m) * 255)
}

// LocalContrastNormalize rescales each tile of the image so its intensity
// range spans [0,255]. This is the robustness stage the x-large detector
// tier enables to survive low-light adversarial inputs.
func LocalContrastNormalize(src *Image, tile int) *Image {
	dst := NewImage(src.W, src.H)
	LocalContrastNormalizeInto(dst, src, tile)
	return dst
}

// LocalContrastNormalizeInto is LocalContrastNormalize writing into
// dst, which must have src's dimensions; every pixel is overwritten. It
// is ResizeLUTInto at src's own size through the tiles' tables.
func LocalContrastNormalizeInto(dst, src *Image, tile int) {
	if dst.W != src.W || dst.H != src.H {
		panic(fmt.Sprintf("imgproc: LocalContrastNormalizeInto %dx%d into %dx%d", src.W, src.H, dst.W, dst.H))
	}
	ResizeLUTInto(dst, src, new(TileLUT).Contrast(src, tile))
}
