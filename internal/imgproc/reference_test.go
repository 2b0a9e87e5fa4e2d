package imgproc_test

// The per-pixel Resize, LocalContrastNormalize and RGBToHSV as they
// were before the table-driven rewrite, kept as oracles: the package's
// functions must reproduce them byte for byte (bit for bit for HSV).
// An external test package, so the frames can come from the dataset
// renderer the detector is fed by.

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"ocularone/internal/dataset"
	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

func refClampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func refResize(src *imgproc.Image, w, h int) *imgproc.Image {
	dst := imgproc.NewImage(w, h)
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			r00, g00, b00 := src.At(x0, y0)
			r10, g10, b10 := src.At(x0+1, y0)
			r01, g01, b01 := src.At(x0, y0+1)
			r11, g11, b11 := src.At(x0+1, y0+1)
			lerp2 := func(a, b, c, d uint8) uint8 {
				top := float64(a)*(1-fx) + float64(b)*fx
				bot := float64(c)*(1-fx) + float64(d)*fx
				return refClampU8(top*(1-fy) + bot*fy)
			}
			o := (y*w + x) * 3
			dst.Pix[o] = lerp2(r00, r10, r01, r11)
			dst.Pix[o+1] = lerp2(g00, g10, g01, g11)
			dst.Pix[o+2] = lerp2(b00, b10, b01, b11)
		}
	}
	return dst
}

func refLocalContrastNormalize(src *imgproc.Image, tile int) *imgproc.Image {
	if tile <= 0 {
		tile = 64
	}
	dst := src.Clone()
	tilesX := (src.W + tile - 1) / tile
	tilesY := (src.H + tile - 1) / tile
	for t := 0; t < tilesX*tilesY; t++ {
		tx, ty := t%tilesX, t/tilesX
		x0, y0 := tx*tile, ty*tile
		x1, y1 := min(x0+tile, src.W), min(y0+tile, src.H)
		lo, hi := 255, 0
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				o := (y*src.W + x) * 3
				lum := (int(src.Pix[o])*299 + int(src.Pix[o+1])*587 + int(src.Pix[o+2])*114) / 1000
				if lum < lo {
					lo = lum
				}
				if lum > hi {
					hi = lum
				}
			}
		}
		span := hi - lo
		if span < 8 {
			continue
		}
		scale := 255.0 / float64(span)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				o := (y*src.W + x) * 3
				for c := 0; c < 3; c++ {
					dst.Pix[o+c] = refClampU8((float64(src.Pix[o+c]) - float64(lo)) * scale)
				}
			}
		}
	}
	return dst
}

func refRGBToHSV(r, g, b uint8) (h, s, v float64) {
	rf, gf, bf := float64(r)/255, float64(g)/255, float64(b)/255
	maxc := math.Max(rf, math.Max(gf, bf))
	minc := math.Min(rf, math.Min(gf, bf))
	v = maxc
	d := maxc - minc
	if maxc > 0 {
		s = d / maxc
	}
	if d == 0 {
		return 0, s, v
	}
	switch maxc {
	case rf:
		h = math.Mod((gf-bf)/d, 6)
	case gf:
		h = (bf-rf)/d + 2
	default:
		h = (rf-gf)/d + 4
	}
	h *= 60
	if h < 0 {
		h += 360
	}
	return h, s, v
}

// TestRGBToHSVMatchesReference is exhaustive: all 2²⁴ colours, so the
// colour matcher built on SatVal and Hue has no untested input.
// refGaussianBlur and refAddGaussianNoise are the filters as they were
// when each returned a fresh image: a sequential form of the same
// per-pixel sums.
func refGaussianBlur(src *imgproc.Image, sigma float64) *imgproc.Image {
	if sigma <= 0 {
		return src.Clone()
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
	pass := func(src *imgproc.Image, dx, dy int) *imgproc.Image {
		dst := imgproc.NewImage(src.W, src.H)
		for y := 0; y < src.H; y++ {
			for x := 0; x < src.W; x++ {
				var r, g, b float64
				for i, kv := range k {
					cr, cg, cb := src.At(x+(i-radius)*dx, y+(i-radius)*dy)
					r += kv * float64(cr)
					g += kv * float64(cg)
					b += kv * float64(cb)
				}
				dst.Set(x, y, refClampU8(r), refClampU8(g), refClampU8(b))
			}
		}
		return dst
	}
	return pass(pass(src, 1, 0), 0, 1)
}

func refAddGaussianNoise(src *imgproc.Image, stddev float64, r *rng.RNG) *imgproc.Image {
	dst := imgproc.NewImage(src.W, src.H)
	seed := r.Uint64()
	for y := 0; y < src.H; y++ {
		rr := rng.New(seed + uint64(y)*0x9e37)
		for i := y * src.W * 3; i < (y+1)*src.W*3; i++ {
			dst.Pix[i] = refClampU8(float64(src.Pix[i]) + rr.NormRange(0, stddev))
		}
	}
	return dst
}

// noisy returns a copy of src with AddGaussianNoise applied.
func noisy(src *imgproc.Image, stddev float64, r *rng.RNG) *imgproc.Image {
	out := src.Clone()
	imgproc.AddGaussianNoise(out, stddev, r)
	return out
}

// TestFiltersMatchReference: the in-place GaussianBlur and
// AddGaussianNoise give the returned-image forms' bytes, at frame
// sizes down to one pixel and with the blur's pooled intermediate
// image left dirty by a larger frame.
func TestFiltersMatchReference(t *testing.T) {
	for i, d := range [][2]int{{320, 240}, {96, 96}, {33, 61}, {7, 5}, {1, 1}, {1, 9}} {
		src := mixedImage(d[0], d[1], uint64(i+1))
		for _, sigma := range []float64{0, 0.4, 1.1, 2.5} {
			im := src.Clone()
			imgproc.GaussianBlur(im, sigma)
			if want := refGaussianBlur(src, sigma); !bytes.Equal(im.Pix, want.Pix) {
				t.Fatalf("%dx%d: GaussianBlur(%v) differs from the reference", d[0], d[1], sigma)
			}
		}
		for _, sd := range []float64{4, 12} {
			im := src.Clone()
			imgproc.AddGaussianNoise(im, sd, rng.New(uint64(i)))
			if want := refAddGaussianNoise(src, sd, rng.New(uint64(i))); !bytes.Equal(im.Pix, want.Pix) {
				t.Fatalf("%dx%d: AddGaussianNoise(%v) differs from the reference", d[0], d[1], sd)
			}
		}
	}
}

// TestPaintMatchesReference holds AdjustBrightness's table map, in each
// form, to its per-byte loop and FillRect's doubling copies to the
// per-pixel fill, on frames down to one pixel: brightness factors that
// darken, saturate and go negative; rects inside, straddling every
// edge, outside and empty, each over a frame already painted.
func TestPaintMatchesReference(t *testing.T) {
	r := rng.New(9)
	for i, d := range [][2]int{{320, 240}, {33, 61}, {7, 5}, {1, 1}, {1, 9}} {
		src := mixedImage(d[0], d[1], uint64(i+1))
		for _, f := range []float64{0.3, 1, 1.7, 0, -0.5} {
			want := src.Clone()
			for k, v := range want.Pix {
				want.Pix[k] = refClampU8(float64(v) * f)
			}
			for _, form := range resizeForms() {
				inTier(t, form, func() {
					if got := imgproc.AdjustBrightness(src, f); !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("%s: %dx%d: AdjustBrightness(%v) differs from the per-byte loop", form, d[0], d[1], f)
					}
				})
			}
		}
		for k := 0; k < 40; k++ {
			rect := imgproc.Rect{X0: r.Intn(d[0]+8) - 4, Y0: r.Intn(d[1]+8) - 4}
			rect.X1, rect.Y1 = rect.X0+r.Intn(d[0]+4)-1, rect.Y0+r.Intn(d[1]+4)-1
			c := [3]uint8{uint8(r.Uint64()), uint8(r.Uint64()), uint8(r.Uint64())}
			got, want := src.Clone(), src.Clone()
			got.FillRect(rect, c[0], c[1], c[2])
			for y := rect.Y0; y < rect.Y1; y++ {
				for x := rect.X0; x < rect.X1; x++ {
					want.Set(x, y, c[0], c[1], c[2])
				}
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%dx%d: FillRect(%+v) differs from the per-pixel fill", d[0], d[1], rect)
			}
		}
	}
}

func TestRGBToHSVMatchesReference(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7 // coprime to 256: still every value of every channel
	}
	for c := 0; c < 1<<24; c += step {
		r, g, b := uint8(c>>16), uint8(c>>8), uint8(c)
		h, s, v := imgproc.RGBToHSV(r, g, b)
		rh, rs, rv := refRGBToHSV(r, g, b)
		if math.Float64bits(h) != math.Float64bits(rh) || math.Float64bits(s) != math.Float64bits(rs) || math.Float64bits(v) != math.Float64bits(rv) {
			t.Fatalf("RGBToHSV(%d,%d,%d) = (%v,%v,%v), reference (%v,%v,%v)", r, g, b, h, s, v, rh, rs, rv)
		}
		if ps, pv := imgproc.SatVal(r, g, b); ps != s || pv != v || imgproc.Hue(r, g, b) != h {
			t.Fatalf("SatVal/Hue(%d,%d,%d) disagree with RGBToHSV", r, g, b)
		}
	}
}

// noiseImage is a w×h image of seeded bytes: every tile busy, every
// lerp between unrelated values.
func noiseImage(w, h int, seed uint64) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	r := rng.New(seed)
	for i := range im.Pix {
		im.Pix[i] = uint8(r.Uint64())
	}
	return im
}

// mixedImage has flat, low-contrast (span straddling the flat-tile
// threshold of 8) and busy regions, so LCN takes each branch in one
// image.
func mixedImage(w, h int, seed uint64) *imgproc.Image {
	im := noiseImage(w, h, seed)
	r := rng.New(seed ^ 0x5eed)
	base := uint8(r.Intn(200))
	span := 6 + r.Intn(6)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			o := (y*w + x) * 3
			switch (x*3/w + y*3/h) % 3 {
			case 0:
				im.Pix[o], im.Pix[o+1], im.Pix[o+2] = base, base, base
			case 1:
				v := base + uint8(r.Intn(span))
				im.Pix[o], im.Pix[o+1], im.Pix[o+2] = v, v, v
			}
		}
	}
	return im
}

// resizeForms are the kernel tiers whose forms of the resampling kernel
// differ: generic runs the Go forms, avx512vnni (where the CPU has it)
// the AVX-512 ones.
func resizeForms() []string {
	forms := []string{tensor.TierGeneric}
	if slices.Contains(tensor.KernelTiers(), tensor.TierAVX512VNNI) {
		forms = append(forms, tensor.TierAVX512VNNI)
	}
	return forms
}

// inTier runs f with the kernel tier forced to tier.
func inTier(tb testing.TB, tier string, f func()) {
	prev := tensor.KernelTier()
	if err := tensor.SetKernelTier(tier); err != nil {
		tb.Fatal(err)
	}
	defer tensor.SetKernelTier(prev)
	f()
}

func checkResize(t testing.TB, src *imgproc.Image, w, h int) {
	t.Helper()
	want := refResize(src, w, h)
	for _, form := range resizeForms() {
		inTier(t, form, func() {
			if got := imgproc.Resize(src, w, h); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s: Resize %dx%d -> %dx%d differs from the reference", form, src.W, src.H, w, h)
			}
		})
	}
}

func checkLCN(t testing.TB, src *imgproc.Image, tile int) {
	t.Helper()
	want := refLocalContrastNormalize(src, tile)
	for _, form := range resizeForms() {
		inTier(t, form, func() {
			if got := imgproc.LocalContrastNormalize(src, tile); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s: LocalContrastNormalize %dx%d tile %d differs from the reference", form, src.W, src.H, tile)
			}
		})
	}
}

// checkLCNResize is the detector's contrast tiers' one pass: the resize
// read through the contrast tables, against the reference resize of the
// reference normalisation.
func checkLCNResize(t testing.TB, src *imgproc.Image, tile, w, h int) {
	t.Helper()
	want := refResize(refLocalContrastNormalize(src, tile), w, h)
	lut := new(imgproc.TileLUT).Contrast(src, tile)
	for _, form := range resizeForms() {
		inTier(t, form, func() {
			got := imgproc.NewImage(w, h)
			if imgproc.ResizeLUTInto(got, src, lut); !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s: %dx%d tile %d resized through its tables to %dx%d differs from the reference", form, src.W, src.H, tile, w, h)
			}
		})
	}
}

func TestResizeMatchesReference(t *testing.T) {
	for i, c := range [][4]int{
		{320, 240, 224, 168}, // v8m
		{320, 240, 96, 72},   // nano: no source row shared between output rows
		{320, 240, 320, 240}, // identity
		{64, 48, 320, 240},   // upscale: x0+1 clamps at the right and bottom
		{167, 111, 224, 148}, // an ROI crop brought up to the analysis width
		{5, 3, 1, 1},         // one-pixel target
		{1, 1, 7, 5},         // one-pixel source
		{3, 200, 200, 3},     // opposite aspect
		{320, 240, 100, 8},   // many rows, few columns
		{97, 61, 96, 60},     // a ratio just above one
	} {
		checkResize(t, noiseImage(c[0], c[1], uint64(i)), c[2], c[3])
	}
}

func TestLCNMatchesReference(t *testing.T) {
	for i, c := range [][3]int{
		{320, 240, 64},  // the detector's W/5
		{161, 97, 32},   // ragged last column and row of tiles
		{64, 64, 64},    // one tile
		{40, 30, 100},   // tile larger than the image
		{33, 17, 1},     // one-pixel tiles: all flat
		{50, 50, 0},     // the default tile
		{320, 240, -3},  // likewise
		{7, 300, 5},     // a tall sliver
		{256, 1, 16},    // one row
		{129, 129, 128}, // a one-pixel ragged edge
	} {
		checkLCN(t, mixedImage(c[0], c[1], uint64(i)), c[2])
	}
}

// detectorWidths are the analysis widths Detect and DetectEarly resize
// to: the six tiers' resolutions and their early-exit halves.
var detectorWidths = []int{96, 224, 240, 288, 320, 48, 112, 120, 144, 160}

// TestFrameGeometryMatchesReference runs the kernel the way the vest
// detector calls it — resize to each tier's analysis size, directly or
// through the contrast tables of tile W/5 — on rendered frames (clean,
// ×0.3 brightness, rotated, noisy), whole and as DetectROI-style crops,
// in each form.
func TestFrameGeometryMatchesReference(t *testing.T) {
	ds := dataset.Build(dataset.Config{Scale: 0.01, Seed: 11, W: 320, H: 240})
	items := ds.Subset(6).Items
	if testing.Short() {
		items = items[:2]
	}
	crops := []imgproc.Rect{{X0: 40, Y0: 30, X1: 207, Y1: 141}, {X0: 150, Y0: 100, X1: 199, Y1: 233}, {X0: 0, Y0: 0, X1: 13, Y1: 9}}
	n := 0
	for i, it := range items {
		clean := ds.Render(it).Image
		for _, frame := range []*imgproc.Image{
			clean,
			imgproc.AdjustBrightness(clean, 0.3),
			imgproc.Rotate(clean, 0.3),
			noisy(clean, 12, rng.New(uint64(i))),
		} {
			views := []*imgproc.Image{frame}
			for _, c := range crops {
				views = append(views, imgproc.Crop(frame, c))
			}
			for _, im := range views {
				checkLCN(t, im, im.W/5)
				for _, rw := range detectorWidths {
					rh := max(rw*im.H/im.W, 8)
					checkResize(t, im, rw, rh)
					checkLCNResize(t, im, im.W/5, rw, rh)
					n += 2
				}
			}
		}
	}
	t.Logf("%d resizes, plain and through contrast tables, byte-equal in each form", n)
}

// TestIntoVariantsOverwriteDirtyBuffers: the pooled callers hand
// ResizeInto and LocalContrastNormalizeInto buffers full of a previous
// frame.
func TestIntoVariantsOverwriteDirtyBuffers(t *testing.T) {
	src := mixedImage(90, 70, 3)
	dst := noiseImage(90, 70, 4)
	imgproc.LocalContrastNormalizeInto(dst, src, 18)
	if !bytes.Equal(dst.Pix, refLocalContrastNormalize(src, 18).Pix) {
		t.Fatal("LocalContrastNormalizeInto left stale bytes")
	}
	small := noiseImage(31, 24, 5)
	imgproc.ResizeInto(small, src)
	if !bytes.Equal(small.Pix, refResize(src, 31, 24).Pix) {
		t.Fatal("ResizeInto left stale bytes")
	}
}

func fuzzDim(v uint8, limit int) int { return int(v)%limit + 1 }

func FuzzResizeMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(63), uint8(47), uint8(223), uint8(167))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(6), uint8(4))      // 1×1 source
	f.Add(uint64(3), uint8(4), uint8(2), uint8(0), uint8(0))      // 1×1 target
	f.Add(uint64(4), uint8(9), uint8(9), uint8(99), uint8(99))    // ×10 upscale
	f.Add(uint64(5), uint8(199), uint8(149), uint8(95), uint8(7)) // deep downscale
	f.Fuzz(func(t *testing.T, seed uint64, sw, sh, dw, dh uint8) {
		checkResize(t, noiseImage(fuzzDim(sw, 200), fuzzDim(sh, 150), seed), fuzzDim(dw, 256), fuzzDim(dh, 200))
	})
}

// FuzzLCNResizeMatchesReference: the detector's one pass, a resize
// read through contrast tables, on mixed images at any tile and scale.
func FuzzLCNResizeMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(159), uint8(119), int16(32), uint8(111), uint8(83))
	f.Add(uint64(2), uint8(40), uint8(39), int16(8), uint8(223), uint8(199)) // a crop brought up
	f.Add(uint64(3), uint8(0), uint8(99), int16(0), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint8, tile int16, dw, dh uint8) {
		checkLCNResize(t, mixedImage(fuzzDim(w, 200), fuzzDim(h, 150), seed), int(tile), fuzzDim(dw, 256), fuzzDim(dh, 200))
	})
}

func FuzzLCNMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(159), uint8(119), int16(32))
	f.Add(uint64(2), uint8(39), uint8(29), int16(100)) // tile ≥ image
	f.Add(uint64(3), uint8(32), uint8(16), int16(1))
	f.Add(uint64(4), uint8(49), uint8(49), int16(0))
	f.Add(uint64(5), uint8(100), uint8(6), int16(33)) // w not a multiple of the tile
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint8, tile int16) {
		checkLCN(t, mixedImage(fuzzDim(w, 200), fuzzDim(h, 150), seed), int(tile))
	})
}

// FuzzLCNEdgesMatchesReference is the contrast tiles' luma scan at its
// edges: images 1 to 200 pixels wide whose bytes lie in [64, 192),
// tiles of any width (most not a multiple of the sixteen pixels a
// vector block holds), in each form. Pix is the start of a buffer whose
// trailing bytes are 0 and then 255, so a read past the last pixel
// would move the last tile's luma range and with it the tile's bytes.
func FuzzLCNEdgesMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(199), uint8(3), uint8(17))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0))   // one pixel
	f.Add(uint64(3), uint8(15), uint8(4), uint8(15)) // one block a row, one tile
	f.Add(uint64(4), uint8(64), uint8(9), uint8(32)) // a ragged last tile of one pixel
	f.Fuzz(func(t *testing.T, seed uint64, w, h, tile uint8) {
		im := &imgproc.Image{W: fuzzDim(w, 200), H: fuzzDim(h, 40)}
		buf := make([]uint8, 3*im.W*im.H+96)
		im.Pix = buf[:3*im.W*im.H]
		r := rng.New(seed)
		for i := range im.Pix {
			im.Pix[i] = uint8(64 + r.Intn(128))
		}
		for _, sentinel := range []uint8{0, 255} {
			for i := len(im.Pix); i < len(buf); i++ {
				buf[i] = sentinel
			}
			checkLCN(t, im, fuzzDim(tile, 200))
		}
	})
}

// BenchmarkFrontEndStages times the imgproc stages of the v8m detector
// on one rendered 320×240 frame against their references, the new
// ones in each form: the two-pass lcn and resize, the contrast tables
// alone (contrast: the tiles' luma scan and their 256-entry tables),
// and the one pass the detector makes (lut+resize224: the contrast
// tables, then the resize read through them).
func BenchmarkFrontEndStages(b *testing.B) {
	ds := dataset.Build(dataset.Config{Scale: 0.005, Seed: 42, W: 320, H: 240})
	frame := ds.Render(ds.Items[0]).Image
	norm := imgproc.NewImage(320, 240)
	small := imgproc.NewImage(224, 168)
	lut := new(imgproc.TileLUT)
	cases := []struct {
		name string
		fn   func()
	}{
		{"lcn/ref", func() { refLocalContrastNormalize(frame, 64) }},
		{"lcn/new", func() { imgproc.LocalContrastNormalizeInto(norm, frame, 64) }},
		{"resize224/ref", func() { refResize(frame, 224, 168) }},
		{"resize224/new", func() { imgproc.ResizeInto(small, frame) }},
		{"contrast", func() { lut.Contrast(frame, 64) }},
		{"lut+resize224/new", func() { imgproc.ResizeLUTInto(small, frame, lut.Contrast(frame, 64)) }},
	}
	for _, form := range resizeForms() {
		inTier(b, form, func() {
			for _, c := range cases {
				name := c.name
				if strings.HasSuffix(name, "/ref") {
					if form != tensor.TierGeneric {
						continue // the references run no tier-bound code
					}
				} else {
					name += "/" + form
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c.fn()
					}
				})
			}
		})
	}
}
