package imgproc

import (
	"math"
	"testing"

	"ocularone/internal/rng"
)

func gradientImage(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint8((x * 255) / (w - 1))
			im.Set(x, y, v, v, v)
		}
	}
	return im
}

func TestResizeDims(t *testing.T) {
	im := gradientImage(64, 48)
	out := Resize(im, 32, 24)
	if out.W != 32 || out.H != 24 {
		t.Fatalf("resize dims %dx%d", out.W, out.H)
	}
}

func TestResizePreservesConstant(t *testing.T) {
	im := NewImage(16, 16)
	im.Fill(77, 88, 99)
	out := Resize(im, 7, 5)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, b := out.At(x, y)
			if r != 77 || g != 88 || b != 99 {
				t.Fatalf("constant image changed at %d,%d: %d,%d,%d", x, y, r, g, b)
			}
		}
	}
}

func TestResizePreservesGradientMonotonicity(t *testing.T) {
	im := gradientImage(100, 10)
	out := Resize(im, 50, 10)
	prev := -1
	for x := 0; x < out.W; x++ {
		r, _, _ := out.At(x, 5)
		if int(r) < prev {
			t.Fatalf("gradient not monotone after resize at x=%d", x)
		}
		prev = int(r)
	}
}

func TestGaussianBlurPreservesMean(t *testing.T) {
	r := rng.New(1)
	im := NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = uint8(r.Intn(256))
	}
	before := im.Luma()
	GaussianBlur(im, 2.0)
	after := im.Luma()
	if math.Abs(before-after) > 3 {
		t.Fatalf("blur shifted mean %v → %v", before, after)
	}
}

func TestGaussianBlurReducesVariance(t *testing.T) {
	r := rng.New(2)
	im := NewImage(64, 64)
	for i := range im.Pix {
		im.Pix[i] = uint8(r.Intn(256))
	}
	variance := func(im *Image) float64 {
		mr, _, _ := im.Mean()
		var s float64
		for i := 0; i < len(im.Pix); i += 3 {
			d := float64(im.Pix[i]) - mr
			s += d * d
		}
		return s / float64(im.W*im.H)
	}
	v0 := variance(im)
	GaussianBlur(im, 3)
	v1 := variance(im)
	if v1 >= v0/2 {
		t.Fatalf("blur did not smooth: var %v → %v", v0, v1)
	}
}

func TestGaussianBlurZeroSigmaIsCopy(t *testing.T) {
	im := gradientImage(8, 8)
	want := im.Clone()
	GaussianBlur(im, 0)
	for i := range im.Pix {
		if im.Pix[i] != want.Pix[i] {
			t.Fatal("sigma=0 blur changed pixels")
		}
	}
}

func TestAdjustBrightness(t *testing.T) {
	im := NewImage(2, 2)
	im.Fill(100, 100, 100)
	dark := AdjustBrightness(im, 0.3)
	if r, _, _ := dark.At(0, 0); r != 30 {
		t.Fatalf("dark pixel = %d, want 30", r)
	}
	bright := AdjustBrightness(im, 3.0)
	if r, _, _ := bright.At(0, 0); r != 255 {
		t.Fatalf("bright pixel = %d, want clamped 255", r)
	}
}

func TestAddGaussianNoiseStats(t *testing.T) {
	im := NewImage(64, 64)
	im.Fill(128, 128, 128)
	AddGaussianNoise(im, 10, rng.New(3))
	out := im
	mean, _, _ := out.Mean()
	if math.Abs(mean-128) > 2 {
		t.Fatalf("noise shifted mean to %v", mean)
	}
	var dev float64
	for i := 0; i < len(out.Pix); i += 3 {
		d := float64(out.Pix[i]) - 128
		dev += d * d
	}
	sd := math.Sqrt(dev / float64(out.W*out.H))
	if sd < 5 || sd > 15 {
		t.Fatalf("noise stddev = %v, want ~10", sd)
	}
}

func TestRotateIdentity(t *testing.T) {
	im := gradientImage(20, 20)
	out := Rotate(im, 0)
	for i := range im.Pix {
		if int(out.Pix[i])-int(im.Pix[i]) > 1 || int(im.Pix[i])-int(out.Pix[i]) > 1 {
			t.Fatal("zero rotation changed image")
		}
	}
}

func TestRotatePreservesCenter(t *testing.T) {
	im := NewImage(21, 21)
	im.Set(10, 10, 250, 0, 0)
	out := Rotate(im, math.Pi/7)
	r, _, _ := out.At(10, 10)
	if r < 100 {
		t.Fatalf("centre pixel lost after rotation: %d", r)
	}
}

func TestRotateRectIdentity(t *testing.T) {
	r := Rect{10, 20, 30, 40}
	out := RotateRect(r, 100, 100, 0)
	if out != r {
		t.Fatalf("identity RotateRect = %+v", out)
	}
}

func TestRotateRect90(t *testing.T) {
	// Square centred in a square image maps onto itself under 90°.
	r := Rect{40, 40, 60, 60}
	out := RotateRect(r, 100, 100, math.Pi/2)
	if out.Intersect(r).Area() < r.Area()*9/10 {
		t.Fatalf("centred square moved under 90°: %+v", out)
	}
}

func TestRGBToHSVKnownColors(t *testing.T) {
	cases := []struct {
		r, g, b uint8
		h, s, v float64
	}{
		{255, 0, 0, 0, 1, 1},
		{0, 255, 0, 120, 1, 1},
		{0, 0, 255, 240, 1, 1},
		{255, 255, 255, 0, 0, 1},
		{0, 0, 0, 0, 0, 0},
		{128, 128, 0, 60, 1, 128.0 / 255},
	}
	for _, c := range cases {
		h, s, v := RGBToHSV(c.r, c.g, c.b)
		if math.Abs(h-c.h) > 0.5 || math.Abs(s-c.s) > 0.01 || math.Abs(v-c.v) > 0.01 {
			t.Fatalf("RGBToHSV(%d,%d,%d) = %v,%v,%v want %v,%v,%v",
				c.r, c.g, c.b, h, s, v, c.h, c.s, c.v)
		}
	}
}

func TestHSVRGBRoundTrip(t *testing.T) {
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		cr, cg, cb := uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))
		h, s, v := RGBToHSV(cr, cg, cb)
		rr, rg, rb := HSVToRGB(h, s, v)
		if absInt(int(cr)-int(rr)) > 2 || absInt(int(cg)-int(rg)) > 2 || absInt(int(cb)-int(rb)) > 2 {
			t.Fatalf("HSV round trip (%d,%d,%d) → (%d,%d,%d)", cr, cg, cb, rr, rg, rb)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestNeonVestHueStability(t *testing.T) {
	// The neon yellow-green vest hue (~75°) must survive a brightness drop:
	// this is the invariant the detector's colour model relies on.
	vr, vg, vb := HSVToRGB(75, 0.95, 1.0)
	h0, _, _ := RGBToHSV(vr, vg, vb)
	dim := AdjustBrightness(func() *Image {
		im := NewImage(4, 4)
		im.Fill(vr, vg, vb)
		return im
	}(), 0.3)
	dr, dg, db := dim.At(1, 1)
	h1, _, v1 := RGBToHSV(dr, dg, db)
	if math.Abs(h0-h1) > 6 {
		t.Fatalf("hue unstable under dimming: %v → %v", h0, h1)
	}
	if v1 > 0.4 {
		t.Fatalf("value did not drop: %v", v1)
	}
}

func TestLocalContrastNormalizeRecoversDarkImage(t *testing.T) {
	im := gradientImage(64, 64)
	dark := AdjustBrightness(im, 0.2) // max value ~51
	norm := LocalContrastNormalize(dark, 32)
	if norm.Luma() < dark.Luma()*1.5 {
		t.Fatalf("LCN did not brighten: %v → %v", dark.Luma(), norm.Luma())
	}
}

func TestLocalContrastNormalizeSkipsFlatTiles(t *testing.T) {
	im := NewImage(32, 32)
	im.Fill(10, 10, 10)
	norm := LocalContrastNormalize(im, 16)
	if r, _, _ := norm.At(5, 5); r != 10 {
		t.Fatalf("flat tile rescaled: %d", r)
	}
}
