package scene

// The per-pixel render loops as they were before the table-driven
// rewrite, kept as oracles: Render must reproduce refRender's frame byte
// for byte, and its recorded depth (GroundTruth.DepthAt) must read
// refRender's dense depth plane bit for bit at every pixel.
// (refDrawBackground has Render's clamp of the clutter's Intn bounds to
// 1, without which frames under ten pixels wide or five tall panicked;
// every larger frame draws what it drew.)

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// refRender renders through the reference loops and paints the dense
// depth plane DepthAt must match: the background's rows and buildings
// per pixel, then, in order, every depth write the shared draw
// functions recorded.
func refRender(s *Scene, cam Camera) (*imgproc.Image, []float32) {
	im := imgproc.NewImage(cam.W, cam.H)
	gt := &GroundTruth{}
	depth := make([]float32, cam.W*cam.H)
	texRNG := rng.New(s.Seed)

	refDrawBackground(im, depth, s, cam, texRNG)

	order := make([]int, len(s.Entities))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.Entities[order[a]].Depth > s.Entities[order[b]].Depth
	})
	for _, i := range order {
		e := &s.Entities[i]
		switch e.Kind {
		case VIP:
			drawPerson(im, gt, s, cam, e, true)
		case Pedestrian:
			drawPerson(im, gt, s, cam, e, false)
		case Bicycle:
			drawBicycle(im, gt, s, cam, e)
		case ParkedCar:
			drawCar(im, gt, s, cam, e)
		case LampPost:
			drawLampPost(im, gt, s, cam, e)
		}
	}

	refApplyCondition(im, gt, s, cam, texRNG)
	for _, r := range gt.rects {
		for y := r.r.Y0; y < r.r.Y1; y++ {
			for x := r.r.X0; x < r.r.X1; x++ {
				depth[y*cam.W+x] = r.d
			}
		}
	}
	refApplyLighting(im, s.Lighting)
	refSensorNoise(im, texRNG)
	return im, depth
}

// checkDepth holds gt.DepthAt to the dense plane want of a w×h frame at
// every pixel, bit for bit.
func checkDepth(t testing.TB, name string, gt *GroundTruth, want []float32, w, h int) {
	t.Helper()
	if len(want) != w*h {
		t.Fatalf("%s: reference plane of %d values for a %dx%d frame", name, len(want), w, h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if d := gt.DepthAt(x, y); math.Float32bits(d) != math.Float32bits(want[y*w+x]) {
				t.Fatalf("%s: depth at (%d, %d) = %v, reference %v", name, x, y, d, want[y*w+x])
			}
		}
	}
}

func refDrawBackground(im *imgproc.Image, depth []float32, s *Scene, cam Camera, texRNG *rng.RNG) {
	w, h := cam.W, cam.H
	horizon := int(cam.horizonY())
	var ground [3]uint8
	switch s.Background {
	case Footpath:
		ground = [3]uint8{150, 148, 142}
	case Path:
		ground = [3]uint8{146, 120, 88}
	case RoadSide:
		ground = [3]uint8{90, 90, 95}
	}
	noise := texRNG.Split("ground-texture")
	for y := 0; y < h; y++ {
		d := cam.GroundDepthAtRow(y)
		for x := 0; x < w; x++ {
			idx := y*w + x
			if y < horizon {
				f := float64(y) / float64(horizon)
				v := float64(skyTone)*0.75 + float64(skyTone)*0.25*f
				im.Set(x, y, uint8(v*0.92), uint8(v*0.96), uint8(v))
				depth[idx] = 1000
				continue
			}
			haze := 1.0 / (1.0 + d/80)
			n := 1 + (noise.Float64()-0.5)*0.12
			r8, g8, b8 := shade(ground, haze*n)
			im.Set(x, y, r8, g8, b8)
			if math.IsInf(d, 1) {
				depth[idx] = 1000
			} else {
				depth[idx] = float32(d)
			}
		}
	}
	if s.Background != RoadSide {
		verge := [3]uint8{58, 110, 48}
		for y := horizon; y < h; y++ {
			d := cam.GroundDepthAtRow(y)
			if math.IsInf(d, 1) {
				continue
			}
			exl, _ := cam.ProjectGround(-2.2, d)
			exr, _ := cam.ProjectGround(2.2, d)
			haze := 1.0 / (1.0 + d/80)
			gr, gg, gb := shade(verge, haze)
			for x := 0; x < int(exl); x++ {
				im.Set(x, y, gr, gg, gb)
			}
			for x := int(exr); x < w; x++ {
				im.Set(x, y, gr, gg, gb)
			}
		}
	} else {
		for y := horizon + 2; y < h; y += 1 {
			d := cam.GroundDepthAtRow(y)
			if math.IsInf(d, 1) || int(d)%3 == 0 {
				continue
			}
			mx, _ := cam.ProjectGround(-2.8, d)
			im.Set(int(mx), y, 220, 220, 210)
			im.Set(int(mx)+1, y, 220, 220, 210)
		}
	}
	if s.Clutter > 0 {
		bRNG := texRNG.Split("buildings")
		n := int(s.Clutter*8) + 2
		for i := 0; i < n; i++ {
			bw := bRNG.Intn(max(w/6, 1)) + w/12
			bx := bRNG.Intn(w)
			bh := bRNG.Intn(max(horizon/2, 1)) + horizon/8
			tone := uint8(90 + bRNG.Intn(70))
			box := imgproc.Rect{X0: bx, Y0: horizon - bh, X1: bx + bw, Y1: horizon}
			im.FillRect(box, tone, tone, uint8(float64(tone)*1.05))
			for yy := box.Y0; yy < box.Y1; yy++ {
				for xx := box.X0; xx < box.X1 && xx < w; xx++ {
					if xx >= 0 {
						depth[yy*w+xx] = 200
					}
				}
			}
		}
		tRNG := texRNG.Split("trees")
		for i := 0; i < n/2+1; i++ {
			tx := tRNG.Intn(w)
			tw := tRNG.Intn(max(w/10, 1)) + w/20
			box := imgproc.Rect{X0: tx, Y0: horizon - tw/2, X1: tx + tw, Y1: horizon + tw/4}
			im.FillEllipse(box, 40, uint8(80+tRNG.Intn(40)), 35)
		}
	}
}

// refApplyCondition is applyCondition with the night's and the rain's
// tone maps as the per-byte loops they were.
func refApplyCondition(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	switch s.Condition {
	case Night:
		for i, v := range im.Pix {
			im.Pix[i] = uint8(float64(v) * 0.28)
		}
		imgproc.AddGaussianNoise(im, 10, texRNG.Split("night-gain"))
	case Rain:
		for i, v := range im.Pix {
			nv := float64(v)*0.72 + 52
			if nv > 255 {
				nv = 255
			}
			im.Pix[i] = uint8(nv)
		}
		r := texRNG.Split("rain-streaks")
		for i := 0; i < im.W*im.H/250; i++ {
			x, y, l := r.Intn(im.W), r.Intn(im.H), 3+r.Intn(6)
			for dy := 0; dy < l && y+dy < im.H; dy++ {
				pr, pg, pb := im.At(x, y+dy)
				im.Set(x, y+dy, uint8(min(int(pr)+45, 255)), uint8(min(int(pg)+45, 255)), uint8(min(int(pb)+50, 255)))
			}
		}
		imgproc.GaussianBlur(im, 1.1)
	default:
		applyCondition(im, gt, s, cam, texRNG)
	}
}

func refApplyLighting(im *imgproc.Image, f float64) {
	if f == 1 || f <= 0 {
		return
	}
	for i, v := range im.Pix {
		nv := float64(v) * f
		if nv > 255 {
			nv = 255
		}
		im.Pix[i] = uint8(nv)
	}
}

func refSensorNoise(im *imgproc.Image, r *rng.RNG) { refNoise(im.Pix, r.Split("sensor")) }

// refNoise is the per-byte noise loop over pix on the stream n.
func refNoise(pix []uint8, n *rng.RNG) {
	for i := range pix {
		if n.Bool(0.1) {
			d := int(pix[i]) + n.Intn(11) - 5
			if d < 0 {
				d = 0
			} else if d > 255 {
				d = 255
			}
			pix[i] = uint8(d)
		}
	}
}

// busyScene is a frame with one entity of every kind in it.
func busyScene(bg Background, cond Condition, lighting float64, seed uint64) *Scene {
	r := rng.New(seed)
	s := &Scene{
		Background: bg, Condition: cond, Lighting: lighting,
		CamHeightM: r.Range(1.2, 2.4), Clutter: r.Float64(), Seed: seed,
	}
	for _, k := range []EntityKind{VIP, Pedestrian, Bicycle, ParkedCar, LampPost} {
		e := RandomEntity(r, k)
		e.Pose = Pose(r.Intn(3))
		s.Entities = append(s.Entities, e)
	}
	return s
}

func TestRenderMatchesReference(t *testing.T) {
	// Lighting 1 and 0 skip the lighting pass, 1.6 saturates it; the odd
	// frame sizes put the horizon and the verge edges on ragged columns.
	lightings := []float64{0.3, 0.85, 1, 1.6, 0}
	dims := [][2]int{{320, 240}, {161, 97}, {48, 64}}
	n := 0
	for _, bg := range []Background{Footpath, Path, RoadSide} {
		for _, cond := range AllConditions() {
			for li, lighting := range lightings {
				for di, dim := range dims {
					s := busyScene(bg, cond, lighting, uint64(1000*int(bg)+100*int(cond)+10*li+di))
					cam := DefaultCamera(dim[0], dim[1], s.CamHeightM)
					im, gt := Render(s, cam)
					rim, rdepth := refRender(s, cam)
					name := fmt.Sprintf("%v/%v/light %v/%dx%d", bg, cond, lighting, dim[0], dim[1])
					if !bytes.Equal(im.Pix, rim.Pix) {
						t.Fatalf("%s: frame differs from the reference", name)
					}
					checkDepth(t, name, gt, rdepth, dim[0], dim[1])
					if want := len(s.Entities) + buildings(s) + 1; cap(gt.rects) != want || len(gt.rects) > want {
						t.Fatalf("%s: %d depth writes in a list of capacity %d, want capacity %d", name, len(gt.rects), cap(gt.rects), want)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d frames and depth maps byte-equal", n)
}

// TestNoiseOddsIsTheFloatThreshold pins the integer form of Bool(0.1)
// at the only two draws where the forms could part.
func TestNoiseOddsIsTheFloatThreshold(t *testing.T) {
	asFloat := func(k uint64) bool { return float64(k)/(1<<53) < 0.1 }
	if !asFloat(noiseOdds-1) || asFloat(noiseOdds) {
		t.Fatalf("noiseOdds = %d is not the first 53-bit draw with k/2^53 >= 0.1", uint64(noiseOdds))
	}
}

// renderForms names the forms of the render's random streams this CPU
// runs by the kernel tier that binds each: the Go forms under generic,
// the AVX-512 forms under avx512vnni where that tier is available.
func renderForms() []string {
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

// TestRenderTinyFrames renders every frame of 1–12 × 1–12 pixels with
// clutter, which panicked under ten pixels wide or five tall, in each
// form; every frame and depth map must equal the reference's.
func TestRenderTinyFrames(t *testing.T) {
	for _, form := range renderForms() {
		inTier(t, form, func() {
			for _, bg := range []Background{Footpath, Path, RoadSide} {
				for _, cond := range AllConditions() {
					for w := 1; w <= 12; w++ {
						for h := 1; h <= 12; h++ {
							s := busyScene(bg, cond, 0.85, uint64(100*w+h))
							s.Clutter = 1
							cam := DefaultCamera(w, h, s.CamHeightM)
							im, gt := Render(s, cam)
							rim, rdepth := refRender(s, cam)
							name := fmt.Sprintf("%s: %v/%v/%dx%d", form, bg, cond, w, h)
							if !bytes.Equal(im.Pix, rim.Pix) {
								t.Fatalf("%s: frame differs from the reference", name)
							}
							checkDepth(t, name, gt, rdepth, w, h)
						}
					}
				}
			}
		})
	}
}

// FuzzRender holds Render, in each form, to refRender byte for byte —
// frame and depth map — for any frame of 1–320 × 1–240 pixels, any
// background, condition, clutter in [0, 1] and scene seed; tiny frames
// must not panic, as TestRenderTinyFrames requires.
func FuzzRender(f *testing.F) {
	f.Add(uint16(320), uint16(240), uint8(0), uint8(0), 0.5, uint64(1))
	f.Add(uint16(1), uint16(1), uint8(2), uint8(3), 1.0, uint64(7))
	f.Add(uint16(9), uint16(4), uint8(1), uint8(1), 0.0, uint64(42))
	f.Add(uint16(161), uint16(97), uint8(2), uint8(2), 0.85, uint64(1000))
	f.Fuzz(func(t *testing.T, w16, h16 uint16, bg8, cond8 uint8, clutter float64, seed uint64) {
		if math.IsNaN(clutter) || math.IsInf(clutter, 0) {
			clutter = 0
		}
		if clutter = math.Abs(clutter); clutter > 1 {
			clutter = math.Mod(clutter, 1)
		}
		w, h := 1+int(w16)%320, 1+int(h16)%240
		bg, cond := Background(bg8%3), Condition(int(cond8)%int(NumConditions))
		s := busyScene(bg, cond, 0.85, seed)
		s.Clutter = clutter
		cam := DefaultCamera(w, h, s.CamHeightM)
		rim, rdepth := refRender(s, cam)
		for _, form := range renderForms() {
			inTier(t, form, func() {
				im, gt := Render(s, cam)
				name := fmt.Sprintf("%s: %v/%v/%dx%d clutter %v seed %d", form, bg, cond, w, h, s.Clutter, seed)
				if !bytes.Equal(im.Pix, rim.Pix) {
					t.Fatalf("%s: frame differs from the reference", name)
				}
				checkDepth(t, name, gt, rdepth, w, h)
			})
		}
	})
}

// noiseIn runs the sensor noise of form — noiseAVX512 under
// avx512vnni where the CPU has VBMI2, noiseWalk otherwise — over pix on
// the stream n.
func noiseIn(form string, pix []uint8, n *rng.RNG) {
	if form == tensor.TierAVX512VNNI && tensor.HasAVX512VBMI() && len(pix) > 0 {
		noiseAVX512(&pix[0], len(pix), n.Skip(0))
		return
	}
	noiseWalk(pix, n)
}

// checkNoise holds the sensor noise, in each form, to refSensorNoise's
// per-byte loop on a copy of pix, over the sensor stream of seed. The
// copy starts a buffer that goes on with 0 or 255 sentinels, which no
// form may move.
func checkNoise(t *testing.T, seed uint64, pix []uint8) {
	want := bytes.Clone(pix)
	refSensorNoise(&imgproc.Image{Pix: want}, rng.New(seed))
	for _, form := range renderForms() {
		for _, s := range []uint8{0, 255} {
			buf := append(bytes.Clone(pix), bytes.Repeat([]uint8{s}, 64)...)
			got := buf[:len(pix)]
			noiseIn(form, got, rng.New(seed).Split("sensor"))
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("%s: seed %d, %d bytes: byte %d = %d, per-byte loop %d", form, seed, len(pix), i, got[i], want[i])
			}
			for i, v := range buf[len(pix):] {
				if v != s {
					t.Fatalf("%s: seed %d, %d bytes: sentinel %d past the frame's end became %d", form, seed, len(pix), i, v)
				}
			}
		}
	}
}

// hitDraw is the index in the sensor stream of seed of the draw that
// tests byte i, and whether that byte is perturbed: the per-byte loop,
// counting.
func hitDraw(seed uint64, i int) (draw int, hit bool) {
	n := rng.New(seed).Split("sensor")
	for b := 0; ; b++ {
		hit = n.Uint64()>>11 < noiseOdds
		if b == i {
			return draw, hit
		}
		draw++
		if hit {
			n.Uint64()
			draw++
		}
	}
}

// TestSensorNoiseBlockEdges pins, by seed, the walk's two edges: a hit
// on a block's draw 63, whose byte waits for the next block's z[0], and
// a hit on the frame's last byte.
func TestSensorNoiseBlockEdges(t *testing.T) {
	const seed = 3 // byte 43 is a hit on draw 45, byte 59 a hit on draw 63
	for _, c := range []struct {
		name      string
		n, at, dr int
	}{
		{"pending mid-frame", 300, 59, 63},
		{"pending last byte", 60, 59, 63},
		{"hit on the last byte", 44, 43, 45},
	} {
		if d, hit := hitDraw(seed, c.at); !hit || d != c.dr {
			t.Fatalf("%s: seed %d's byte %d: draw %d, hit %v — the case no longer pins its edge", c.name, seed, c.at, d, hit)
		}
		pix := make([]uint8, c.n)
		for i := range pix {
			pix[i] = uint8(i * 37)
		}
		checkNoise(t, seed, pix)
	}
}

// unmix inverts rng.Mix: each xorshift is undone by iterating it, each
// multiply by the inverse of its odd multiplier modulo 2⁶⁴.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := 0; i < 3; i++ {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c // right modulo 2³; Newton's step doubles the bits
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(rng.MixMul2)
	z = unshift(z, 27) * inverse(rng.MixMul1)
	return unshift(z, 30)
}

// TestNoiseBlockThreshold puts the draws on either side of the hit
// threshold, z = noiseOdds<<11 − 1 and noiseOdds<<11, at draw 0 of a
// stream: the block fill must take z>>11 < noiseOdds exactly, which no
// random draw comes near enough to tell, and each form of the noise
// over that stream must equal the per-byte loop's Bool(0.1).
func TestNoiseBlockThreshold(t *testing.T) {
	for _, c := range []struct {
		z   uint64
		hit uint64
	}{{noiseOdds<<11 - 1, 1}, {noiseOdds << 11, 0}, {0, 1}, {1<<64 - 1, 0}} {
		base := unmix(c.z) - rng.Gamma
		var z [64]uint64
		if hits := noiseBlockGo(&z, base); z[0] != c.z || hits&1 != c.hit {
			t.Fatalf("draw 0 = %#x (want %#x), hit bit %d, want %d", z[0], c.z, hits&1, c.hit)
		}
		stream := func() *rng.RNG { return rng.New(base - rng.Gamma - rng.Gamma) } // New advances its seed two draws
		want := make([]uint8, 300)
		for i := range want {
			want[i] = uint8(i * 37)
		}
		pix := bytes.Clone(want)
		refNoise(want, stream())
		for _, form := range renderForms() {
			got := bytes.Clone(pix)
			noiseIn(form, got, stream())
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: draw 0 = %#x: the noise differs from the per-byte loop", form, c.z)
			}
		}
	}
}

// TestHitRunsMatchSequential holds hitRuns, block after block through
// its carry, to the sequential walk it stands for — a draw after a hit
// perturbs, any other draw below the threshold is a hit — on masks far
// denser than the noise's 10 %: all ones (hits on the even or the odd
// draws by the carry), runs of odd and even length ending at bit 63,
// a perturbation at bit 63 or at bit 0 past a mask's end, alternating
// bits, and random masks of 25–94 % ones.
func TestHitRunsMatchSequential(t *testing.T) {
	ones := ^uint64(0)
	words := []uint64{ones, ones, 1 << 63, ones, 3 << 62, ones >> 1, 7 << 61, 1 << 63, 1,
		0, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 1 << 63, 0xAAAAAAAAAAAAAAAA, ones << 1, ones >> 2}
	r := rng.New(13)
	for k := 0; k < 4000; k++ {
		switch k % 4 {
		case 0:
			words = append(words, r.Uint64()&r.Uint64())
		case 1:
			words = append(words, r.Uint64())
		case 2:
			words = append(words, r.Uint64()|r.Uint64())
		default:
			words = append(words, r.Uint64()|r.Uint64()|r.Uint64()|r.Uint64())
		}
	}
	var carry uint64
	perturbs := false // the next draw perturbs
	for i, c := range words {
		var wh, wp uint64
		for j := 0; j < 64; j++ {
			switch {
			case perturbs:
				wp |= 1 << j
				perturbs = false
			case c>>j&1 == 1:
				wh |= 1 << j
				perturbs = true
			}
		}
		h, p, next := hitRuns(c, carry)
		if h != wh || p != wp || (next == 1) != perturbs || next > 1 {
			t.Fatalf("block %d, c = %#x, carry %d: h %#x p %#x carry %d; sequential h %#x p %#x carry %v", i, c, carry, h, p, next, wh, wp, perturbs)
		}
		carry = next
	}
}

// FuzzSensorNoise holds both block forms of the walk to the per-byte
// loop for any seed, any bytes, and frames of 0–4096 bytes, so the frame
// ends at every position within a block.
func FuzzSensorNoise(f *testing.F) {
	f.Add(uint64(3), uint16(60), []byte{0, 255, 128})
	f.Add(uint64(1), uint16(4096), []byte{250, 3})
	f.Add(uint64(7), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, fill []byte) {
		pix := make([]uint8, int(n)%4097)
		for i := range pix {
			if len(fill) > 0 {
				pix[i] = fill[i%len(fill)]
			} else {
				pix[i] = uint8(i)
			}
		}
		checkNoise(t, seed, pix)
	})
}

// FuzzGroundRow holds both forms of groundRow over one Skip of the row,
// as drawBackground runs it, to the per-pixel shade(ground, haze·n) with
// Float64 draws, for any stream state, widths 0–700 (every tail past the
// runs of eight, 0–7), any ground colour and haze, clamping at both
// ends.
func FuzzGroundRow(f *testing.F) {
	f.Add(uint64(1), uint16(320), byte(150), byte(148), byte(142), 0.9)
	f.Add(uint64(2), uint16(13), byte(255), byte(0), byte(90), -0.3)
	f.Add(uint64(3), uint16(7), byte(255), byte(255), byte(255), 1.8)
	f.Add(uint64(4), uint16(700), byte(1), byte(2), byte(3), 40.0)
	f.Fuzz(func(t *testing.T, seed uint64, w16 uint16, r, g, b byte, haze float64) {
		if math.IsNaN(haze) || math.Abs(haze) > 1e300 {
			t.Skip("haze·n·colour must be a number: drawBackground's haze is in (0, 1]")
		}
		w := int(w16) % 701
		tab := newGroundTab([3]uint8{r, g, b})
		want := make([]uint8, 3*w)
		ref := rng.New(seed)
		for x := 0; x < w; x++ {
			n := 1 + (ref.Float64()-0.5)*0.12
			want[3*x], want[3*x+1], want[3*x+2] = shade(tab.rgb, haze*n)
		}
		next := ref.Uint64()
		for _, form := range renderForms() {
			got := make([]uint8, 3*w)
			noise := rng.New(seed)
			groundRow(got, noise.Skip(w), haze, &tab, form == tensor.TierAVX512VNNI)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: seed %d, w %d, colour %v, haze %v: row differs from the per-pixel loop", form, seed, w, tab.rgb, haze)
			}
			if noise.Uint64() != next {
				t.Fatalf("%s: seed %d, w %d: the stream ends elsewhere than the per-pixel loop's", form, seed, w)
			}
		}
	})
}

// BenchmarkRenderLoops times the three rewritten loops and the whole
// frame against their references, on one 320×240 frame, in each form:
// background/<form>, lighting/<form>, noise/<form>, frame/<form>.
func BenchmarkRenderLoops(b *testing.B) {
	s := busyScene(Footpath, Clear, 0.9, 5)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	frame, _ := Render(s, cam)
	tex := rng.New(s.Seed)
	gt := &GroundTruth{}
	depth := make([]float32, cam.W*cam.H)
	cases := []struct {
		name string
		fn   func(im *imgproc.Image)
	}{
		{"background/ref", func(im *imgproc.Image) { refDrawBackground(im, depth, s, cam, tex) }},
		{"background", func(im *imgproc.Image) { gt.rects = gt.rects[:0]; drawBackground(im, gt, s, cam, tex) }},
		{"lighting/ref", func(im *imgproc.Image) { refApplyLighting(im, 0.9) }},
		{"lighting", func(im *imgproc.Image) { applyLighting(im, 0.9) }},
		{"noise/ref", func(im *imgproc.Image) { refSensorNoise(im, tex) }},
		{"noise", func(im *imgproc.Image) { sensorNoise(im, tex) }},
		{"frame/ref", func(*imgproc.Image) { refRender(s, cam) }},
		{"frame", func(*imgproc.Image) { Render(s, cam) }},
	}
	for _, form := range renderForms() {
		inTier(b, form, func() {
			for _, c := range cases {
				name := c.name
				if !strings.HasSuffix(name, "/ref") {
					name += "/" + form
				} else if form != tensor.TierGeneric {
					continue // the references run no tier-bound code
				}
				b.Run(name, func(b *testing.B) {
					im := frame.Clone()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.fn(im)
					}
				})
			}
		})
	}
}
