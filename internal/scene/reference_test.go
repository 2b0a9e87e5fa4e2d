package scene

// The per-pixel render loops as they were before the table-driven
// rewrite, kept as oracles: Render must reproduce refRender's frame and
// depth map byte for byte.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
)

func refRender(s *Scene, cam Camera) (*imgproc.Image, *GroundTruth) {
	im := imgproc.NewImage(cam.W, cam.H)
	gt := &GroundTruth{Depth: make([]float32, cam.W*cam.H)}
	texRNG := rng.New(s.Seed)

	refDrawBackground(im, gt, s, cam, texRNG)

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

	im = applyCondition(im, gt, s, cam, texRNG)
	refApplyLighting(im, s.Lighting)
	refSensorNoise(im, texRNG)
	return im, gt
}

func refDrawBackground(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	w, h := cam.W, cam.H
	horizon := int(cam.horizonY())
	skyTone := s.SkyTone
	if skyTone == 0 {
		skyTone = 200
	}
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
				gt.Depth[idx] = 1000
				continue
			}
			haze := 1.0 / (1.0 + d/80)
			n := 1 + (noise.Float64()-0.5)*0.12
			r8, g8, b8 := shade(ground, haze*n)
			im.Set(x, y, r8, g8, b8)
			if math.IsInf(d, 1) {
				gt.Depth[idx] = 1000
			} else {
				gt.Depth[idx] = float32(d)
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
			bw := bRNG.Intn(w/6) + w/12
			bx := bRNG.Intn(w)
			bh := bRNG.Intn(horizon/2) + horizon/8
			tone := uint8(90 + bRNG.Intn(70))
			box := imgproc.Rect{X0: bx, Y0: horizon - bh, X1: bx + bw, Y1: horizon}
			im.FillRect(box, tone, tone, uint8(float64(tone)*1.05))
			for yy := box.Y0; yy < box.Y1; yy++ {
				for xx := box.X0; xx < box.X1 && xx < w; xx++ {
					if xx >= 0 {
						gt.Depth[yy*w+xx] = 200
					}
				}
			}
		}
		tRNG := texRNG.Split("trees")
		for i := 0; i < n/2+1; i++ {
			tx := tRNG.Intn(w)
			tw := tRNG.Intn(w/10) + w/20
			box := imgproc.Rect{X0: tx, Y0: horizon - tw/2, X1: tx + tw, Y1: horizon + tw/4}
			im.FillEllipse(box, 40, uint8(80+tRNG.Intn(40)), 35)
		}
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

func refSensorNoise(im *imgproc.Image, r *rng.RNG) {
	n := r.Split("sensor")
	for i := range im.Pix {
		if n.Bool(0.1) {
			d := int(im.Pix[i]) + n.Intn(11) - 5
			if d < 0 {
				d = 0
			} else if d > 255 {
				d = 255
			}
			im.Pix[i] = uint8(d)
		}
	}
}

// busyScene is a frame with one entity of every kind in it.
func busyScene(bg Background, cond Condition, lighting float64, seed uint64) *Scene {
	r := rng.New(seed)
	s := &Scene{
		Background: bg, Condition: cond, Lighting: lighting,
		CamHeightM: r.Range(1.2, 2.4), Clutter: r.Float64(), Seed: seed,
		SkyTone: uint8(r.Intn(256)), // 0 selects the default tone
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
					rim, rgt := refRender(s, cam)
					name := fmt.Sprintf("%v/%v/light %v/%dx%d", bg, cond, lighting, dim[0], dim[1])
					if !bytes.Equal(im.Pix, rim.Pix) {
						t.Fatalf("%s: frame differs from the reference", name)
					}
					for i, d := range gt.Depth {
						if math.Float32bits(d) != math.Float32bits(rgt.Depth[i]) {
							t.Fatalf("%s: depth[%d] = %v, reference %v", name, i, d, rgt.Depth[i])
						}
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

// BenchmarkRenderLoops times the three rewritten loops and the whole
// frame against their references, on one 320×240 frame.
func BenchmarkRenderLoops(b *testing.B) {
	s := busyScene(Footpath, Clear, 0.9, 5)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	frame, _ := Render(s, cam)
	tex := rng.New(s.Seed)
	gt := &GroundTruth{Depth: make([]float32, cam.W*cam.H)}
	for _, c := range []struct {
		name string
		fn   func(im *imgproc.Image)
	}{
		{"background/ref", func(im *imgproc.Image) { refDrawBackground(im, gt, s, cam, tex) }},
		{"background/new", func(im *imgproc.Image) { drawBackground(im, gt, s, cam, tex) }},
		{"lighting/ref", func(im *imgproc.Image) { refApplyLighting(im, 0.9) }},
		{"lighting/new", func(im *imgproc.Image) { applyLighting(im, 0.9) }},
		{"noise/ref", func(im *imgproc.Image) { refSensorNoise(im, tex) }},
		{"noise/new", func(im *imgproc.Image) { sensorNoise(im, tex) }},
		{"frame/ref", func(*imgproc.Image) { refRender(s, cam) }},
		{"frame/new", func(*imgproc.Image) { Render(s, cam) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			im := frame.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.fn(im)
			}
		})
	}
}
