package scene

import (
	"math"
	"sort"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
)

// Camera is a pinhole projection model at drone-handheld height.
type Camera struct {
	W, H    int
	FocalPx float64 // focal length in pixels
	HeightM float64 // camera height above ground
	Horizon float64 // horizon row as a fraction of H
}

// DefaultCamera returns a camera matching the DJI Tello's 720p feed scaled
// to the requested frame size.
func DefaultCamera(w, h int, camHeight float64) Camera {
	return Camera{W: w, H: h, FocalPx: float64(h) * 0.9, HeightM: camHeight, Horizon: 0.42}
}

// horizonY returns the horizon row in pixels.
func (c Camera) horizonY() float64 { return c.Horizon * float64(c.H) }

// ProjectGround maps a ground point at lateral offset x (m) and depth d
// (m) to pixel coordinates.
func (c Camera) ProjectGround(x, d float64) (px, py float64) {
	px = float64(c.W)/2 + c.FocalPx*x/d
	py = c.horizonY() + c.FocalPx*c.HeightM/d
	return px, py
}

// ProjectAt maps a point at height hm above the ground (lateral x, depth
// d) to pixel coordinates.
func (c Camera) ProjectAt(x, hm, d float64) (px, py float64) {
	px = float64(c.W)/2 + c.FocalPx*x/d
	py = c.horizonY() + c.FocalPx*(c.HeightM-hm)/d
	return px, py
}

// GroundDepthAtRow inverts the ground projection: the depth of the ground
// plane visible at pixel row y (rows above the horizon return +inf).
func (c Camera) GroundDepthAtRow(y int) float64 {
	dy := float64(y) - c.horizonY()
	if dy <= 0.5 {
		return math.Inf(1)
	}
	return c.FocalPx * c.HeightM / dy
}

// Render draws the scene through the camera and returns the frame plus
// ground truth. Rendering is deterministic for a given (scene, camera).
func Render(s *Scene, cam Camera) (*imgproc.Image, *GroundTruth) {
	im := imgproc.NewImage(cam.W, cam.H)
	gt := &GroundTruth{Depth: make([]float32, cam.W*cam.H)}
	texRNG := rng.New(s.Seed)

	drawBackground(im, gt, s, cam, texRNG)

	// Painter's algorithm: far entities first.
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
	applyLighting(im, s.Lighting)
	sensorNoise(im, texRNG)
	return im, gt
}

// shade multiplies a base colour by a factor, clamping to 8 bits.
func shade(c [3]uint8, f float64) (uint8, uint8, uint8) {
	cl := func(v float64) uint8 {
		if v <= 0 {
			return 0
		}
		if v >= 255 {
			return 255
		}
		return uint8(v)
	}
	return cl(float64(c[0]) * f), cl(float64(c[1]) * f), cl(float64(c[2]) * f)
}

func drawBackground(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	w, h := cam.W, cam.H
	horizon := int(cam.horizonY())
	skyTone := s.SkyTone
	if skyTone == 0 {
		skyTone = 200
	}
	var ground [3]uint8
	switch s.Background {
	case Footpath:
		ground = [3]uint8{150, 148, 142} // concrete paving
	case Path:
		ground = [3]uint8{146, 120, 88} // packed earth
	case RoadSide:
		ground = [3]uint8{90, 90, 95} // asphalt
	}
	noise := texRNG.Split("ground-texture")
	for y := 0; y < h; y++ {
		depth := gt.Depth[y*w : (y+1)*w]
		if y < horizon {
			// Sky gradient, brighter toward horizon.
			f := float64(y) / float64(horizon)
			v := float64(skyTone)*0.75 + float64(skyTone)*0.25*f
			im.FillRect(imgproc.Rect{X0: 0, Y0: y, X1: w, Y1: y + 1}, uint8(v*0.92), uint8(v*0.96), uint8(v))
			for x := range depth {
				depth[x] = 1000 // effectively infinite
			}
			continue
		}
		// Ground with distance haze and speckle texture.
		row := im.Pix[y*w*3 : (y+1)*w*3]
		d := cam.GroundDepthAtRow(y)
		haze := 1.0 / (1.0 + d/80)
		d32 := float32(d)
		if math.IsInf(d, 1) {
			d32 = 1000
		}
		for x := range depth {
			n := 1 + (noise.Float64()-0.5)*0.12
			row[x*3], row[x*3+1], row[x*3+2] = shade(ground, haze*n)
			depth[x] = d32
		}
	}
	// Grass / verge strips flanking the walkway for footpath and path.
	if s.Background != RoadSide {
		verge := [3]uint8{58, 110, 48}
		for y := horizon; y < h; y++ {
			d := cam.GroundDepthAtRow(y)
			if math.IsInf(d, 1) {
				continue
			}
			// Walkway spans ±2.2 m around the camera axis.
			exl, _ := cam.ProjectGround(-2.2, d)
			exr, _ := cam.ProjectGround(2.2, d)
			haze := 1.0 / (1.0 + d/80)
			gr, gg, gb := shade(verge, haze)
			im.FillRect(imgproc.Rect{X0: 0, Y0: y, X1: int(exl), Y1: y + 1}, gr, gg, gb)
			im.FillRect(imgproc.Rect{X0: int(exr), Y0: y, X1: w, Y1: y + 1}, gr, gg, gb)
		}
	} else {
		// Lane marking along the road edge.
		for y := horizon + 2; y < h; y += 1 {
			d := cam.GroundDepthAtRow(y)
			if math.IsInf(d, 1) || int(d)%3 == 0 { // dashed
				continue
			}
			mx, _ := cam.ProjectGround(-2.8, d)
			im.Set(int(mx), y, 220, 220, 210)
			im.Set(int(mx)+1, y, 220, 220, 210)
		}
	}
	// Distant buildings / tree line above the horizon, scaled by Clutter.
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
		// Tree blobs straddling the horizon.
		tRNG := texRNG.Split("trees")
		for i := 0; i < n/2+1; i++ {
			tx := tRNG.Intn(w)
			tw := tRNG.Intn(w/10) + w/20
			box := imgproc.Rect{X0: tx, Y0: horizon - tw/2, X1: tx + tw, Y1: horizon + tw/4}
			im.FillEllipse(box, 40, uint8(80+tRNG.Intn(40)), 35)
		}
	}
}

// applyLighting multiplies the frame by the scene's ambient factor.
func applyLighting(im *imgproc.Image, f float64) {
	if f == 1 || f <= 0 {
		return
	}
	var lut [256]uint8
	for v := range lut {
		lut[v] = uint8(min(float64(v)*f, 255))
	}
	pix := im.Pix
	for i, v := range pix {
		pix[i] = lut[v]
	}
}

// noiseOdds is the share of bytes sensorNoise perturbs, as a threshold
// on the 53 bits behind rng.Float64: float64(k)/2⁵³ < 0.1 exactly when
// k < ⌈0.1·2⁵³⌉, since both the conversion and the division are exact.
const noiseOdds = 900719925474100

// sensorNoise injects light shot noise so frames are never synthetic-clean.
func sensorNoise(im *imgproc.Image, r *rng.RNG) {
	n := r.Split("sensor")
	pix := im.Pix
	for i := range pix {
		if n.Uint64()>>11 < noiseOdds {
			pix[i] = uint8(min(max(int(pix[i])+n.Intn(11)-5, 0), 255))
		}
	}
}

// writeDepthRect fills the depth map for an entity's screen box.
func writeDepthRect(gt *GroundTruth, w, h int, r imgproc.Rect, d float64) {
	r = r.Clamp(w, h)
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			gt.Depth[y*w+x] = float32(d)
		}
	}
}
