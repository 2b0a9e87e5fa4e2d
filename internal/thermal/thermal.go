package thermal

import (
	"fmt"
	"math"

	"ocularone/internal/detect"
	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

// Camera describes the simulated LWIR sensor.
type Camera struct {
	// AmbientC is the background temperature.
	AmbientC float64
	// BodyC is the apparent skin/clothing temperature of a person.
	BodyC float64
	// EngineC is the residual warmth of a parked car.
	EngineC float64
	// NETD is the sensor noise (1σ, °C) — noise-equivalent temperature
	// difference.
	NETD float64
}

// DefaultCamera matches a small uncooled microbolometer.
func DefaultCamera() Camera {
	return Camera{AmbientC: 18, BodyC: 31, EngineC: 22, NETD: 0.15}
}

// Image is a radiometric frame: per-pixel temperatures in °C.
type Image struct {
	W, H  int
	TempC []float32
}

// At returns the temperature at (x, y), clamped at the border.
func (im *Image) At(x, y int) float64 {
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
	return float64(im.TempC[y*im.W+x])
}

// Render produces the thermal frame for a rendered scene: ambient
// background with distance falloff, warm people (VIP and pedestrians),
// lukewarm car bodies, and sensor noise. Illumination does not enter —
// that is the modality's whole point.
func Render(cam Camera, gt *scene.GroundTruth, w, h int, r *rng.RNG) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("thermal: %dx%d frame", w, h))
	}
	im := &Image{W: w, H: h, TempC: make([]float32, w*h)}
	for i := range im.TempC {
		im.TempC[i] = float32(cam.AmbientC + r.NormRange(0, cam.NETD))
	}
	paint := func(box imgproc.Rect, tempC float64) {
		box = box.Clamp(w, h)
		// Atmospheric attenuation: apparent contrast shrinks with range.
		var depth float64 = 8
		if !box.Empty() {
			cx, cy := box.Center()
			depth = float64(gt.DepthAt(int(cx), int(cy)))
		}
		atten := math.Exp(-depth / 60)
		apparent := cam.AmbientC + (tempC-cam.AmbientC)*atten
		for y := box.Y0; y < box.Y1; y++ {
			for x := box.X0; x < box.X1; x++ {
				im.TempC[y*w+x] = float32(apparent + r.NormRange(0, cam.NETD))
			}
		}
	}
	for i, box := range gt.DistractorBoxes {
		var kind scene.EntityKind = scene.Pedestrian
		if i < len(gt.DistractorKinds) {
			kind = gt.DistractorKinds[i]
		}
		switch kind {
		case scene.Pedestrian:
			paint(box, cam.BodyC)
		case scene.ParkedCar:
			paint(box, cam.EngineC)
		}
	}
	if gt.HasVIP {
		paint(gt.PersonBox, cam.BodyC)
	}
	return im
}

// WarmBodies segments regions warmer than ambient by at least deltaC and
// returns their boxes, the thermal person detector.
func WarmBodies(im *Image, ambientC, deltaC float64) []imgproc.Rect {
	mask := make([]bool, im.W*im.H)
	for i, t := range im.TempC {
		if float64(t) >= ambientC+deltaC {
			mask[i] = true
		}
	}
	return blobs(mask, im.W, im.H, 12)
}

// blobs extracts 4-connected regions of at least minArea pixels.
func blobs(mask []bool, w, h, minArea int) []imgproc.Rect {
	visited := make([]bool, len(mask))
	var out []imgproc.Rect
	var queue []int
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		area := 0
		box := imgproc.Rect{X0: w, Y0: h}
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			px, py := p%w, p/w
			area++
			if px < box.X0 {
				box.X0 = px
			}
			if py < box.Y0 {
				box.Y0 = py
			}
			if px+1 > box.X1 {
				box.X1 = px + 1
			}
			if py+1 > box.Y1 {
				box.Y1 = py + 1
			}
			for _, q := range [4]int{p - 1, p + 1, p - w, p + w} {
				if q < 0 || q >= len(mask) {
					continue
				}
				if (q == p-1 && px == 0) || (q == p+1 && px == w-1) {
					continue
				}
				if mask[q] && !visited[q] {
					visited[q] = true
					queue = append(queue, q)
				}
			}
		}
		if area >= minArea {
			out = append(out, box)
		}
	}
	return out
}

// candidateScore is the confidence assigned to thermal-only proposals:
// deliberately below any real vest detection so the tracker prefers
// vision when both agree.
const candidateScore = 0.25

// FuseCandidates augments the vision detections with thermal proposals
// when the visible frame is too dark for colour detection (mean luma
// below lumaGate). Thermal cannot see the vest, so proposals carry a
// low candidate score and only fill in when vision is silent.
func FuseCandidates(vision []detect.Box, warm []imgproc.Rect, frameLuma, lumaGate float64) []detect.Box {
	if len(vision) > 0 || frameLuma >= lumaGate {
		return vision
	}
	out := make([]detect.Box, 0, len(warm))
	for _, b := range warm {
		out = append(out, detect.Box{Rect: b, Score: candidateScore})
	}
	return out
}
