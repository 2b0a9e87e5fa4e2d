package scene

import (
	"math"
	"math/bits"
	"sort"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// Camera is a pinhole projection model at drone-handheld height, with
// the DJI Tello's optics at every frame size: a focal length of 0.9 H
// pixels and the horizon at horizonFrac of the frame height.
type Camera struct {
	W, H    int
	HeightM float64 // camera height above ground
}

// horizonFrac is the horizon row as a fraction of the frame height.
const horizonFrac = 0.42

// DefaultCamera returns a camera matching the DJI Tello's 720p feed scaled
// to the requested frame size.
func DefaultCamera(w, h int, camHeight float64) Camera {
	return Camera{W: w, H: h, HeightM: camHeight}
}

// focalPx returns the focal length in pixels.
func (c Camera) focalPx() float64 { return float64(c.H) * 0.9 }

// horizonY returns the horizon row in pixels.
func (c Camera) horizonY() float64 { return horizonFrac * float64(c.H) }

// ProjectGround maps a ground point at lateral offset x (m) and depth d
// (m) to pixel coordinates.
func (c Camera) ProjectGround(x, d float64) (px, py float64) {
	px = float64(c.W)/2 + c.focalPx()*x/d
	py = c.horizonY() + c.focalPx()*c.HeightM/d
	return px, py
}

// GroundDepthAtRow inverts the ground projection: the depth of the ground
// plane visible at pixel row y (rows above the horizon return +inf).
func (c Camera) GroundDepthAtRow(y int) float64 {
	dy := float64(y) - c.horizonY()
	if dy <= 0.5 {
		return math.Inf(1)
	}
	return c.focalPx() * c.HeightM / dy
}

// skyDepth is the depth (metres) the render gives the sky and every
// row the ground plane does not reach: effectively infinite.
const skyDepth = 1000

// rowDepth is the depth of the background at row y: skyDepth above the
// horizon row and where GroundDepthAtRow is +Inf, the ground plane's
// depth otherwise.
func (c Camera) rowDepth(y int) float32 {
	if y < int(c.horizonY()) {
		return skyDepth
	}
	d := c.GroundDepthAtRow(y)
	if math.IsInf(d, 1) {
		return skyDepth
	}
	return float32(d)
}

// depthRect is one depth write of the render: every pixel of r (clamped
// to the frame, non-empty) is at depth d.
type depthRect struct {
	r imgproc.Rect
	d float32
}

// DepthAt returns the metric depth (metres) at pixel (x, y): that of the
// last depth write covering the pixel — clutter buildings, then each
// entity in painter's order, then the occluder — or else its row's
// background depth. It is the value a dense W×H map, painted in that
// order, would hold.
func (gt *GroundTruth) DepthAt(x, y int) float32 {
	for i := len(gt.rects) - 1; i >= 0; i-- {
		if r := gt.rects[i].r; x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1 {
			return gt.rects[i].d
		}
	}
	return gt.cam.rowDepth(y)
}

// Render draws the scene through the camera and returns the frame plus
// ground truth. Rendering is deterministic for a given (scene, camera).
func Render(s *Scene, cam Camera) (*imgproc.Image, *GroundTruth) {
	im := imgproc.NewImage(cam.W, cam.H)
	// One depth write a building and an entity at most, and the occluder.
	gt := &GroundTruth{cam: cam, rects: make([]depthRect, 0, len(s.Entities)+max(buildings(s), 0)+1)}
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

	applyCondition(im, gt, s, cam, texRNG)
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

// skyTone is the sky's base brightness: the gradient runs from 0.75 of
// it at the top of the frame to all of it at the horizon.
const skyTone = 200

func drawBackground(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	w, h := cam.W, cam.H
	horizon := int(cam.horizonY())
	g := &groundTabs[min(uint(s.Background), uint(len(groundTabs)-1))]
	vec := imgproc.VectorForm()
	noise := texRNG.Split("ground-texture")
	for y := 0; y < h; y++ {
		if y < horizon {
			// Sky gradient, brighter toward horizon.
			f := float64(y) / float64(horizon)
			v := float64(skyTone)*0.75 + float64(skyTone)*0.25*f
			im.FillRect(imgproc.Rect{X0: 0, Y0: y, X1: w, Y1: y + 1}, uint8(v*0.92), uint8(v*0.96), uint8(v))
			continue
		}
		// Ground with distance haze and speckle texture.
		row := im.Pix[y*w*3 : (y+1)*w*3]
		haze := 1.0 / (1.0 + cam.GroundDepthAtRow(y)/80)
		groundRow(row, noise.Skip(w), haze, g, vec)
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
	// The Intn bounds are at least 1, so a frame under ten pixels wide or
	// five tall draws zero where it used to panic.
	if s.Clutter > 0 {
		bRNG := texRNG.Split("buildings")
		n := buildings(s)
		for i := 0; i < n; i++ {
			bw := bRNG.Intn(max(w/6, 1)) + w/12
			bx := bRNG.Intn(w)
			bh := bRNG.Intn(max(horizon/2, 1)) + horizon/8
			tone := uint8(90 + bRNG.Intn(70))
			box := imgproc.Rect{X0: bx, Y0: horizon - bh, X1: bx + bw, Y1: horizon}
			im.FillRect(box, tone, tone, uint8(float64(tone)*1.05))
			writeDepthRect(gt, w, h, box, 200)
		}
		// Tree blobs straddling the horizon.
		tRNG := texRNG.Split("trees")
		for i := 0; i < n/2+1; i++ {
			tx := tRNG.Intn(w)
			tw := tRNG.Intn(max(w/10, 1)) + w/20
			box := imgproc.Rect{X0: tx, Y0: horizon - tw/2, X1: tx + tw, Y1: horizon + tw/4}
			im.FillEllipse(box, 40, uint8(80+tRNG.Intn(40)), 35)
		}
	}
}

// buildings is the number of clutter buildings drawBackground draws.
func buildings(s *Scene) int {
	if s.Clutter > 0 {
		return int(s.Clutter*8) + 2
	}
	return 0
}

// applyLighting multiplies the frame by the scene's ambient factor.
func applyLighting(im *imgproc.Image, f float64) {
	if f == 1 || f <= 0 {
		return
	}
	toneMap(im, func(v float64) uint8 { return uint8(min(v*f, 255)) })
}

// toneMap replaces every byte v of the frame with tone(v), tabulated
// once.
func toneMap(im *imgproc.Image, tone func(v float64) uint8) {
	var lut [256]uint8
	for v := range lut {
		lut[v] = tone(float64(v))
	}
	imgproc.MapBytes(im.Pix, &lut)
}

// noiseOdds is the share of bytes sensorNoise perturbs, as a threshold
// on the 53 bits behind rng.Float64: float64(k)/2⁵³ < 0.1 exactly when
// k < ⌈0.1·2⁵³⌉, since both the conversion and the division are exact.
const noiseOdds = 900719925474100

// sensorNoise injects light shot noise so frames are never synthetic-clean.
// Each byte takes one draw, k = Uint64()>>11; when k < noiseOdds the next
// draw moves it by Intn(11) − 5 (perturb). The AVX-512 form needs VBMI2's
// VPCOMPRESSB, which the avx512vnni tier's check does not cover.
func sensorNoise(im *imgproc.Image, r *rng.RNG) {
	n := r.Split("sensor")
	if len(im.Pix) > 0 && imgproc.VectorForm() && tensor.HasAVX512VBMI() {
		noiseAVX512(&im.Pix[0], len(im.Pix), n.Skip(0)) // n's state; n dies over-drawn
		return
	}
	noiseWalk(im.Pix, n)
}

// hitRuns gives each draw of a 64-draw block, bit j for draw j, its
// role. c marks the draws below the hit threshold; carry is 1 when the
// block's draw 0 perturbs the byte that a hit on the previous block's
// draw 63 tested. A test draw that misses ends its byte unmoved; one
// that hits leaves the byte to the next draw, which perturbs and ends
// it. So in each run of c the first, third, … draws are hits, counted
// from the draw after a carried perturbation: simdjson's escaped-
// character identity (Langdale and Lemire, VLDB J. 2019), hits for
// escapes. It returns the hits h — the only draws that end no byte —
// the perturbations p and the carry into the next block.
func hitRuns(c, carry uint64) (h, p, next uint64) {
	const odd = 0xAAAAAAAAAAAAAAAA
	starts := c &^ carry
	code := ((starts<<1 | odd) - starts) ^ odd
	h = code & c
	return h, code ^ (c | carry), h >> 63
}

// noiseWalk is sensorNoise's Go form on the stream n, 64 draws at a
// time: a block fill makes draws z[0..64) from one Skip and the mask of
// those below the threshold, hitRuns their roles, and every draw but a
// hit ends the next byte — perturbing it when it is a perturbation. A
// hit on draw 63 leaves its byte to the next block's draw 0. The last
// block over-draws n, which dies with the call.
func noiseWalk(pix []uint8, n *rng.RNG) {
	var z [64]uint64
	var carry uint64
	for i := 0; i < len(pix); {
		var h, p uint64
		h, p, carry = hitRuns(noiseBlockGo(&z, n.Skip(64)), carry)
		ends := ^h
		for m := p; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if b := i + bits.OnesCount64(ends&(1<<j-1)); b < len(pix) {
				pix[b] = perturb(pix[b], z[j])
			}
		}
		i += bits.OnesCount64(ends)
	}
}

// noiseSteps is the number of ways a perturbation moves a byte:
// Intn(noiseSteps) − noiseSteps/2, that is −5 … +5.
const noiseSteps = 11

// perturb moves a byte by Intn(noiseSteps) − noiseSteps/2 drawn from z,
// clamped to a byte.
func perturb(p uint8, z uint64) uint8 {
	return uint8(min(max(int(p)+int((z>>32)*noiseSteps>>32)-noiseSteps/2, 0), 255))
}

// noiseBlockGo is the block fill's Go form: z[j] = Mix(base+(j+1)·Gamma)
// and bit j of hits set when z[j]>>11 < noiseOdds, i.e. z[j] <
// noiseOdds<<11. The mask is built from bit 63 down with a constant
// shift; a borrow is the comparison without a branch.
func noiseBlockGo(z *[64]uint64, base uint64) (hits uint64) {
	for j := 63; j >= 0; j-- {
		v := rng.Mix(base + uint64(j+1)*rng.Gamma)
		z[j] = v
		_, lt := bits.Sub64(v, noiseOdds<<11, 0)
		hits = hits<<1 | lt
	}
	return hits
}

// speckle is the ground texture's amplitude: a pixel is the ground
// colour times haze·(1 + (u − 0.5)·speckle), u one Float64 draw.
const speckle = 0.12

// groundTab is a ground colour and, for groundRowAVX512, the colour of
// each channel of a run of eight RGB pixels, as three 8-lane vectors.
type groundTab struct {
	pat [3][8]float64
	rgb [3]uint8
}

func newGroundTab(c [3]uint8) (t groundTab) {
	t.rgb = c
	for k := 0; k < 24; k++ { // channel k of the run is pixel k/3's channel k%3
		t.pat[k/8][k%8] = float64(c[k%3])
	}
	return t
}

// groundTabs holds each background's walking-surface colour; any other
// background takes the last entry, black.
var groundTabs = [...]groundTab{
	Footpath:     newGroundTab([3]uint8{150, 148, 142}), // concrete paving
	Path:         newGroundTab([3]uint8{146, 120, 88}),  // packed earth
	RoadSide:     newGroundTab([3]uint8{90, 90, 95}),    // asphalt
	RoadSide + 1: {},
}

// groundRow shades the len(row)/3 ground pixels of row from the draws
// Mix(base+(x+1)·Gamma): the per-pixel shade(ground, haze·n) with n from
// noise.Float64(). vec runs the runs of eight in the AVX-512 form, which
// performs the same float64 operations in the same order; the rest, or
// all of the row, in Go.
func groundRow(row []uint8, base uint64, haze float64, g *groundTab, vec bool) {
	x := 0
	if n8 := len(row) / 24; vec && n8 > 0 {
		groundRowAVX512(&row[0], n8, base, haze, g)
		x = 8 * n8
	}
	for ; x < len(row)/3; x++ {
		u := float64(rng.Mix(base+uint64(x+1)*rng.Gamma)>>11) / (1 << 53)
		n := 1 + (u-0.5)*speckle
		row[x*3], row[x*3+1], row[x*3+2] = shade(g.rgb, haze*n)
	}
}

// writeDepthRect records a depth write: the part of r inside the w×h
// frame is at depth d. A write that misses the frame records nothing.
func writeDepthRect(gt *GroundTruth, w, h int, r imgproc.Rect, d float64) {
	if r = r.Clamp(w, h); !r.Empty() {
		gt.rects = append(gt.rects, depthRect{r, float32(d)})
	}
}
