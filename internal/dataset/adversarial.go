package dataset

import (
	"fmt"
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

// AttackKind enumerates the adversarial conditions of Table 1 category 5:
// "Low light, blur, cropped image, etc.".
type AttackKind int

const (
	// NoAttack leaves the frame untouched.
	NoAttack AttackKind = iota
	// LowLight scales brightness down to dusk levels.
	LowLight
	// Blur applies a Gaussian blur (motion/defocus stand-in).
	Blur
	// CroppedImage crops a sub-window that still contains the vest.
	CroppedImage
	// Tilted rotates the frame (drone roll).
	Tilted
	// LowLightBlur combines dimming and blur — the hardest condition.
	LowLightBlur
	// Fog washes contrast out toward a haze tone with mild blur (the
	// "etc." in Table 1's adversarial row).
	Fog
	numAttackKinds
)

// String returns the attack name as used in reports.
func (k AttackKind) String() string {
	switch k {
	case NoAttack:
		return "none"
	case LowLight:
		return "low-light"
	case Blur:
		return "blur"
	case CroppedImage:
		return "cropped"
	case Tilted:
		return "tilted"
	case LowLightBlur:
		return "low-light+blur"
	case Fog:
		return "fog"
	default:
		return fmt.Sprintf("attack(%d)", int(k))
	}
}

// Attack is a fully parameterised adversarial transform.
type Attack struct {
	Kind       AttackKind
	Brightness float64 // LowLight factor
	Sigma      float64 // Blur sigma
	CropFrac   float64 // retained fraction per axis for CroppedImage
	AngleRad   float64 // Tilted angle
}

// randomAttack draws an attack with paper-plausible severity.
func randomAttack(r *rng.RNG) Attack {
	kind := AttackKind(1 + r.Intn(int(numAttackKinds)-1))
	a := Attack{Kind: kind}
	switch kind {
	case LowLight:
		a.Brightness = r.Range(0.2, 0.45)
	case Blur:
		a.Sigma = r.Range(1.5, 3.5)
	case CroppedImage:
		a.CropFrac = r.Range(0.55, 0.8)
	case Tilted:
		a.AngleRad = r.Range(-0.35, 0.35)
		if math.Abs(a.AngleRad) < 0.1 {
			a.AngleRad = 0.15
		}
	case LowLightBlur:
		a.Brightness = r.Range(0.25, 0.5)
		a.Sigma = r.Range(1.0, 2.5)
	case Fog:
		a.Brightness = r.Range(0.6, 0.8) // haze density (lower = thicker)
		a.Sigma = r.Range(0.5, 1.2)
	}
	return a
}

// applyFog blends the frame toward a uniform haze tone and softens it:
// out = density·pixel + (1-density)·haze, then a light blur.
func applyFog(im *imgproc.Image, density, sigma float64) *imgproc.Image {
	const haze = 205.0
	out := im.Clone()
	for i, v := range out.Pix {
		out.Pix[i] = uint8(density*float64(v) + (1-density)*haze)
	}
	imgproc.GaussianBlur(out, sigma)
	return out
}

// ApplyAttack transforms the frame and maps the ground truth through the
// same transform so evaluation stays consistent.
func ApplyAttack(im *imgproc.Image, gt *scene.GroundTruth, a Attack, r *rng.RNG) (*imgproc.Image, *scene.GroundTruth) {
	switch a.Kind {
	case NoAttack:
		return im, gt
	case LowLight:
		out := imgproc.AdjustBrightness(im, a.Brightness)
		imgproc.AddGaussianNoise(out, 4, r) // sensor noise dominates in the dark
		return out, gt
	case Blur:
		out := im.Clone()
		imgproc.GaussianBlur(out, a.Sigma)
		return out, gt
	case LowLightBlur:
		out := imgproc.AdjustBrightness(im, a.Brightness)
		imgproc.GaussianBlur(out, a.Sigma)
		imgproc.AddGaussianNoise(out, 4, r)
		return out, gt
	case Tilted:
		out := imgproc.Rotate(im, a.AngleRad)
		ngt := *gt
		ngt.VestBox = imgproc.RotateRect(gt.VestBox, im.W, im.H, a.AngleRad).Clamp(im.W, im.H)
		ngt.PersonBox = imgproc.RotateRect(gt.PersonBox, im.W, im.H, a.AngleRad).Clamp(im.W, im.H)
		for i, kp := range gt.Keypoints {
			x, y := rotatePoint(kp.X, kp.Y, im.W, im.H, a.AngleRad)
			ngt.Keypoints[i] = scene.Keypoint{X: x, Y: y,
				Visible: kp.Visible && x >= 0 && x < float64(im.W) && y >= 0 && y < float64(im.H)}
		}
		return out, &ngt
	case CroppedImage:
		return applyCrop(im, gt, a, r)
	case Fog:
		return applyFog(im, a.Brightness, a.Sigma), gt
	default:
		panic(fmt.Sprintf("dataset: unknown attack %v", a.Kind))
	}
}

func rotatePoint(x, y float64, w, h int, angle float64) (float64, float64) {
	sin, cos := math.Sin(angle), math.Cos(angle)
	cx, cy := float64(w)/2, float64(h)/2
	dx, dy := x-cx, y-cy
	return cx + dx*cos - dy*sin, cy + dx*sin + dy*cos
}

// applyCrop crops a window that keeps (most of) the vest in frame, then
// resizes back to the original dimensions; boxes scale accordingly.
func applyCrop(im *imgproc.Image, gt *scene.GroundTruth, a Attack, r *rng.RNG) (*imgproc.Image, *scene.GroundTruth) {
	cw := int(float64(im.W) * a.CropFrac)
	ch := int(float64(im.H) * a.CropFrac)
	if cw < 8 || ch < 8 {
		return im, gt
	}
	// Centre the window near the vest with jitter, clamped in-frame.
	vcx, vcy := gt.VestBox.Center()
	if gt.VestBox.Empty() {
		vcx, vcy = float64(im.W)/2, float64(im.H)/2
	}
	x0 := int(vcx) - cw/2 + r.Intn(cw/4+1) - cw/8
	y0 := int(vcy) - ch/2 + r.Intn(ch/4+1) - ch/8
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x0+cw > im.W {
		x0 = im.W - cw
	}
	if y0+ch > im.H {
		y0 = im.H - ch
	}
	win := imgproc.Rect{X0: x0, Y0: y0, X1: x0 + cw, Y1: y0 + ch}
	cropped := imgproc.Crop(im, win)
	out := imgproc.Resize(cropped, im.W, im.H)

	sx := float64(im.W) / float64(cw)
	sy := float64(im.H) / float64(ch)
	mapRect := func(rc imgproc.Rect) imgproc.Rect {
		return imgproc.Rect{
			X0: int(float64(rc.X0-x0) * sx), Y0: int(float64(rc.Y0-y0) * sy),
			X1: int(float64(rc.X1-x0) * sx), Y1: int(float64(rc.Y1-y0) * sy),
		}.Clamp(im.W, im.H)
	}
	ngt := *gt
	ngt.VestBox = mapRect(gt.VestBox.Intersect(win))
	ngt.PersonBox = mapRect(gt.PersonBox.Intersect(win))
	for i, kp := range gt.Keypoints {
		nx := (kp.X - float64(x0)) * sx
		ny := (kp.Y - float64(y0)) * sy
		ngt.Keypoints[i] = scene.Keypoint{X: nx, Y: ny,
			Visible: kp.Visible && nx >= 0 && nx < float64(im.W) && ny >= 0 && ny < float64(im.H)}
	}
	ngt.HasVIP = gt.HasVIP && !ngt.VestBox.Empty()
	return out, &ngt
}
