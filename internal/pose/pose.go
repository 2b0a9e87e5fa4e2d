package pose

import (
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/scene"
	"ocularone/internal/svm"
)

// Estimate is the result of pose analysis on one person crop.
type Estimate struct {
	// Silhouette statistics.
	Foreground int     // segmented pixels
	Aspect     float64 // height / width of the silhouette box
	AxisAngle  float64 // principal axis angle, radians from vertical
	HeadHeight float64 // head centroid height relative to the box (1 = top)
	// Keypoints is the derived coarse skeleton (image coordinates).
	Keypoints [scene.NumKeypoints]scene.Keypoint
	// Box is the tight silhouette bounding box.
	Box imgproc.Rect
}

// Features returns the fall-classifier feature vector.
func (e Estimate) Features() []float64 {
	return []float64{e.Aspect, math.Abs(e.AxisAngle), e.HeadHeight}
}

// Analyze segments the person inside box and derives the pose estimate.
// It returns ok=false when segmentation finds no coherent foreground.
func Analyze(im *imgproc.Image, box imgproc.Rect) (Estimate, bool) {
	box = box.Clamp(im.W, im.H)
	if box.W() < 4 || box.H() < 4 {
		return Estimate{}, false
	}
	// Background model: mean colour of the box border ring.
	var br, bg, bb float64
	n := 0
	sample := func(x, y int) {
		r, g, b := im.At(x, y)
		br += float64(r)
		bg += float64(g)
		bb += float64(b)
		n++
	}
	for x := box.X0; x < box.X1; x++ {
		sample(x, box.Y0)
		sample(x, box.Y1-1)
	}
	for y := box.Y0; y < box.Y1; y++ {
		sample(box.X0, y)
		sample(box.X1-1, y)
	}
	if n == 0 {
		return Estimate{}, false
	}
	br /= float64(n)
	bg /= float64(n)
	bb /= float64(n)

	// Foreground = pixels far from the background colour.
	const thr = 45.0
	w := box.W()
	mask := make([]bool, box.W()*box.H())
	fg := 0
	minX, minY, maxX, maxY := box.X1, box.Y1, box.X0, box.Y0
	var sx, sy float64
	for y := box.Y0; y < box.Y1; y++ {
		for x := box.X0; x < box.X1; x++ {
			r, g, b := im.At(x, y)
			d := math.Abs(float64(r)-br) + math.Abs(float64(g)-bg) + math.Abs(float64(b)-bb)
			if d > thr {
				mask[(y-box.Y0)*w+(x-box.X0)] = true
				fg++
				sx += float64(x)
				sy += float64(y)
				if x < minX {
					minX = x
				}
				if x > maxX {
					maxX = x
				}
				if y < minY {
					minY = y
				}
				if y > maxY {
					maxY = y
				}
			}
		}
	}
	if fg < 12 {
		return Estimate{}, false
	}
	cx, cy := sx/float64(fg), sy/float64(fg)

	// Second moments → principal axis.
	var mxx, myy, mxy float64
	for y := box.Y0; y < box.Y1; y++ {
		for x := box.X0; x < box.X1; x++ {
			if !mask[(y-box.Y0)*w+(x-box.X0)] {
				continue
			}
			dx, dy := float64(x)-cx, float64(y)-cy
			mxx += dx * dx
			myy += dy * dy
			mxy += dx * dy
		}
	}
	mxx /= float64(fg)
	myy /= float64(fg)
	mxy /= float64(fg)
	// Major-axis orientation from the x-axis (standard image moments),
	// re-expressed as the deviation from vertical: 0 for an upright
	// person, ±π/2 when lying down.
	theta := 0.5 * math.Atan2(2*mxy, mxx-myy)
	angle := theta - math.Pi/2
	for angle > math.Pi/2 {
		angle -= math.Pi
	}
	for angle < -math.Pi/2 {
		angle += math.Pi
	}

	sil := imgproc.Rect{X0: minX, Y0: minY, X1: maxX + 1, Y1: maxY + 1}
	est := Estimate{
		Foreground: fg,
		Aspect:     float64(sil.H()) / float64(sil.W()),
		AxisAngle:  angle,
		Box:        sil,
	}

	// Head: highest silhouette mass centroid in the top band of the box.
	headBand := sil.H() / 5
	if headBand < 1 {
		headBand = 1
	}
	var hx, hy float64
	hn := 0
	for y := sil.Y0; y < sil.Y0+headBand; y++ {
		for x := sil.X0; x < sil.X1; x++ {
			if y >= box.Y0 && y < box.Y1 && x >= box.X0 && x < box.X1 &&
				mask[(y-box.Y0)*w+(x-box.X0)] {
				hx += float64(x)
				hy += float64(y)
				hn++
			}
		}
	}
	if hn > 0 {
		hx /= float64(hn)
		hy /= float64(hn)
	} else {
		hx, hy = cx, float64(sil.Y0)
	}
	est.HeadHeight = 1 - (hy-float64(sil.Y0))/math.Max(1, float64(sil.H()))

	est.Keypoints = deriveSkeleton(sil, cx, cy, hx, hy)
	return est, true
}

// deriveSkeleton places a coarse 13-point skeleton from silhouette
// geometry: head at the head centroid, shoulders/hips interpolated along
// the body axis, ankles at the silhouette base.
func deriveSkeleton(sil imgproc.Rect, cx, cy, hx, hy float64) [scene.NumKeypoints]scene.Keypoint {
	var kp [scene.NumKeypoints]scene.Keypoint
	set := func(i scene.KeypointName, x, y float64) {
		kp[i] = scene.Keypoint{X: x, Y: y, Visible: true}
	}
	baseY := float64(sil.Y1)
	// Interpolate along head→base axis.
	lerp := func(t float64) (float64, float64) {
		return hx + (cx-hx)*t*2, hy + (baseY-hy)*t
	}
	nx, ny := lerp(0.15)
	set(scene.KPHead, hx, hy)
	set(scene.KPNeck, nx, ny)
	shx, shy := lerp(0.2)
	halfW := float64(sil.W()) * 0.22
	set(scene.KPLeftShoulder, shx-halfW, shy)
	set(scene.KPRightShoulder, shx+halfW, shy)
	px, py := lerp(0.55)
	set(scene.KPPelvis, px, py)
	set(scene.KPLeftHip, px-halfW*0.7, py)
	set(scene.KPRightHip, px+halfW*0.7, py)
	kx, ky := lerp(0.78)
	set(scene.KPLeftKnee, kx-halfW*0.6, ky)
	set(scene.KPRightKnee, kx+halfW*0.6, ky)
	set(scene.KPLeftAnkle, px-halfW*0.5, baseY)
	set(scene.KPRightAnkle, px+halfW*0.5, baseY)
	hhx, hhy := lerp(0.45)
	set(scene.KPLeftHand, hhx-float64(sil.W())*0.45, hhy)
	set(scene.KPRightHand, hhx+float64(sil.W())*0.45, hhy)
	return kp
}

// FallClassifier wraps the SVM over pose features.
type FallClassifier struct {
	Model *svm.Model
}

// TrainFall fits the fall classifier from labelled estimates
// (fallen=true → +1).
func TrainFall(ests []Estimate, fallen []bool, seed uint64) *FallClassifier {
	xs := make([][]float64, len(ests))
	ys := make([]int, len(ests))
	for i, e := range ests {
		xs[i] = e.Features()
		if fallen[i] {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}
	return &FallClassifier{Model: svm.Train(xs, ys, seed)}
}

// IsFallen classifies one pose estimate.
func (f *FallClassifier) IsFallen(e Estimate) bool {
	return f.Model.Predict(e.Features()) == 1
}
