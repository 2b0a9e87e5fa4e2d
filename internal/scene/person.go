package scene

import (
	"math"

	"ocularone/internal/imgproc"
)

// vestStripe is the reflective band colour on the hazard vest.
var vestStripe = [3]uint8{205, 205, 215}

// drawPerson renders a person (optionally wearing the hazard vest) and,
// for the VIP, records ground truth: vest box, person box, keypoints.
func drawPerson(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, e *Entity, isVIP bool) {
	if e.Pose == Fallen {
		drawFallenPerson(im, gt, s, cam, e, isVIP)
		return
	}
	d := e.Depth
	ph := cam.focalPx() * e.HeightM / d // person height in pixels
	if ph < 4 {
		return // sub-pixel person; skip
	}
	baseX, baseY := cam.ProjectGround(e.X, d)
	bx, by := baseX, baseY

	// Proportions as fractions of body height.
	headR := 0.066 * ph
	shoulderY := by - 0.80*ph
	hipY := by - 0.47*ph
	halfTorso := 0.13 * ph
	halfHip := 0.09 * ph

	// Legs (under everything else). Walking separates the ankles.
	gait := 0.0
	if e.Pose == Walking {
		gait = 0.10 * ph * math.Abs(math.Sin(2*math.Pi*e.WalkPhase))
	}
	legW := int(math.Max(1, 0.05*ph))
	pr, pg, pb := shade(e.Pants, 1)
	leftAnkleX := bx - halfHip - gait
	rightAnkleX := bx + halfHip + gait
	fillThickLine(im, bx-halfHip, hipY, leftAnkleX, by, legW, pr, pg, pb)
	fillThickLine(im, bx+halfHip, hipY, rightAnkleX, by, legW, pr, pg, pb)

	// Torso.
	sr, sg, sb := shade(e.Shirt, 1)
	torso := imgproc.Rect{
		X0: int(bx - halfTorso), Y0: int(shoulderY),
		X1: int(bx + halfTorso), Y1: int(hipY),
	}
	im.FillRect(torso, sr, sg, sb)

	// Arms.
	armW := int(math.Max(1, 0.04*ph))
	handY := by - 0.40*ph
	fillThickLine(im, bx-halfTorso, shoulderY+2, bx-0.19*ph, handY, armW, sr, sg, sb)
	fillThickLine(im, bx+halfTorso, shoulderY+2, bx+0.19*ph, handY, armW, sr, sg, sb)

	// Head.
	im.FillEllipse(imgproc.Rect{
		X0: int(bx - headR), Y0: int(by - ph),
		X1: int(bx + headR), Y1: int(by - ph + 2*headR),
	}, 224, 180, 150)

	var vest imgproc.Rect
	if isVIP {
		// Hazard vest: neon panel over the torso with two vertical
		// reflective stripes — the detector's target signature.
		vr, vg, vb := VestColor()
		vest = imgproc.Rect{
			X0: int(bx - halfTorso*1.15), Y0: int(shoulderY + 0.015*ph),
			X1: int(bx + halfTorso*1.15), Y1: int(hipY - 0.02*ph),
		}
		im.FillRect(vest, vr, vg, vb)
		stripeW := int(math.Max(1, 0.025*ph))
		for _, off := range []float64{-0.06 * ph, 0.06 * ph} {
			im.FillRect(imgproc.Rect{
				X0: int(bx + off), Y0: vest.Y0,
				X1: int(bx+off) + stripeW, Y1: vest.Y1,
			}, vestStripe[0], vestStripe[1], vestStripe[2])
		}
	}

	personBox := imgproc.Rect{
		X0: int(bx - 0.20*ph), Y0: int(by - ph),
		X1: int(bx + 0.20*ph), Y1: int(by),
	}
	writeDepthRect(gt, im.W, im.H, personBox, d)

	if isVIP {
		gt.HasVIP = true
		gt.Pose = e.Pose
		gt.VestBox = vest.Clamp(im.W, im.H)
		gt.PersonBox = personBox.Clamp(im.W, im.H)
		kp := func(x, y float64) Keypoint {
			return Keypoint{X: x, Y: y, Visible: x >= 0 && x < float64(im.W) && y >= 0 && y < float64(im.H)}
		}
		gt.Keypoints[KPHead] = kp(bx, by-ph+headR)
		gt.Keypoints[KPNeck] = kp(bx, shoulderY)
		gt.Keypoints[KPLeftShoulder] = kp(bx-halfTorso, shoulderY)
		gt.Keypoints[KPRightShoulder] = kp(bx+halfTorso, shoulderY)
		gt.Keypoints[KPLeftHip] = kp(bx-halfHip, hipY)
		gt.Keypoints[KPRightHip] = kp(bx+halfHip, hipY)
		gt.Keypoints[KPLeftKnee] = kp((bx-halfHip+leftAnkleX)/2, (hipY+by)/2)
		gt.Keypoints[KPRightKnee] = kp((bx+halfHip+rightAnkleX)/2, (hipY+by)/2)
		gt.Keypoints[KPLeftAnkle] = kp(leftAnkleX, by)
		gt.Keypoints[KPRightAnkle] = kp(rightAnkleX, by)
		gt.Keypoints[KPLeftHand] = kp(bx-0.19*ph, handY)
		gt.Keypoints[KPRightHand] = kp(bx+0.19*ph, handY)
		gt.Keypoints[KPPelvis] = kp(bx, hipY)
	} else {
		gt.DistractorBoxes = append(gt.DistractorBoxes, personBox.Clamp(im.W, im.H))
		gt.DistractorKinds = append(gt.DistractorKinds, Pedestrian)
	}
}

// drawFallenPerson renders a person lying on the ground along the lateral
// axis. The silhouette's aspect ratio inverts (wide, short), which is the
// geometric cue the fall-detection SVM learns.
func drawFallenPerson(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, e *Entity, isVIP bool) {
	d := e.Depth
	bodyLen := cam.focalPx() * e.HeightM / d // body length in pixels, now horizontal
	if bodyLen < 4 {
		return
	}
	baseX, baseY := cam.ProjectGround(e.X, d)
	thick := 0.22 * bodyLen // body thickness on screen
	topY := baseY - thick
	left := baseX - bodyLen/2

	headR := 0.066 * bodyLen
	// Legs (right side), torso (middle), head (left side).
	pr, pg, pb := shade(e.Pants, 0.95)
	im.FillRect(imgproc.Rect{
		X0: int(left + 0.50*bodyLen), Y0: int(topY + thick*0.25),
		X1: int(left + bodyLen), Y1: int(baseY),
	}, pr, pg, pb)
	sr, sg, sb := shade(e.Shirt, 0.95)
	torso := imgproc.Rect{
		X0: int(left + 0.16*bodyLen), Y0: int(topY),
		X1: int(left + 0.52*bodyLen), Y1: int(baseY),
	}
	im.FillRect(torso, sr, sg, sb)
	im.FillEllipse(imgproc.Rect{
		X0: int(left), Y0: int(topY + thick*0.2),
		X1: int(left + 2*headR), Y1: int(topY + thick*0.2 + 2*headR),
	}, 224, 180, 150)

	var vest imgproc.Rect
	if isVIP {
		vr, vg, vb := VestColor()
		vest = imgproc.Rect{
			X0: int(left + 0.18*bodyLen), Y0: int(topY + thick*0.05),
			X1: int(left + 0.50*bodyLen), Y1: int(baseY - thick*0.05),
		}
		im.FillRect(vest, vr, vg, vb)
		stripeH := int(math.Max(1, 0.025*bodyLen))
		for _, off := range []float64{0.3, 0.6} {
			y0 := int(topY + thick*off)
			im.FillRect(imgproc.Rect{X0: vest.X0, Y0: y0, X1: vest.X1, Y1: y0 + stripeH},
				vestStripe[0], vestStripe[1], vestStripe[2])
		}
	}

	personBox := imgproc.Rect{
		X0: int(left), Y0: int(topY - headR*0.5),
		X1: int(left + bodyLen), Y1: int(baseY),
	}
	writeDepthRect(gt, im.W, im.H, personBox, d)

	if isVIP {
		gt.HasVIP = true
		gt.Pose = Fallen
		gt.VestBox = vest.Clamp(im.W, im.H)
		gt.PersonBox = personBox.Clamp(im.W, im.H)
		kp := func(x, y float64) Keypoint {
			return Keypoint{X: x, Y: y, Visible: x >= 0 && x < float64(im.W) && y >= 0 && y < float64(im.H)}
		}
		midY := (topY + baseY) / 2
		gt.Keypoints[KPHead] = kp(left+headR, midY)
		gt.Keypoints[KPNeck] = kp(left+0.18*bodyLen, midY)
		gt.Keypoints[KPLeftShoulder] = kp(left+0.20*bodyLen, topY+thick*0.2)
		gt.Keypoints[KPRightShoulder] = kp(left+0.20*bodyLen, baseY-thick*0.2)
		gt.Keypoints[KPLeftHip] = kp(left+0.52*bodyLen, topY+thick*0.3)
		gt.Keypoints[KPRightHip] = kp(left+0.52*bodyLen, baseY-thick*0.3)
		gt.Keypoints[KPLeftKnee] = kp(left+0.72*bodyLen, topY+thick*0.3)
		gt.Keypoints[KPRightKnee] = kp(left+0.72*bodyLen, baseY-thick*0.3)
		gt.Keypoints[KPLeftAnkle] = kp(left+0.97*bodyLen, topY+thick*0.3)
		gt.Keypoints[KPRightAnkle] = kp(left+0.97*bodyLen, baseY-thick*0.3)
		gt.Keypoints[KPLeftHand] = kp(left+0.40*bodyLen, topY)
		gt.Keypoints[KPRightHand] = kp(left+0.40*bodyLen, baseY)
		gt.Keypoints[KPPelvis] = kp(left+0.52*bodyLen, midY)
	} else {
		gt.DistractorBoxes = append(gt.DistractorBoxes, personBox.Clamp(im.W, im.H))
		gt.DistractorKinds = append(gt.DistractorKinds, Pedestrian)
	}
}

// fillThickLine draws a line with the given stroke width by stamping
// squares along the Bresenham path.
func fillThickLine(im *imgproc.Image, x0, y0, x1, y1 float64, width int, r, g, b uint8) {
	steps := int(math.Max(math.Abs(x1-x0), math.Abs(y1-y0))) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		x := int(x0 + (x1-x0)*t)
		y := int(y0 + (y1-y0)*t)
		im.FillRect(imgproc.Rect{X0: x - width/2, Y0: y - width/2, X1: x + (width+1)/2, Y1: y + (width+1)/2}, r, g, b)
	}
}
