package scene

// Degraded-condition rendering: night, rain, and occlusion variants of
// a scene, applied as a post-pass over the drawn entities and before
// the ambient lighting and sensor-noise stages. Every effect draws
// only from condition-labelled splits of the scene's texture stream,
// so the Clear condition (the zero value) renders bit for bit
// identically to a renderer without this file — the same composability
// contract the chaos layer keeps on the serving side.

import (
	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
)

// applyCondition renders the scene's degradation into the frame in
// place. Ground truth is deliberately untouched:
// the VIP is still there behind the dark, the rain, or the occluder —
// that is exactly what makes the conditions a detection-quality probe
// rather than a labelling change.
func applyCondition(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	switch s.Condition {
	case Night:
		applyNight(im, texRNG)
	case Rain:
		applyRain(im, texRNG)
	case Occlusion:
		applyOcclusion(im, gt, s, cam, texRNG)
	}
}

// applyNight darkens the frame to deep-dusk levels and amplifies
// sensor noise — the gain a camera cranks up in the dark.
func applyNight(im *imgproc.Image, texRNG *rng.RNG) {
	for i, v := range im.Pix {
		im.Pix[i] = uint8(float64(v) * 0.28)
	}
	imgproc.AddGaussianNoise(im, 10, texRNG.Split("night-gain"))
}

// applyRain washes contrast toward gray, streaks the frame with rain,
// and softens it with a light blur (droplets on the lens).
func applyRain(im *imgproc.Image, texRNG *rng.RNG) {
	for i, v := range im.Pix {
		nv := float64(v)*0.72 + 52
		if nv > 255 {
			nv = 255
		}
		im.Pix[i] = uint8(nv)
	}
	r := texRNG.Split("rain-streaks")
	n := im.W * im.H / 250
	for i := 0; i < n; i++ {
		x := r.Intn(im.W)
		y := r.Intn(im.H)
		l := 3 + r.Intn(6)
		for dy := 0; dy < l && y+dy < im.H; dy++ {
			pr, pg, pb := im.At(x, y+dy)
			im.Set(x, y+dy,
				uint8(min255(int(pr)+45)), uint8(min255(int(pg)+45)), uint8(min255(int(pb)+50)))
		}
	}
	imgproc.GaussianBlur(im, 1.1)
}

// applyOcclusion drops a foreground obstruction (a passerby's torso, a
// pillar) over roughly 40% of the VIP's box, nearer to the camera than
// the VIP so the depth map stays physically consistent. Without a VIP
// it is a no-op.
func applyOcclusion(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, texRNG *rng.RNG) {
	if !gt.HasVIP || gt.PersonBox.Area() == 0 {
		return
	}
	var vipDepth float64 = 8
	for i := range s.Entities {
		if s.Entities[i].Kind == VIP {
			vipDepth = s.Entities[i].Depth
			break
		}
	}
	r := texRNG.Split("occluder")
	box := gt.PersonBox
	w := box.W() * 2 / 5
	if w < 2 {
		w = 2
	}
	x0 := box.X0
	if r.Bool(0.5) {
		x0 = box.X1 - w
	}
	occ := imgproc.Rect{X0: x0, Y0: box.Y0 - 2, X1: x0 + w, Y1: box.Y1 + 2}
	occ = occ.Clamp(im.W, im.H)
	tone := uint8(55 + r.Intn(30))
	im.FillRect(occ, tone, tone, uint8(float64(tone)*0.92))
	writeDepthRect(gt, im.W, im.H, occ, vipDepth*0.6)
}

func min255(v int) int {
	if v > 255 {
		return 255
	}
	return v
}
