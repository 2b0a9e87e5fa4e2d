package scene

import (
	"math"
	"runtime"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
)

func vipScene(depth float64) *Scene {
	return &Scene{
		Background: Footpath,
		Lighting:   1.0,
		CamHeightM: 1.6,
		Seed:       42,
		Entities: []Entity{{
			Kind: VIP, X: 0, Depth: depth, HeightM: 1.7, Pose: Standing,
			Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
		}},
	}
}

func TestRenderProducesVIPGroundTruth(t *testing.T) {
	s := vipScene(8)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	im, gt := Render(s, cam)
	if im.W != 320 || im.H != 240 {
		t.Fatalf("frame dims %dx%d", im.W, im.H)
	}
	if !gt.HasVIP {
		t.Fatal("VIP not recorded in ground truth")
	}
	if gt.VestBox.Empty() {
		t.Fatal("vest box empty")
	}
	if gt.PersonBox.Empty() {
		t.Fatal("person box empty")
	}
	if gt.VestBox.Intersect(gt.PersonBox).Area() != gt.VestBox.Area() {
		t.Fatalf("vest box %+v not inside person box %+v", gt.VestBox, gt.PersonBox)
	}
}

func TestVestPixelsAreNeon(t *testing.T) {
	s := vipScene(6)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	im, gt := Render(s, cam)
	// Sample the vest box; the dominant hue must be in the neon band.
	neon := 0
	total := 0
	for y := gt.VestBox.Y0; y < gt.VestBox.Y1; y++ {
		for x := gt.VestBox.X0; x < gt.VestBox.X1; x++ {
			r, g, b := im.At(x, y)
			h, sat, v := imgproc.RGBToHSV(r, g, b)
			total++
			if h > 55 && h < 95 && sat > 0.5 && v > 0.5 {
				neon++
			}
		}
	}
	if total == 0 {
		t.Fatal("empty vest box")
	}
	frac := float64(neon) / float64(total)
	if frac < 0.55 { // stripes and noise take some pixels
		t.Fatalf("only %.0f%% of vest pixels neon", frac*100)
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := vipScene(10)
	cam := DefaultCamera(160, 120, s.CamHeightM)
	im1, _ := Render(s, cam)
	im2, _ := Render(s, cam)
	for i := range im1.Pix {
		if im1.Pix[i] != im2.Pix[i] {
			t.Fatalf("render not deterministic at byte %d", i)
		}
	}
}

func TestPerspectiveScaling(t *testing.T) {
	near := vipScene(5)
	far := vipScene(20)
	cam := DefaultCamera(320, 240, 1.6)
	_, gtNear := Render(near, cam)
	_, gtFar := Render(far, cam)
	hNear := gtNear.PersonBox.H()
	hFar := gtFar.PersonBox.H()
	if hNear <= hFar {
		t.Fatalf("near person (%dpx) not larger than far person (%dpx)", hNear, hFar)
	}
	ratio := float64(hNear) / float64(hFar)
	if ratio < 3 || ratio > 5 { // 20/5 = 4× expected
		t.Fatalf("perspective ratio %v, want ~4", ratio)
	}
}

func TestGroundDepthMonotone(t *testing.T) {
	cam := DefaultCamera(320, 240, 1.6)
	prev := math.Inf(1)
	for y := int(cam.horizonY()) + 2; y < 240; y += 10 {
		d := cam.GroundDepthAtRow(y)
		if d >= prev {
			t.Fatalf("ground depth not decreasing down the frame: row %d d=%v prev=%v", y, d, prev)
		}
		prev = d
	}
}

func TestDepthMapConsistency(t *testing.T) {
	s := vipScene(8)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	// Depth inside the person box equals the entity depth.
	cx, cy := gt.PersonBox.Center()
	d := gt.DepthAt(int(cx), int(cy))
	if math.Abs(float64(d)-8) > 0.01 {
		t.Fatalf("person depth = %v, want 8", d)
	}
	// Sky depth is the far sentinel.
	if d := gt.DepthAt(0, 0); d < 500 {
		t.Fatalf("sky depth = %v", d)
	}
	_, rdepth := refRender(s, cam)
	checkDepth(t, "vip at 8 m", gt, rdepth, cam.W, cam.H)
}

// TestRenderByteBudget: a frame's depth is geometry, so Render allocates
// the image and little else — no W×H depth plane (4 bytes a pixel).
func TestRenderByteBudget(t *testing.T) {
	const runs = 20
	cam := DefaultCamera(320, 240, 1.6)
	imageBytes := uint64(3 * cam.W * cam.H)
	for _, cond := range []Condition{Clear, Occlusion} {
		s := busyScene(Footpath, cond, 0.85, 7)
		s.Clutter = 1
		Render(s, cam) // warm the kernel-tier and split paths
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Render(s, cam)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		if per > imageBytes+16<<10 {
			t.Fatalf("%v: Render allocates %d bytes a 320x240 frame, budget %d (image %d + 16 KB)", cond, per, imageBytes+16<<10, imageBytes)
		}
		t.Logf("%v: %d bytes a frame, the image %d of them", cond, per, imageBytes)
	}
}

func TestKeypointsOrdering(t *testing.T) {
	s := vipScene(6)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	head := gt.Keypoints[KPHead]
	ankle := gt.Keypoints[KPLeftAnkle]
	hip := gt.Keypoints[KPPelvis]
	if !head.Visible || !ankle.Visible || !hip.Visible {
		t.Fatal("core keypoints not visible")
	}
	if !(head.Y < hip.Y && hip.Y < ankle.Y) {
		t.Fatalf("standing keypoints out of order: head %v hip %v ankle %v", head.Y, hip.Y, ankle.Y)
	}
}

func TestFallenPoseGeometry(t *testing.T) {
	s := vipScene(6)
	s.Entities[0].Pose = Fallen
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	if gt.Pose != Fallen {
		t.Fatal("pose not recorded")
	}
	if gt.PersonBox.W() <= gt.PersonBox.H() {
		t.Fatalf("fallen person not wider than tall: %+v", gt.PersonBox)
	}
	// Standing comparison: height dominates.
	s2 := vipScene(6)
	_, gt2 := Render(s2, cam)
	if gt2.PersonBox.H() <= gt2.PersonBox.W() {
		t.Fatalf("standing person not taller than wide: %+v", gt2.PersonBox)
	}
}

func TestWalkingSeparatesAnkles(t *testing.T) {
	s := vipScene(5)
	s.Entities[0].Pose = Walking
	s.Entities[0].WalkPhase = 0.25 // peak gait
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	sep := math.Abs(gt.Keypoints[KPLeftAnkle].X - gt.Keypoints[KPRightAnkle].X)
	s2 := vipScene(5)
	_, gt2 := Render(s2, cam)
	sepStand := math.Abs(gt2.Keypoints[KPLeftAnkle].X - gt2.Keypoints[KPRightAnkle].X)
	if sep <= sepStand {
		t.Fatalf("walking ankle separation %v not larger than standing %v", sep, sepStand)
	}
}

func TestDistractorsRecordedNotVIP(t *testing.T) {
	s := vipScene(8)
	s.Entities = append(s.Entities,
		Entity{Kind: Pedestrian, X: 2, Depth: 10, HeightM: 1.7, Shirt: [3]uint8{160, 60, 60}, Pants: [3]uint8{30, 30, 30}},
		Entity{Kind: Bicycle, X: -2, Depth: 12, HeightM: 1.0},
		Entity{Kind: ParkedCar, X: 3, Depth: 15, HeightM: 1.5},
	)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	if len(gt.DistractorBoxes) != 3 {
		t.Fatalf("distractors = %d, want 3", len(gt.DistractorBoxes))
	}
	if !gt.HasVIP {
		t.Fatal("VIP lost among distractors")
	}
}

func TestNoVIPScene(t *testing.T) {
	s := vipScene(8)
	s.Entities[0].Kind = Pedestrian
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	if gt.HasVIP || !gt.VestBox.Empty() {
		t.Fatal("pedestrian-only scene claims a VIP")
	}
}

func TestDistractorsContainNoNeonPixels(t *testing.T) {
	// Zero-false-positive invariant: no non-VIP object may render in the
	// neon vest band.
	s := &Scene{
		Background: RoadSide, Lighting: 1.0, CamHeightM: 1.6, Seed: 7, Clutter: 0.8,
		Entities: []Entity{
			{Kind: Pedestrian, X: 0, Depth: 6, HeightM: 1.8, Shirt: [3]uint8{200, 200, 200}, Pants: [3]uint8{30, 30, 30}},
			{Kind: ParkedCar, X: 2.5, Depth: 9, HeightM: 1.5},
			{Kind: Bicycle, X: -2, Depth: 7, HeightM: 1.0},
		},
	}
	cam := DefaultCamera(320, 240, s.CamHeightM)
	im, _ := Render(s, cam)
	neon := 0
	for i := 0; i < len(im.Pix); i += 3 {
		h, sat, v := imgproc.RGBToHSV(im.Pix[i], im.Pix[i+1], im.Pix[i+2])
		if h > 60 && h < 90 && sat > 0.75 && v > 0.75 {
			neon++
		}
	}
	if neon > 0 {
		t.Fatalf("%d neon pixels in a VIP-free scene", neon)
	}
}

func TestLightingDarkensFrame(t *testing.T) {
	bright := vipScene(8)
	dark := vipScene(8)
	dark.Lighting = 0.3
	cam := DefaultCamera(160, 120, 1.6)
	imB, _ := Render(bright, cam)
	imD, _ := Render(dark, cam)
	if imD.Luma() >= imB.Luma()*0.5 {
		t.Fatalf("lighting 0.3 not dark enough: %v vs %v", imD.Luma(), imB.Luma())
	}
}

func TestRandomEntityPlausible(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		e := RandomEntity(r, Pedestrian)
		if e.Depth < 4 || e.Depth > 25 || e.HeightM < 1.5 || e.HeightM > 1.95 {
			t.Fatalf("implausible pedestrian: %+v", e)
		}
	}
	car := RandomEntity(r, ParkedCar)
	if car.HeightM > 1.7 {
		t.Fatalf("car too tall: %v", car.HeightM)
	}
}

func TestBackgroundStrings(t *testing.T) {
	if Footpath.String() != "footpath" || Path.String() != "path" || RoadSide.String() != "side-of-road" {
		t.Fatal("background names wrong")
	}
	if Standing.String() != "standing" || Fallen.String() != "fallen" {
		t.Fatal("pose names wrong")
	}
}

func TestProjectGroundRoundTrip(t *testing.T) {
	cam := DefaultCamera(640, 480, 1.6)
	for _, d := range []float64{3, 8, 20} {
		_, py := cam.ProjectGround(0, d)
		back := cam.GroundDepthAtRow(int(py))
		if math.Abs(back-d)/d > 0.05 {
			t.Fatalf("depth round trip %v → %v", d, back)
		}
	}
}

func TestLampPostRendersAsObstacle(t *testing.T) {
	s := &Scene{
		Background: Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: 44,
		Entities: []Entity{{Kind: LampPost, X: 1.8, Depth: 5, HeightM: 4.0}},
	}
	cam := DefaultCamera(320, 240, s.CamHeightM)
	_, gt := Render(s, cam)
	if len(gt.DistractorBoxes) != 1 {
		t.Fatalf("lamp post boxes %d", len(gt.DistractorBoxes))
	}
	if gt.DistractorKinds[0] != LampPost {
		t.Fatalf("kind %v", gt.DistractorKinds[0])
	}
	box := gt.DistractorBoxes[0]
	// Tall and thin.
	if box.H() < box.W()*4 {
		t.Fatalf("lamp post not tall/thin: %+v", box)
	}
	// Depth written at the pole.
	cx, cy := box.Center()
	if d := gt.DepthAt(int(cx), int(cy)); d < 4.9 || d > 5.1 {
		t.Fatalf("pole depth %v, want 5", d)
	}
}

func TestRandomLampPostPlausible(t *testing.T) {
	r := rng.New(45)
	for i := 0; i < 50; i++ {
		e := RandomEntity(r, LampPost)
		if e.HeightM < 3.5 || e.HeightM > 4.5 {
			t.Fatalf("lamp height %v", e.HeightM)
		}
		if e.X < 1.6 || e.X > 2.4 {
			t.Fatalf("lamp lateral %v, want walkway edge", e.X)
		}
	}
}
