package scene

import (
	"testing"
)

// meanLuma returns the frame's mean pixel value.
func meanLuma(pix []uint8) float64 {
	var sum float64
	for _, v := range pix {
		sum += float64(v)
	}
	return sum / float64(len(pix))
}

// TestClearConditionIsNoOp pins the composability contract: the zero
// value Condition renders bit for bit what the renderer produced
// before conditions existed.
func TestClearConditionIsNoOp(t *testing.T) {
	a := vipScene(8)
	b := vipScene(8)
	b.Condition = Clear
	cam := DefaultCamera(320, 240, a.CamHeightM)
	ia, _ := Render(a, cam)
	ib, _ := Render(b, cam)
	for i := range ia.Pix {
		if ia.Pix[i] != ib.Pix[i] {
			t.Fatalf("clear condition diverged at pixel byte %d", i)
		}
	}
}

// TestNightDarkens: night frames are substantially darker than clear
// ones, with ground truth untouched.
func TestNightDarkens(t *testing.T) {
	s := vipScene(8)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	clear, gtc := Render(s, cam)
	s.Condition = Night
	night, gtn := Render(s, cam)
	if ml, mc := meanLuma(night.Pix), meanLuma(clear.Pix); ml > 0.5*mc {
		t.Fatalf("night mean luma %v not well below clear %v", ml, mc)
	}
	if !gtn.HasVIP || gtn.PersonBox != gtc.PersonBox {
		t.Fatal("night render changed ground truth")
	}
}

// TestRainWashesContrast: rain lifts dark pixels (gray wash) and keeps
// dimensions and ground truth.
func TestRainWashesContrast(t *testing.T) {
	s := vipScene(8)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	clear, _ := Render(s, cam)
	s.Condition = Rain
	rain, gt := Render(s, cam)
	if rain.W != clear.W || rain.H != clear.H {
		t.Fatalf("rain changed frame dims to %dx%d", rain.W, rain.H)
	}
	if !gt.HasVIP {
		t.Fatal("rain render lost the VIP ground truth")
	}
	// The wash maps v -> 0.72v + 52, so a mostly mid-tone frame gets
	// brighter in the dark end; compare 10th-percentile-ish via min.
	var minC, minR uint8 = 255, 255
	for i := range clear.Pix {
		if clear.Pix[i] < minC {
			minC = clear.Pix[i]
		}
		if rain.Pix[i] < minR {
			minR = rain.Pix[i]
		}
	}
	if minR <= minC {
		t.Fatalf("rain wash did not lift the dark end: min %d vs clear %d", minR, minC)
	}
}

// TestOcclusionCoversVIP: the occluder overwrites a large share of the
// VIP's box with near-uniform foreground pixels while the ground-truth
// labels still report the VIP.
func TestOcclusionCoversVIP(t *testing.T) {
	s := vipScene(8)
	cam := DefaultCamera(320, 240, s.CamHeightM)
	clear, _ := Render(s, cam)
	s.Condition = Occlusion
	occ, gt := Render(s, cam)
	if !gt.HasVIP || gt.PersonBox.Empty() {
		t.Fatal("occlusion render dropped the VIP ground truth")
	}
	box := gt.PersonBox.Clamp(occ.W, occ.H)
	changed := 0
	total := 0
	for y := box.Y0; y < box.Y1; y++ {
		for x := box.X0; x < box.X1; x++ {
			total++
			cr, cg, cb := clear.At(x, y)
			or, og, ob := occ.At(x, y)
			if cr != or || cg != og || cb != ob {
				changed++
			}
		}
	}
	if total == 0 || float64(changed)/float64(total) < 0.25 {
		t.Fatalf("occluder changed only %d/%d VIP-box pixels", changed, total)
	}
	// The occluder must sit nearer than the VIP in the depth map.
	mid := (box.Y0 + box.Y1) / 2
	foundNear := false
	for x := box.X0; x < box.X1; x++ {
		if d := gt.DepthAt(x, mid); d > 0 && d < 8*0.7 {
			foundNear = true
			break
		}
	}
	if !foundNear {
		t.Fatal("no occluder depth nearer than the VIP written into the depth map")
	}
	_, rdepth := refRender(s, cam)
	checkDepth(t, "occlusion", gt, rdepth, cam.W, cam.H)
}

// TestConditionStrings covers the enum surface.
func TestConditionStrings(t *testing.T) {
	want := map[Condition]string{Clear: "clear", Night: "night", Rain: "rain", Occlusion: "occlusion"}
	for c, w := range want {
		if c.String() != w {
			t.Fatalf("condition %d string %q, want %q", int(c), c.String(), w)
		}
	}
	if len(AllConditions()) != int(NumConditions) {
		t.Fatalf("AllConditions lists %d of %d", len(AllConditions()), NumConditions)
	}
}

// AllConditions lists every condition in rendering order, for studies
// that sweep them.
func AllConditions() []Condition { return []Condition{Clear, Night, Rain, Occlusion} }

// NumConditions is the number of conditions.
const NumConditions = Occlusion + 1
