package scene

import (
	"math"

	"ocularone/internal/imgproc"
)

// carPalette deliberately avoids the neon vest hue band.
var carPalette = [][3]uint8{
	{170, 30, 30}, {30, 30, 170}, {200, 200, 205}, {40, 40, 40}, {120, 120, 125},
}

// drawBicycle renders a side-view bicycle: two wheels and a simple frame.
func drawBicycle(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, e *Entity) {
	d := e.Depth
	hPx := cam.focalPx() * e.HeightM / d
	if hPx < 3 {
		return
	}
	baseX, baseY := cam.ProjectGround(e.X, d)
	wheelR := 0.35 * hPx
	wheelbase := 1.05 * hPx
	frame := [3]uint8{30, 30, 35}
	if e.Shirt[0] != 0 || e.Shirt[1] != 0 || e.Shirt[2] != 0 {
		frame = e.Shirt // reuse the entity palette slot for frame colour
	}

	cx1 := baseX - wheelbase/2
	cx2 := baseX + wheelbase/2
	wheelBox := func(cx float64) imgproc.Rect {
		return imgproc.Rect{
			X0: int(cx - wheelR), Y0: int(baseY - 2*wheelR),
			X1: int(cx + wheelR), Y1: int(baseY),
		}
	}
	// Wheels as dark rings (filled dark ellipse with ground-tone core).
	for _, cx := range []float64{cx1, cx2} {
		im.FillEllipse(wheelBox(cx), 25, 25, 28)
		inner := wheelBox(cx)
		shrink := int(wheelR * 0.55)
		inner.X0 += shrink
		inner.Y0 += shrink
		inner.X1 -= shrink
		inner.Y1 -= shrink
		if !inner.Empty() {
			im.FillEllipse(inner, 110, 110, 112)
		}
	}
	// Frame triangle + seat post + handlebar.
	hubY := int(baseY - wheelR)
	topY := int(baseY - 0.95*hPx)
	im.DrawLine(int(cx1), hubY, int(baseX), topY, frame[0], frame[1], frame[2])
	im.DrawLine(int(cx2), hubY, int(baseX), topY, frame[0], frame[1], frame[2])
	im.DrawLine(int(cx1), hubY, int(cx2), hubY, frame[0], frame[1], frame[2])
	im.DrawLine(int(cx1), hubY, int(cx1), topY-int(0.05*hPx), frame[0], frame[1], frame[2])

	box := imgproc.Rect{
		X0: int(cx1 - wheelR), Y0: topY - int(0.05*hPx),
		X1: int(cx2 + wheelR), Y1: int(baseY),
	}
	writeDepthRect(gt, im.W, im.H, box, d)
	gt.DistractorBoxes = append(gt.DistractorBoxes, box.Clamp(im.W, im.H))
	gt.DistractorKinds = append(gt.DistractorKinds, Bicycle)
}

// drawCar renders a parked car in side view: body, cabin, wheels, windows.
func drawCar(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, e *Entity) {
	d := e.Depth
	hPx := cam.focalPx() * e.HeightM / d
	if hPx < 3 {
		return
	}
	baseX, baseY := cam.ProjectGround(e.X, d)
	carLen := 2.9 * hPx
	bodyH := 0.55 * hPx
	cabinH := 0.45 * hPx
	color := carPalette[int(e.Depth*7)%len(carPalette)]

	left := baseX - carLen/2
	bodyTop := baseY - bodyH
	cr, cg, cb := shade(color, 1)
	// Body.
	im.FillRect(imgproc.Rect{
		X0: int(left), Y0: int(bodyTop),
		X1: int(left + carLen), Y1: int(baseY - 0.12*hPx),
	}, cr, cg, cb)
	// Cabin with windows.
	cab := imgproc.Rect{
		X0: int(left + carLen*0.22), Y0: int(bodyTop - cabinH),
		X1: int(left + carLen*0.78), Y1: int(bodyTop),
	}
	im.FillRect(cab, cr, cg, cb)
	win := cab
	win.X0 += int(math.Max(1, 0.04*carLen))
	win.X1 -= int(math.Max(1, 0.04*carLen))
	win.Y0 += int(math.Max(1, 0.1*cabinH))
	im.FillRect(win, 130, 160, 185)
	// Wheels.
	wheelR := 0.16 * hPx
	for _, wx := range []float64{left + carLen*0.2, left + carLen*0.8} {
		im.FillEllipse(imgproc.Rect{
			X0: int(wx - wheelR), Y0: int(baseY - 2*wheelR),
			X1: int(wx + wheelR), Y1: int(baseY),
		}, 20, 20, 22)
	}

	box := imgproc.Rect{
		X0: int(left), Y0: int(bodyTop - cabinH),
		X1: int(left + carLen), Y1: int(baseY),
	}
	writeDepthRect(gt, im.W, im.H, box, d)
	gt.DistractorBoxes = append(gt.DistractorBoxes, box.Clamp(im.W, im.H))
	gt.DistractorKinds = append(gt.DistractorKinds, ParkedCar)
}

// drawLampPost renders a tall thin pole with a luminaire head.
func drawLampPost(im *imgproc.Image, gt *GroundTruth, s *Scene, cam Camera, e *Entity) {
	d := e.Depth
	hPx := cam.focalPx() * e.HeightM / d
	if hPx < 4 {
		return
	}
	baseX, baseY := cam.ProjectGround(e.X, d)
	poleW := math.Max(1, 0.02*hPx)
	pole := imgproc.Rect{
		X0: int(baseX - poleW/2), Y0: int(baseY - hPx),
		X1: int(baseX + poleW/2 + 1), Y1: int(baseY),
	}
	im.FillRect(pole, 70, 72, 76)
	// Luminaire head leaning over the walkway.
	headW := 0.14 * hPx
	im.FillRect(imgproc.Rect{
		X0: int(baseX - headW), Y0: int(baseY - hPx),
		X1: int(baseX + poleW/2), Y1: int(baseY - hPx + 0.035*hPx + 1),
	}, 90, 92, 96)

	box := pole.Union(imgproc.Rect{
		X0: int(baseX - headW), Y0: int(baseY - hPx),
		X1: int(baseX + poleW), Y1: int(baseY - hPx + 0.04*hPx + 1),
	})
	writeDepthRect(gt, im.W, im.H, box, d)
	gt.DistractorBoxes = append(gt.DistractorBoxes, box.Clamp(im.W, im.H))
	gt.DistractorKinds = append(gt.DistractorKinds, LampPost)
}
