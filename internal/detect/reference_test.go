package detect

// The colour matcher, morphology, component search and Detect as they
// were before the table-driven and bit-packed rewrites, kept as
// oracles. They call imgproc's LocalContrastNormalize, Resize and
// RGBToHSV, which that package pins to its own references (RGBToHSV
// over all 2²⁴ colours, the other two on these frame geometries), so
// equality here is equality with the old detector end to end; none of
// them calls a stage of Detect.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ocularone/internal/dataset"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

func (d *Detector) refMatchMask(im *imgproc.Image) []bool {
	mask := make([]bool, im.W*im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			h, s, v := imgproc.RGBToHSV(r, g, b)
			for _, c := range d.Clusters {
				mh, ms, mv := c.effMargins(d.Tier)
				dh := math.Abs(h - c.meanH)
				if dh > 180 {
					dh = 360 - dh
				}
				if dh <= mh*c.stdH && math.Abs(s-c.meanS) <= ms*c.stdS && math.Abs(v-c.meanV) <= mv*c.stdV {
					mask[y*im.W+x] = true
					break
				}
			}
		}
	}
	return mask
}

func refDilate(mask []bool, w, h, r int) []bool {
	out := make([]bool, len(mask))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if !mask[y*w+x] {
				continue
			}
			for dy := -r; dy <= r; dy++ {
				ny := y + dy
				if ny < 0 || ny >= h {
					continue
				}
				for dx := -r; dx <= r; dx++ {
					nx := x + dx
					if nx >= 0 && nx < w {
						out[ny*w+nx] = true
					}
				}
			}
		}
	}
	return out
}

func refErode(mask []bool, w, h, r int) []bool {
	out := make([]bool, len(mask))
	for y := 0; y < h; y++ {
	pixel:
		for x := 0; x < w; x++ {
			for dy := -r; dy <= r; dy++ {
				ny := y + dy
				for dx := -r; dx <= r; dx++ {
					nx := x + dx
					if ny < 0 || ny >= h || nx < 0 || nx >= w || !mask[ny*w+nx] {
						continue pixel
					}
				}
			}
			out[y*w+x] = true
		}
	}
	return out
}

// refComponents extracts 4-connected regions from a mask via BFS, in
// the raster order of their first pixel.
func refComponents(mask []bool, w, h int) []component {
	visited := make([]bool, len(mask))
	var out []component
	var queue []int
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = append(queue[:0], start)
		visited[start] = true
		comp := component{rect: imgproc.Rect{X0: w, Y0: h, X1: 0, Y1: 0}}
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			px, py := p%w, p/w
			comp.area++
			comp.rect.X0, comp.rect.X1 = min(comp.rect.X0, px), max(comp.rect.X1, px+1)
			comp.rect.Y0, comp.rect.Y1 = min(comp.rect.Y0, py), max(comp.rect.Y1, py+1)
			// By offset, not by index: at w = 1, p+1 is the pixel below.
			for _, n := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := px+n[0], py+n[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				if q := ny*w + nx; mask[q] && !visited[q] {
					visited[q] = true
					queue = append(queue, q)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

func refHasStripes(im *imgproc.Image, r imgproc.Rect) bool {
	if r.Empty() {
		return false
	}
	bright := 0
	total := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			cr, cg, cb := im.At(x, y)
			_, s, v := imgproc.RGBToHSV(cr, cg, cb)
			total++
			if v > 0.55 && s < 0.35 {
				bright++
			}
		}
	}
	if total == 0 {
		return false
	}
	frac := float64(bright) / float64(total)
	return frac >= 0.015 && frac <= 0.5
}

func (d *Detector) refDetect(im *imgproc.Image) []Box {
	if len(d.Clusters) == 0 {
		return nil
	}
	work := im
	if d.Tier.ContrastNorm {
		work = imgproc.LocalContrastNormalize(im, im.W/5)
	}
	rw := d.Tier.Resolution
	rh := rw * im.H / im.W
	if rh < 8 {
		rh = 8
	}
	small := imgproc.Resize(work, rw, rh)

	mask := d.refMatchMask(small)
	cr := rw / 100
	if cr < 1 {
		cr = 1
	}
	mask = refDilate(mask, rw, rh, cr)
	mask = refErode(mask, rw, rh, cr)
	cands := refComponents(mask, rw, rh)

	minArea := (rw * rh) / 1500
	if minArea < 4 {
		minArea = 4
	}
	var boxes []Box
	sx := float64(im.W) / float64(rw)
	sy := float64(im.H) / float64(rh)
	for _, c := range cands {
		if c.area < minArea {
			continue
		}
		bw, bh := c.rect.W(), c.rect.H()
		if bw == 0 || bh == 0 {
			continue
		}
		aspect := float64(bh) / float64(bw)
		if aspect < 0.25 || aspect > 3.5 {
			continue
		}
		fill := float64(c.area) / float64(bw*bh)
		accepted := fill >= d.Tier.FillThreshold
		score := fill
		if d.Tier.StripeCheck && (accepted && fill < 0.5 || !accepted && fill >= d.Tier.FillThreshold*0.8) {
			full := imgproc.Rect{
				X0: int(float64(c.rect.X0) * sx), Y0: int(float64(c.rect.Y0) * sy),
				X1: int(float64(c.rect.X1)*sx) + 1, Y1: int(float64(c.rect.Y1)*sy) + 1,
			}.Clamp(im.W, im.H)
			if refHasStripes(work, full) {
				accepted = true
				score = fill + 0.1
			} else {
				accepted = false
			}
		}
		if !accepted {
			continue
		}
		boxes = append(boxes, Box{
			Rect: imgproc.Rect{
				X0: int(float64(c.rect.X0) * sx), Y0: int(float64(c.rect.Y0) * sy),
				X1: int(float64(c.rect.X1)*sx) + 1, Y1: int(float64(c.rect.Y1)*sy) + 1,
			}.Clamp(im.W, im.H),
			Score: score,
		})
	}
	return nmsBoxes(boxes, 0.5)
}

// maskForms are the kernel tiers whose forms of matchMask differ:
// generic runs the Go form, avx512vnni (where the CPU has it) the box
// pre-filter's AVX-512 form.
func maskForms() []string {
	forms := []string{tensor.TierGeneric}
	if slices.Contains(tensor.KernelTiers(), tensor.TierAVX512VNNI) {
		forms = append(forms, tensor.TierAVX512VNNI)
	}
	return forms
}

// inTier runs f with the kernel tier forced to tier.
func inTier(tb testing.TB, tier string, f func()) {
	prev := tensor.KernelTier()
	if err := tensor.SetKernelTier(tier); err != nil {
		tb.Fatal(err)
	}
	defer tensor.SetKernelTier(prev)
	f()
}

// checkMask runs the matcher in each form on scratch whose mask holds
// another frame's bits, and returns the mask after failing unless every
// packed word, the bits past the row's end included, equals the
// reference's.
func (d *Detector) checkMask(t testing.TB, im *imgproc.Image, name string) []bool {
	t.Helper()
	want := d.refMatchMask(im)
	packed := packMask(want, im.W, im.H)
	for _, form := range maskForms() {
		s := new(scratch)
		s.resize(im.W, im.H)
		for i := range s.mask {
			s.mask[i] = ^uint64(0)
		}
		inTier(t, form, func() { d.matchMask(s, im) })
		if !slices.Equal(s.mask, packed) {
			t.Fatalf("%s: %s mask differs from the reference", name, form)
		}
	}
	return want
}

func allTiers() []Tier {
	var ts []Tier
	for _, f := range []models.Family{models.YOLOv8, models.YOLOv11} {
		for _, s := range []models.Size{models.Nano, models.Medium, models.XLarge} {
			ts = append(ts, TierFor(f, s))
		}
	}
	return ts
}

// noisy returns a copy of im with imgproc.AddGaussianNoise applied.
func noisy(im *imgproc.Image, stddev float64, r *rng.RNG) *imgproc.Image {
	out := im.Clone()
	imgproc.AddGaussianNoise(out, stddev, r)
	return out
}

// frameVariants are the four frame kinds of the accuracy studies.
func frameVariants(im *imgproc.Image, seed uint64) map[string]*imgproc.Image {
	return map[string]*imgproc.Image{
		"clean":   im,
		"dark":    imgproc.AdjustBrightness(im, 0.3),
		"rotated": imgproc.Rotate(im, 0.3),
		"noisy":   noisy(im, 12, rng.New(seed)),
	}
}

// TestFrontEndMatchesReference: six tiers × clean / ×0.3 / rotated /
// noisy frames × the full frame and DetectROI crops. The mask in each
// form, the closed mask and the boxes must equal the reference's.
func TestFrontEndMatchesReference(t *testing.T) {
	_, sp := testSplit(t)
	items := sp.Test.Subset(8).Items
	if testing.Short() {
		items = items[:2]
	}
	masks, frames, boxes := 0, 0, 0
	for _, tier := range allTiers() {
		d := TrainDataset(tier, sp.Train)
		if len(d.Clusters) == 0 {
			t.Fatalf("%s: nothing learned", tier.Name)
		}
		for i, it := range items {
			r := sp.Test.Render(it)
			rois := []imgproc.Rect{
				ROIAround(r.Truth.VestBox, 0.5, r.Image.W, r.Image.H),
				{X0: 13, Y0: 7, X1: 180, Y1: 111},
			}
			for kind, im := range frameVariants(r.Image, uint64(i)) {
				name := fmt.Sprintf("%s/%s/item %d", tier.Name, kind, i)
				views := []*imgproc.Image{im}
				for _, roi := range rois {
					if !roi.Empty() {
						views = append(views, imgproc.Crop(im, roi))
					}
				}
				for vi, view := range views {
					rw := tier.Resolution
					rh := max(rw*view.H/view.W, 8)
					work := view
					if tier.ContrastNorm {
						work = imgproc.LocalContrastNormalize(view, view.W/5)
					}
					small := imgproc.Resize(work, rw, rh)
					want := d.checkMask(t, small, fmt.Sprintf("%s view %d", name, vi))
					cr := max(rw/100, 1)
					if !reflect.DeepEqual(closeMask(want, rw, rh, cr), refErode(refDilate(want, rw, rh, cr), rw, rh, cr)) {
						t.Fatalf("%s view %d: closed mask differs from the reference", name, vi)
					}
					masks++
					gb, wb := d.Detect(view), d.refDetect(view)
					if !reflect.DeepEqual(gb, wb) {
						t.Fatalf("%s view %d: Detect = %v, reference %v", name, vi, gb, wb)
					}
					frames++
					boxes += len(gb)
				}
				for _, roi := range rois {
					got := d.DetectROI(im, roi)
					if roi = roi.Clamp(im.W, im.H); roi.Empty() {
						continue
					}
					want := d.refDetect(imgproc.Crop(im, roi))
					for j := range want {
						want[j].Rect.X0 += roi.X0
						want[j].Rect.X1 += roi.X0
						want[j].Rect.Y0 += roi.Y0
						want[j].Rect.Y1 += roi.Y0
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: DetectROI(%+v) = %v, reference %v", name, roi, got, want)
					}
				}
			}
		}
	}
	if boxes == 0 {
		t.Fatal("no frame produced a box: the comparison is vacuous")
	}
	t.Logf("%d masks, %d detections (%d boxes) equal to the reference", masks, frames, boxes)
}

// randomMask is a w×h mask of the given density.
func randomMask(r *rng.RNG, w, h int, density float64) []bool {
	mask := make([]bool, w*h)
	for i := range mask {
		mask[i] = r.Bool(density)
	}
	return mask
}

// TestMorphologyMatchesReference: random masks at every density, sizes
// from one cell up and widths on either side of one and two words,
// radii past a word and past the image size.
func TestMorphologyMatchesReference(t *testing.T) {
	r := rng.New(9)
	for n := 0; n < 460; n++ {
		w, h := 1+r.Intn(40), 1+r.Intn(30)
		if n >= 400 {
			w = []int{63, 64, 65, 127, 128, 129}[n%6]
		}
		rad := r.Intn(5)
		switch {
		case n%50 == 0:
			rad = max(w, h) + 1
		case n >= 400 && n%3 == 0:
			rad = 64 + r.Intn(70)
		}
		mask := randomMask(r, w, h, r.Float64())
		packed := packMask(mask, w, h)
		dst := make([]uint64, len(packed))
		// A dirty buffer: the pooled ones arrive holding the last frame.
		for i := range dst {
			dst[i] = r.Uint64()
		}
		dilate(dst, packed, w, h, rad)
		if !reflect.DeepEqual(dst, packMask(refDilate(mask, w, h, rad), w, h)) {
			t.Fatalf("dilate %dx%d r=%d differs from the reference", w, h, rad)
		}
		erode(dst, packed, w, h, rad)
		if !reflect.DeepEqual(dst, packMask(refErode(mask, w, h, rad), w, h)) {
			t.Fatalf("erode %dx%d r=%d differs from the reference", w, h, rad)
		}
	}
}

// FuzzComponentsMatchReference: areas, rects and order of the union-find
// labelling equal the BFS's, on masks from empty to full, widths across
// word boundaries, and shapes (combs, rings, spirals of runs) whose
// runs merge late.
func FuzzComponentsMatchReference(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(8), uint8(128))
	f.Add(uint64(2), uint8(63), uint8(5), uint8(200))
	f.Add(uint64(3), uint8(64), uint8(3), uint8(255))
	f.Add(uint64(4), uint8(129), uint8(40), uint8(90))
	f.Add(uint64(5), uint8(0), uint8(0), uint8(10))
	f.Add(uint64(6), uint8(200), uint8(1), uint8(160))
	f.Fuzz(func(t *testing.T, seed uint64, wb, hb, density uint8) {
		r := rng.New(seed)
		w, h := int(wb)%200+1, int(hb)%100+1
		mask := randomMask(r, w, h, float64(density)/255)
		if seed%3 == 0 { // a comb: teeth joined only along the bottom row
			for i := range mask {
				x, y := i%w, i/w
				mask[i] = x%2 == 0 || y == h-1
			}
		}
		if got, want := componentsOf(mask, w, h), refComponents(mask, w, h); !reflect.DeepEqual(got, want) && (len(got)+len(want) > 0) {
			t.Fatalf("%dx%d: components %v, reference %v", w, h, got, want)
		}
	})
}

// TestHasStripesMatchesReference: regions of two to a dozen pixels
// whose value and saturation sit within a few byte steps of the stripe
// thresholds (v > 0.55 is max ≥ 141, s < 0.35), so one pixel moving
// across either flips the verdict; read as they are, and through
// contrast tables of 5-pixel tiles, which the regions straddle.
func TestHasStripesMatchesReference(t *testing.T) {
	r := rng.New(3)
	im := imgproc.NewImage(24, 16)
	verdicts := [2]int{}
	for n := 0; n < 2000; n++ {
		for i := 0; i < len(im.Pix); i += 3 {
			mx := 136 + r.Intn(12)
			mn := int(float64(mx)*0.65) - 3 + r.Intn(7)
			ch := [3]uint8{uint8(mx), uint8(mn), uint8(mn + r.Intn(mx-mn+1))}
			rng.Shuffle(r, ch[:])
			im.Pix[i], im.Pix[i+1], im.Pix[i+2] = ch[0], ch[1], ch[2]
		}
		x0, y0 := r.Intn(im.W-4), r.Intn(im.H-3)
		rect := imgproc.Rect{X0: x0, Y0: y0, X1: x0 + 1 + r.Intn(4), Y1: y0 + 1 + r.Intn(3)}
		got, want := hasStripes(im, imgproc.IdentityLUT(), rect), refHasStripes(im, rect)
		if got != want {
			t.Fatalf("hasStripes(%+v) = %v, reference %v", rect, got, want)
		}
		lut := new(imgproc.TileLUT).Contrast(im, 5)
		if got, want := hasStripes(im, lut, rect), refHasStripes(imgproc.LocalContrastNormalize(im, 5), rect); got != want {
			t.Fatalf("hasStripes(%+v) through 5-pixel tiles = %v, reference %v", rect, got, want)
		}
		if want {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] < 200 || verdicts[1] < 200 {
		t.Fatalf("verdicts %v: the inputs do not straddle the thresholds", verdicts)
	}
}

// randomModel draws a colour model: one to ten clusters (past the
// seventh they share the colour table's last bit), hues on both sides
// of the 0/360 wrap, windows from a sliver to wider than the cap, thin
// and thick training support.
func randomModel(r *rng.RNG) *Detector {
	d := &Detector{Tier: Tier{
		MarginH: r.Range(0.5, 4), MarginS: r.Range(0.5, 4), MarginV: r.Range(0.5, 4),
	}}
	for k := 1 + r.Intn(10); k > 0; k-- {
		c := cluster{
			meanH: r.Range(0, 360), stdH: r.Range(0, 12),
			meanS: r.Float64(), stdS: r.Range(0, 0.3),
			meanV: r.Float64(), stdV: r.Range(0, 0.3),
			support: r.Intn(200),
		}
		switch r.Intn(4) {
		case 0:
			c.meanH = r.Range(0, 8) // window wraps below 0
		case 1:
			c.meanH = r.Range(352, 360) // window wraps above 360
		}
		d.Clusters = append(d.Clusters, c)
	}
	return d
}

// FuzzMatchMaskMatchesReference draws the colour model (randomModel)
// and an image of greys (d == 0), blacks (v == 0), near-cluster colours
// and noise, 1 to 200 pixels wide: whole and partial words and vector
// blocks. The image's pixels are the start of a larger buffer whose
// trailing bytes are 0, 255 or a colour the model takes, so a form that
// read past the last row would set a bit the reference does not.
func FuzzMatchMaskMatchesReference(f *testing.F) {
	for s := uint64(1); s <= 6; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		d := randomModel(r)
		near := func() (uint8, uint8, uint8) { // a colour some cluster should take
			c := d.Clusters[r.Intn(len(d.Clusters))]
			return imgproc.HSVToRGB(
				math.Mod(c.meanH+r.NormRange(0, 2*c.stdH+1)+360, 360),
				min(max(c.meanS+r.NormRange(0, c.stdS), 0), 1),
				min(max(c.meanV+r.NormRange(0, c.stdV), 0), 1))
		}
		w, h := 1+r.Intn(200), 1+r.Intn(32)
		buf := make([]uint8, 3*(w*h+64))
		im := &imgproc.Image{W: w, H: h, Pix: buf[:3*w*h]}
		for i := 0; i < w*h; i++ {
			px := im.Pix[i*3 : i*3+3]
			switch r.Intn(5) {
			case 0: // grey, black once in a while
				v := uint8(r.Intn(256) * r.Intn(4) / 3)
				px[0], px[1], px[2] = v, v, v
			case 1, 2:
				px[0], px[1], px[2] = near()
			default:
				px[0], px[1], px[2] = uint8(r.Uint64()), uint8(r.Uint64()), uint8(r.Uint64())
			}
		}
		var sentinel [3]uint8
		switch r.Intn(3) {
		case 1:
			sentinel = [3]uint8{255, 255, 255}
		case 2:
			sentinel[0], sentinel[1], sentinel[2] = near()
		}
		for i := len(im.Pix); i < len(buf); i++ {
			buf[i] = sentinel[i%3]
		}
		d.checkMask(t, im, fmt.Sprintf("seed %d (%d clusters, %dx%d)", seed, len(d.Clusters), w, h))
	})
}

// FuzzColourBoxHoldsTable: for a drawn colour model, the colour table's
// box holds every (max, min) pair whose entry is non-zero, the whole
// triangle checked, so the vector form of matchMask skips only pixels
// the table rejects; and each of the box's six ends is some such
// pair's, so it is the least box that does.
func FuzzColourBoxHoldsTable(f *testing.F) {
	for s := uint64(1); s <= 6; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		d := randomModel(rng.New(seed))
		if seed%5 == 0 { // windows of width 0 admit no pair: the box must hold nothing
			for i := range d.Clusters {
				d.Clusters[i].stdS, d.Clusters[i].stdV = 0, 0
			}
		}
		tab := new(colourTable).build(d)
		b := &tab.box
		lo, hi := [3]uint32{256, 256, 256}, [3]uint32{}
		set, held := 0, 0
		for mx := 0; mx < 256; mx++ {
			for mn := 0; mn <= mx; mn++ {
				in := b.Holds(uint8(mx), uint8(mn), uint8(mn))
				if in {
					held++
				}
				if tab.entry(uint8(mx), uint8(mn), uint8(mn)) == 0 {
					continue
				}
				if !in {
					t.Fatalf("seed %d: box %+v misses (max %d, min %d), whose entry is set", seed, *b, mx, mn)
				}
				set++
				for k, e := range [3]uint32{uint32(mx), uint32(mn), uint32(mx - mn)} {
					lo[k], hi[k] = min(lo[k], e), max(hi[k], e)
				}
			}
		}
		switch {
		case set == 0 && held > 0:
			t.Fatalf("seed %d: no entry is set, yet box %+v holds %d pairs", seed, *b, held)
		case set > 0 && (b.Lo != lo || b.Span != [3]uint32{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}):
			t.Fatalf("seed %d: box %+v, least box %v..%v", seed, *b, lo, hi)
		}
	})
}

// detectAllocBudget bounds what one steady-state v8m Detect of a
// 320×240 frame may allocate: NMS's kept boxes and its sort, measured
// at 2 allocations and 75 bytes with one box. Before the pooled scratch
// it was 518 KB in 22 allocations.
const (
	detectAllocBudgetBytes = 128
	detectAllocBudgetCount = 2
)

func TestDetectSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	var im *imgproc.Image
	for _, it := range sp.Test.Diverse().Items {
		if r := sp.Test.Render(it); len(d.Detect(r.Image)) > 0 {
			im = r.Image
			break
		}
	}
	if im == nil {
		t.Fatal("no frame with a detection to measure")
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	count := testing.AllocsPerRun(runs, func() { d.Detect(im) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call on top of runs.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%.0f allocs, %.0f bytes per frame", count, bytes)
	if raceEnabled {
		t.Skip("sync.Pool sheds at random under the race detector; the budget is checked without it")
	}
	if count > detectAllocBudgetCount || bytes > detectAllocBudgetBytes {
		t.Fatalf("Detect allocates %.0f objects, %.0f bytes a frame; budget %d, %d",
			count, bytes, detectAllocBudgetCount, detectAllocBudgetBytes)
	}
}

// FuzzDetect is Detect's front door: a rendered frame scaled to w×h,
// 1…640 pixels a side and taller than wide as often as wider, for every
// tier, with its contrast and stripe stages switched on and off
// (flags), at full brightness or ×0.3. Detect must equal refDetect, and
// DetectROI over a drawn region must equal refDetect on the crop mapped
// back. A frame is at most 8 times taller than wide: the analysis image
// grows as Resolution²·h/w, and the references walk it per pixel.
func FuzzDetect(f *testing.F) {
	f.Add(uint64(1), uint16(320), uint16(240), uint8(1), uint8(0))
	f.Add(uint64(2), uint16(41), uint16(60), uint8(5), uint8(0)) // taller than wide, as a DetectROI view often is
	f.Add(uint64(3), uint16(1), uint16(8), uint8(2), uint8(0))   // a one-pixel column
	f.Add(uint64(4), uint16(640), uint16(1), uint8(4), uint8(0)) // a one-pixel row
	f.Add(uint64(5), uint16(97), uint16(300), uint8(3), uint8(3))
	f.Add(uint64(6), uint16(640), uint16(640), uint8(0), uint8(2))
	f.Add(uint64(71), uint16(97), uint16(224), uint8(3), uint8(3)) // a stripe verdict the contrast tables decide
	f.Fuzz(func(t *testing.T, seed uint64, wb, hb uint16, tier, flags uint8) {
		fx := fuzzDetectFixture()
		w := int(wb)%640 + 1
		h := min(int(hb)%640+1, 8*w)
		d := *fx.detectors[int(tier)%len(fx.detectors)]
		d.Tier.ContrastNorm = d.Tier.ContrastNorm != (flags&1 != 0)
		d.Tier.StripeCheck = d.Tier.StripeCheck != (flags&2 != 0)
		r := rng.New(seed)
		im := imgproc.Resize(fx.frames[r.Intn(len(fx.frames))], w, h)
		if r.Bool(0.3) {
			im = imgproc.AdjustBrightness(im, 0.3)
		}
		if got, want := d.Detect(im), d.refDetect(im); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %dx%d flags %d: Detect = %v, reference %v", d.Tier.Name, w, h, flags, got, want)
		}
		x0, y0 := r.Intn(w), r.Intn(h)
		roi := imgproc.Rect{X0: x0, Y0: y0, X1: x0 + 1 + r.Intn(w-x0), Y1: y0 + 1 + r.Intn(h-y0)}
		want := d.refDetect(imgproc.Crop(im, roi))
		for j := range want {
			want[j].Rect.X0 += roi.X0
			want[j].Rect.X1 += roi.X0
			want[j].Rect.Y0 += roi.Y0
			want[j].Rect.Y1 += roi.Y0
		}
		if got := d.DetectROI(im, roi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %dx%d flags %d: DetectROI(%+v) = %v, reference %v", d.Tier.Name, w, h, flags, roi, got, want)
		}
	})
}

// fuzzDetectFixture trains the six tiers once a process and renders the
// frames FuzzDetect scales.
var fuzzDetectFixture = sync.OnceValue(func() (fx struct {
	detectors []*Detector
	frames    []*imgproc.Image
}) {
	ds := dataset.Build(dataset.Config{Scale: 0.015, Seed: 42, W: 320, H: 240})
	sp := ds.StratifiedSplit(0.2)
	for _, tier := range allTiers() {
		fx.detectors = append(fx.detectors, TrainDataset(tier, sp.Train))
	}
	for _, it := range sp.Test.Subset(4).Items {
		fx.frames = append(fx.frames, sp.Test.Render(it).Image)
	}
	return fx
})

// BenchmarkFrontEndStages times the detector's stages on one 320×240
// frame, each beside its reference where it has one, and the whole v8m
// Detect and a DetectROI. The refs are the parent's per-stage loops
// (refDetect's resize and contrast stages are imgproc's, whose own
// references are timed in that package's BenchmarkFrontEndStages); the
// colour mask runs once in each form (mask/<form>).
func BenchmarkFrontEndStages(b *testing.B) {
	ds := dataset.Build(dataset.Config{Scale: 0.015, Seed: 42, W: 320, H: 240})
	sp := ds.StratifiedSplit(0.2)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	r := sp.Test.Render(sp.Test.Diverse().Items[0])
	frame := r.Image
	// The temporal ladder's L1 crop: ~1/25 of the frame's pixels, yet
	// Detect brings it back up to the tier's full analysis width.
	roi := ROIAround(r.Truth.VestBox, 0.5, frame.W, frame.H)
	rw, rh := 224, 168
	small := imgproc.Resize(imgproc.LocalContrastNormalize(frame, 64), rw, rh)
	mask := d.refMatchMask(small)
	closed := refErode(refDilate(mask, rw, rh, 2), rw, rh, 2)
	packed, packedClosed := packMask(mask, rw, rh), packMask(closed, rw, rh)
	s := new(scratch)
	s.resize(rw, rh)
	for _, form := range maskForms() {
		b.Run("mask/"+form, func(b *testing.B) {
			inTier(b, form, func() {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.matchMask(s, small)
				}
			})
		})
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"resize+lut", func() { imgproc.ResizeLUTInto(s.small.Reshape(rw, rh), frame, s.lut.Contrast(frame, 64)) }},
		{"mask/ref", func() { d.refMatchMask(small) }},
		{"closing/ref", func() { refErode(refDilate(mask, rw, rh, 2), rw, rh, 2) }},
		{"closing/new", func() { dilate(s.closed, packed, rw, rh, 2); erode(s.mask, s.closed, rw, rh, 2) }},
		{"components/ref", func() { refComponents(closed, rw, rh) }},
		{"components/new", func() { s.components(packedClosed, rw, rh) }},
		{"detect", func() { d.Detect(frame) }},
		{fmt.Sprintf("detectROI%dx%d", roi.W(), roi.H()), func() { d.DetectROI(frame, roi) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}
}
