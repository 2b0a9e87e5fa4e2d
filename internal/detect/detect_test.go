package detect

import (
	"reflect"
	"sync"
	"testing"

	"ocularone/internal/dataset"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
	"ocularone/internal/scene"
)

// testSplit builds a small dataset and split shared by the tests.
func testSplit(t *testing.T) (*dataset.Dataset, dataset.Split) {
	t.Helper()
	ds := dataset.Build(dataset.Config{Scale: 0.015, Seed: 42, W: 320, H: 240})
	return ds, ds.StratifiedSplit(0.2)
}

func TestTiersDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range []models.Family{models.YOLOv8, models.YOLOv11} {
		for _, s := range []models.Size{models.Nano, models.Medium, models.XLarge} {
			tier := TierFor(f, s)
			if seen[tier.Name] {
				t.Fatalf("duplicate tier %s", tier.Name)
			}
			seen[tier.Name] = true
			if tier.Resolution <= 0 || tier.MaxClusters <= 0 || tier.FillThreshold <= 0 {
				t.Fatalf("degenerate tier %+v", tier)
			}
		}
	}
	// Capacity ordering within a family.
	for _, f := range []models.Family{models.YOLOv8, models.YOLOv11} {
		n := TierFor(f, models.Nano)
		m := TierFor(f, models.Medium)
		x := TierFor(f, models.XLarge)
		if !(n.Resolution < m.Resolution && m.Resolution < x.Resolution) {
			t.Fatalf("%v resolutions not increasing", f)
		}
		if n.ContrastNorm || !m.ContrastNorm || !x.ContrastNorm {
			t.Fatalf("%v contrast-norm flags wrong", f)
		}
		if n.StripeCheck || m.StripeCheck || !x.StripeCheck {
			t.Fatalf("%v stripe-check flags wrong", f)
		}
	}
}

func TestTrainProducesClusters(t *testing.T) {
	_, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	if len(d.Clusters) == 0 {
		t.Fatal("no clusters learned")
	}
	if d.TrainImages == 0 {
		t.Fatal("no training images recorded")
	}
	// Learned hue must be near the renderer's vest hue (75°).
	for _, c := range d.Clusters {
		if c.meanH < 55 || c.meanH > 95 {
			t.Fatalf("cluster hue %v far from vest hue", c.meanH)
		}
	}
}

func TestUntrainedDetectorDetectsNothing(t *testing.T) {
	d := &Detector{Tier: TierFor(models.YOLOv8, models.Nano)}
	im := imgproc.NewImage(64, 64)
	if got := d.Detect(im); got != nil {
		t.Fatalf("untrained detector returned %v", got)
	}
}

func TestDetectFindsVestOnDiverse(t *testing.T) {
	ds, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	hits, total := 0, 0
	for _, it := range sp.Test.Diverse().Subset(30).Items {
		r := ds.Render(it)
		if !r.Truth.HasVIP {
			continue
		}
		total++
		for _, b := range d.Detect(r.Image) {
			if b.Rect.IoU(r.Truth.VestBox) >= EvalIoU {
				hits++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no test items")
	}
	if frac := float64(hits) / float64(total); frac < 0.9 {
		t.Fatalf("diverse hit rate %.2f, want ≥0.9", frac)
	}
}

func TestNoFalsePositivesOnVIPFreeScenes(t *testing.T) {
	// The paper's headline property: no false positives. Render scenes
	// with pedestrians, cars and bicycles but no vest; the detector must
	// stay silent.
	_, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.XLarge), sp.Train)
	cam := scene.DefaultCamera(320, 240, 1.6)
	fps := 0
	for i := 0; i < 20; i++ {
		s := &scene.Scene{
			Background: scene.Background(i % 3), Lighting: 1.0, CamHeightM: 1.6,
			Seed: uint64(i), Clutter: 0.5,
			Entities: []scene.Entity{
				{Kind: scene.Pedestrian, X: -1, Depth: 6, HeightM: 1.75,
					Shirt: [3]uint8{160, 60, 60}, Pants: [3]uint8{30, 30, 30}},
				{Kind: scene.ParkedCar, X: 2.8, Depth: 10, HeightM: 1.5},
				{Kind: scene.Bicycle, X: 1.5, Depth: 8, HeightM: 1.0},
			},
		}
		im, _ := scene.Render(s, cam)
		if len(d.Detect(im)) > 0 {
			fps++
		}
	}
	if fps > 0 {
		t.Fatalf("%d/20 VIP-free scenes produced detections", fps)
	}
}

func TestEvaluateDatasetAccuracyShape(t *testing.T) {
	_, sp := testSplit(t)
	tier := TierFor(models.YOLOv8, models.Medium)
	d := TrainDataset(tier, sp.Train)
	div := EvaluateDataset(d, sp.Test.Diverse().Subset(60))
	if div.Accuracy() < 90 {
		t.Fatalf("diverse accuracy %.1f%% too low", div.Accuracy())
	}
	if div.Confusion.FP != 0 {
		t.Fatalf("false positives on all-vest test set: %d", div.Confusion.FP)
	}
}

func TestCurationEffectShape(t *testing.T) {
	// Fig. 1: uncurated noisy-annotation training must be worse than
	// curated training. The gap concentrates on the adversarial set; at
	// test scale we assert on the combined accuracy to keep the check
	// stable across seeds.
	ds := dataset.Build(dataset.Config{Scale: 0.04, Seed: 42, W: 320, H: 240})
	sp := ds.StratifiedSplit(0.126)
	tier := TierFor(models.YOLOv11, models.Medium)
	curated := TrainDataset(tier, sp.Train)
	noisy := TrainDatasetOpts(tier, ds.Diverse().RandomSample(40, 7).WithBoxJitter(0.4),
		Options{Curated: false})
	test := sp.Test.Subset(300)
	accC := EvaluateDataset(curated, test).Accuracy()
	accN := EvaluateDataset(noisy, test).Accuracy()
	if accN >= accC {
		t.Fatalf("uncurated (%.1f%%) not worse than curated (%.1f%%)", accN, accC)
	}
}

func TestScoreFrameVerdicts(t *testing.T) {
	_, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	// Vest frame → exactly one verdict in the True row.
	r := sp.Test.Diverse().Render(sp.Test.Diverse().Items[0])
	c, _ := ScoreFrame(d, r.Image, r.Truth.HasVIP, r.Truth.VestBox)
	if c.TP+c.FN != 1 || c.FP != 0 || c.TN != 0 {
		t.Fatalf("vest frame verdict %+v", c)
	}
	// Empty frame → TN.
	blank := imgproc.NewImage(64, 64)
	c2, _ := ScoreFrame(d, blank, false, imgproc.Rect{})
	if c2.TN != 1 || c2.TP+c2.FN+c2.FP != 0 {
		t.Fatalf("blank frame verdict %+v", c2)
	}
}

// closeMask is Detect's closing on fresh buffers: dilate, then erode.
func closeMask(mask []bool, w, h, r int) []bool {
	grown, tmp, out := make([]bool, w*h), make([]bool, w*h), make([]bool, w*h)
	dilate(grown, tmp, mask, w, h, r)
	erode(out, tmp, grown, w, h, r)
	return out
}

func TestMorphology(t *testing.T) {
	// A 1-pixel gap must close under dilate+erode; isolated pixels must
	// survive closing as single pixels (not grow).
	w, h := 9, 3
	mask := make([]bool, w*h)
	// Two 3-px runs separated by one gap on the middle row.
	for _, x := range []int{1, 2, 3, 5, 6, 7} {
		mask[1*w+x] = true
	}
	closed := closeMask(mask, w, h, 1)
	if !closed[1*w+4] {
		t.Fatal("closing did not bridge 1-px gap")
	}
	iso := make([]bool, w*h)
	iso[1*w+4] = true
	closedIso := closeMask(iso, w, h, 1)
	count := 0
	for _, v := range closedIso {
		if v {
			count++
		}
	}
	if count > 1 {
		t.Fatalf("closing grew isolated pixel to %d", count)
	}
}

// componentsOf runs the component search on fresh scratch.
func componentsOf(mask []bool, w, h int) []component {
	s := new(scratch)
	s.resize(len(mask))
	return s.components(mask, w, h)
}

func TestComponentsExtraction(t *testing.T) {
	w, h := 8, 8
	mask := make([]bool, w*h)
	// Two disjoint blobs.
	for y := 1; y < 3; y++ {
		for x := 1; x < 3; x++ {
			mask[y*w+x] = true
		}
	}
	for y := 5; y < 7; y++ {
		for x := 5; x < 8; x++ {
			mask[y*w+x] = true
		}
	}
	cs := componentsOf(mask, w, h)
	if len(cs) != 2 {
		t.Fatalf("components = %d, want 2", len(cs))
	}
	areas := map[int]bool{}
	for _, c := range cs {
		areas[c.area] = true
	}
	if !areas[4] || !areas[6] {
		t.Fatalf("component areas wrong: %+v", cs)
	}
}

func TestComponentsNoRowWrap(t *testing.T) {
	w, h := 4, 2
	mask := make([]bool, w*h)
	mask[0*w+3] = true // end of row 0
	mask[1*w+0] = true // start of row 1 — adjacent in memory, not in 2D
	cs := componentsOf(mask, w, h)
	if len(cs) != 2 {
		t.Fatalf("row wrap-around merged components: %d", len(cs))
	}
}

func TestNMSBoxes(t *testing.T) {
	boxes := []Box{
		{Rect: imgproc.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Score: 0.9},
		{Rect: imgproc.Rect{X0: 1, Y0: 1, X1: 11, Y1: 11}, Score: 0.5},
		{Rect: imgproc.Rect{X0: 50, Y0: 50, X1: 60, Y1: 60}, Score: 0.7},
	}
	kept := nmsBoxes(boxes, 0.5)
	if len(kept) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(kept))
	}
	if kept[0].Score != 0.9 {
		t.Fatal("NMS did not keep highest score first")
	}
}

// TestDetectorConcurrencySafe runs Detect from 8 goroutines over images
// of different sizes, so a pooled scratch last used for a large frame
// is handed a small one and the reverse; every result must equal the
// serial one.
func TestDetectorConcurrencySafe(t *testing.T) {
	_, sp := testSplit(t)
	r := sp.Test.Render(sp.Test.Diverse().Items[0])
	ims := []*imgproc.Image{
		r.Image,
		imgproc.Crop(r.Image, ROIAround(r.Truth.VestBox, 0.5, r.Image.W, r.Image.H)),
		imgproc.Resize(r.Image, 640, 480),
		imgproc.Resize(r.Image, 64, 48),
		imgproc.Crop(r.Image, imgproc.Rect{X0: 10, Y0: 20, X1: 310, Y1: 70}),
	}
	for _, tier := range []Tier{TierFor(models.YOLOv8, models.Nano), TierFor(models.YOLOv8, models.XLarge)} {
		d := TrainDataset(tier, sp.Train)
		want := make([][]Box, len(ims))
		for i, im := range ims {
			want[i] = d.Detect(im)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 5*len(ims); i++ {
					k := (i + g) % len(ims)
					if got := d.Detect(ims[k]); !reflect.DeepEqual(got, want[k]) {
						t.Errorf("%s goroutine %d: image %d (%dx%d): %v, serial %v", tier.Name, g, k, ims[k].W, ims[k].H, got, want[k])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	_, sp := testSplit(t)
	d := TrainDataset(TierFor(models.YOLOv8, models.Medium), sp.Train)
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tier != d.Tier || back.TrainImages != d.TrainImages || len(back.Clusters) != len(d.Clusters) {
		t.Fatalf("round trip changed metadata: %s vs %s", back, d)
	}
	// The restored model makes identical predictions.
	r := sp.Test.Render(sp.Test.Items[0])
	b1 := d.Detect(r.Image)
	b2 := back.Detect(r.Image)
	if len(b1) != len(b2) {
		t.Fatalf("restored detector differs: %d vs %d boxes", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("box %d differs after round trip", i)
		}
	}
}

func TestUnmarshalRejectsBadData(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"version": 999}`)); err == nil {
		t.Fatal("future version accepted")
	}
}
