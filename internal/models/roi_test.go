package models

import (
	"sync"
	"testing"
)

// TestROIShapeSnapping pins the canonicalisation contract: stride-32
// round-up, 64 px floor, idempotence.
func TestROIShapeSnapping(t *testing.T) {
	cases := []struct{ h, w, wantH, wantW int }{
		{1, 1, 64, 64},
		{64, 64, 64, 64},
		{65, 64, 96, 64},
		{80, 100, 96, 128},
		{96, 128, 96, 128},
		{200, 52, 224, 64},
	}
	for _, c := range cases {
		h, w := ROIShape(c.h, c.w)
		if h != c.wantH || w != c.wantW {
			t.Fatalf("ROIShape(%d,%d) = (%d,%d), want (%d,%d)", c.h, c.w, h, w, c.wantH, c.wantW)
		}
		h2, w2 := ROIShape(h, w)
		if h2 != h || w2 != w {
			t.Fatalf("ROIShape not idempotent at (%d,%d)", h, w)
		}
	}
}

// TestAcquireSharedROICropShapes hammers the shared plan cache at the
// ladder's crop shapes from many goroutines (run under -race in CI):
// concurrent sessions ROI-cropping around live tracks must converge on
// one compiled plan per canonical shape, and nearby crop sizes in the
// same stride band must hit the same entry instead of minting new ones.
func TestAcquireSharedROICropShapes(t *testing.T) {
	ResetShared()
	t.Cleanup(ResetShared)

	// Raw track-box sizes as the tracker produces them; their canonical
	// shapes collapse onto two entries: (64,64) and (96,128).
	raw := [][2]int{{40, 50}, {63, 64}, {64, 64}, {70, 100}, {96, 128}, {65, 97}}
	const workers = 8
	type got struct {
		h, w int
		plan interface{}
	}
	results := make(chan got, workers*len(raw))
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := range raw {
				r := raw[(i+wk)%len(raw)]
				h, w := ROIShape(r[0], r[1])
				_, p := AcquireShared(V8Nano, 2, 7, h, w)
				results <- got{h: h, w: w, plan: p}
			}
		}(wk)
	}
	wg.Wait()
	close(results)

	plans := map[[2]int]interface{}{}
	for g := range results {
		key := [2]int{g.h, g.w}
		if prev, ok := plans[key]; ok && prev != g.plan {
			t.Fatalf("shape %v returned different plans across goroutines", key)
		}
		plans[key] = g.plan
	}
	if len(plans) != 2 {
		t.Fatalf("crop shapes collapsed onto %d plans, want 2 (%v)", len(plans), plans)
	}
	if st := SharedStats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries after ROI stress, want 2", st.Entries)
	}
}

// ROIStride is the plan-shape granularity for ROI crops: crop shapes
// snap up to the next multiple of 32 so the per-shape compile cache
// (AcquireShared keys include h×w) holds a handful of canonical ROI
// plans instead of one per pixel-exact crop.
const ROIStride = 32

// ROIMinSide is the smallest compilable ROI side. Crops tighter than
// 64 px carry too little context for the detect head and would explode
// the shape cache at its low end.
const ROIMinSide = 64

// ROIShape snaps a requested crop (h, w) to its canonical compiled
// plan shape: each side rounds up to the next ROIStride multiple, with
// a floor of ROIMinSide. Every crop in a stride-sized band therefore
// reuses one cached plan — the property the temporal ladder's L1 rung
// depends on to pay plan compilation once per shape, not per frame.
func ROIShape(h, w int) (int, int) {
	return roiSide(h), roiSide(w)
}

func roiSide(s int) int {
	if s < ROIMinSide {
		return ROIMinSide
	}
	if r := s % ROIStride; r != 0 {
		s += ROIStride - r
	}
	return s
}
