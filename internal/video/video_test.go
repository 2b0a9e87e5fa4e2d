package video

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

func testSpec() Spec {
	return Spec{
		ID: 1, DurationSec: 2, FPS: 30, W: 160, H: 120,
		Background: scene.Footpath, Lighting: 1.0, Seed: 99,
	}
}

func TestNumFrames(t *testing.T) {
	v := New(testSpec())
	if v.NumFrames() != 60 {
		t.Fatalf("NumFrames = %d, want 60", v.NumFrames())
	}
}

func TestDefaultSpecPaperShape(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 43; i++ {
		s := DefaultSpec(i, r.SplitN("video", i))
		if s.DurationSec < 60 || s.DurationSec > 120 {
			t.Fatalf("video %d duration %v outside paper's 1-2 minutes", i, s.DurationSec)
		}
		if s.FPS != 30 {
			t.Fatalf("video %d FPS %d, want 30", i, s.FPS)
		}
	}
}

func TestExtractIndices10FPS(t *testing.T) {
	v := New(testSpec())
	idx := v.ExtractIndices(10)
	// 2 seconds at 10 FPS = 20 frames, every third source frame.
	if len(idx) != 20 {
		t.Fatalf("extracted %d frames, want 20", len(idx))
	}
	if idx[0] != 0 || idx[1] != 3 || idx[2] != 6 {
		t.Fatalf("extraction stride wrong: %v", idx[:3])
	}
}

// TestExtractIndicesExactForEveryRatio: output frame i must show source
// frame ⌊i·FPS/target⌋ in exact rational arithmetic, for every target a
// source rate admits. Accumulating the step in floating point drifted
// on ratios that are not whole: 30 → 7 gave index 29 where 7·30/7 = 30,
// and 841 frames instead of 840 over 120 s.
func TestExtractIndicesExactForEveryRatio(t *testing.T) {
	for _, fps := range []int{24, 25, 30, 60} {
		v := New(Spec{DurationSec: 120, FPS: fps, W: 16, H: 12, Seed: 1})
		n := v.NumFrames()
		for target := 1; target <= fps; target++ {
			got := v.ExtractIndices(target)
			step := big.NewRat(int64(fps), int64(target))
			var want []int
			for i := int64(0); ; i++ {
				at := new(big.Rat).Mul(step, new(big.Rat).SetInt64(i))
				src := new(big.Int).Quo(at.Num(), at.Denom()).Int64() // at ≥ 0: truncation floors
				if src >= int64(n) {
					break
				}
				want = append(want, int(src))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d -> %d FPS over %d frames: %d indices, want %d; first difference at %d",
					fps, target, n, len(got), len(want), firstDiff(got, want))
			}
		}
	}
	v := New(Spec{DurationSec: 120, FPS: 30, W: 16, H: 12, Seed: 1})
	if idx := v.ExtractIndices(7); len(idx) != 840 || idx[7] != 30 {
		t.Fatalf("30 -> 7 FPS over 120 s: %d frames, frame 7 = %d; want 840, 30", len(idx), idx[7])
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestExtractIndicesInvalidFPSFallsBack(t *testing.T) {
	v := New(testSpec())
	if got := len(v.ExtractIndices(0)); got != v.NumFrames() {
		t.Fatalf("fps=0 extracted %d", got)
	}
	if got := len(v.ExtractIndices(1000)); got != v.NumFrames() {
		t.Fatalf("fps>src extracted %d", got)
	}
}

func TestFrameDeterministic(t *testing.T) {
	v1, v2 := New(testSpec()), New(testSpec())
	im1, _ := v1.Frame(10)
	im2, _ := v2.Frame(10)
	for i := range im1.Pix {
		if im1.Pix[i] != im2.Pix[i] {
			t.Fatal("same spec produced different frames")
		}
	}
}

func TestFramesCarryVIP(t *testing.T) {
	v := New(testSpec())
	for _, i := range []int{0, 15, 30, 59} {
		_, gt := v.Frame(i)
		if !gt.HasVIP {
			t.Fatalf("frame %d lost the VIP", i)
		}
		if gt.VestBox.Empty() {
			t.Fatalf("frame %d has empty vest box", i)
		}
	}
}

func TestVIPMovesAcrossFrames(t *testing.T) {
	v := New(testSpec())
	_, gt0 := v.Frame(0)
	_, gt59 := v.Frame(59)
	if gt0.PersonBox == gt59.PersonBox {
		t.Fatal("VIP static across 2 seconds of video")
	}
}

func TestFramePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range frame")
		}
	}()
	New(testSpec()).Frame(100000)
}

func TestExtractLimit(t *testing.T) {
	v := New(testSpec())
	frames := v.Extract(10, 5)
	if len(frames) != 5 {
		t.Fatalf("limit ignored: %d frames", len(frames))
	}
	for i, f := range frames {
		if f.Image == nil || f.Truth == nil {
			t.Fatalf("frame %d missing image/truth", i)
		}
		if f.VideoID != 1 {
			t.Fatalf("frame %d wrong video id %d", i, f.VideoID)
		}
	}
}

func TestCorpusMatchesPaperArithmetic(t *testing.T) {
	// §2: 43 videos, 1-2 minutes, 30 FPS capture, 10 FPS extraction →
	// 30,711 images. Our corpus must land within 10% of that total.
	c := NewCorpus(PaperVideoCount, 160, 120, 7)
	total := c.TotalFrames(10)
	if total < 27640 || total > 33782 {
		t.Fatalf("corpus yields %d frames, paper 30,711 ±10%%", total)
	}
	for _, v := range c.Videos {
		if v.Spec.DurationSec < 60 || v.Spec.DurationSec > 120 {
			t.Fatalf("video duration %v outside 1-2 minutes", v.Spec.DurationSec)
		}
		if v.Spec.FPS != 30 {
			t.Fatalf("capture FPS %d", v.Spec.FPS)
		}
	}
	// All three walking surfaces appear across 43 recordings.
	if got := len(c.Backgrounds()); got != 3 {
		t.Fatalf("backgrounds covered: %d", got)
	}
}

func TestCorpusEachFrameStreamsAndStops(t *testing.T) {
	c := NewCorpus(2, 160, 120, 9)
	seen := 0
	c.EachFrame(10, 3, func(f ExtractedFrame) bool {
		if f.Image == nil || f.Truth == nil {
			t.Fatal("frame missing data")
		}
		seen++
		return seen < 4 // stop early
	})
	if seen != 4 {
		t.Fatalf("early stop ignored: %d frames", seen)
	}
	// With the cap and no early stop: 2 videos × 3 frames.
	seen = 0
	c.EachFrame(10, 3, func(f ExtractedFrame) bool { seen++; return true })
	if seen != 6 {
		t.Fatalf("per-video cap ignored: %d frames", seen)
	}
}

func TestCorpusPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCorpus(0, 160, 120, 1)
}

// PaperVideoCount is the number of drone recordings behind the paper's
// dataset (§2: "a total of 43 videos of duration between 1-2 minutes").
const PaperVideoCount = 43

// Corpus is a collection of synthetic drone recordings — the §2 capture
// campaign. Extracting its frames at 10 FPS yields the raw material the
// dataset builder curates into Table 1.
type Corpus struct {
	Videos []*Video
}

// NewCorpus synthesises n recordings with paper-like durations. The
// duration distribution is tuned so n=43 at 10 FPS extraction lands on
// ≈30,711 frames, the paper's dataset size.
func NewCorpus(n int, w, h int, seed uint64) Corpus {
	if n <= 0 {
		panic(fmt.Sprintf("video: corpus of %d videos", n))
	}
	root := rng.New(seed)
	c := Corpus{Videos: make([]*Video, n)}
	for i := 0; i < n; i++ {
		r := root.SplitN("video", i)
		spec := DefaultSpec(i, r)
		// §2 arithmetic: 30,711 frames / 43 videos / 10 FPS ≈ 71.4 s per
		// video — "between 1-2 minutes", clustered at the short end.
		spec.DurationSec = r.Range(60, 83)
		spec.W, spec.H = w, h
		c.Videos[i] = New(spec)
	}
	return c
}

// TotalFrames returns the number of frames extraction at targetFPS
// yields across the corpus.
func (c Corpus) TotalFrames(targetFPS int) int {
	total := 0
	for _, v := range c.Videos {
		total += len(v.ExtractIndices(targetFPS))
	}
	return total
}

// EachFrame streams extracted frames through fn without materialising
// the whole corpus (43 videos ≈ 30k frames would not fit in memory).
// limitPerVideo caps frames per recording (0 = no cap); fn returning
// false stops the walk early.
func (c Corpus) EachFrame(targetFPS, limitPerVideo int, fn func(ExtractedFrame) bool) {
	for _, v := range c.Videos {
		idx := v.ExtractIndices(targetFPS)
		if limitPerVideo > 0 && len(idx) > limitPerVideo {
			idx = idx[:limitPerVideo]
		}
		for _, fi := range idx {
			im, gt := v.Frame(fi)
			if !fn(ExtractedFrame{VideoID: v.Spec.ID, FrameIndex: fi, Image: im, Truth: gt}) {
				return
			}
		}
	}
}

// Backgrounds tallies the corpus by walking surface, a sanity statistic
// for coverage of Table 1's scene groups.
func (c Corpus) Backgrounds() map[scene.Background]int {
	out := map[scene.Background]int{}
	for _, v := range c.Videos {
		out[v.Spec.Background]++
	}
	return out
}

// DefaultSpec returns a video shaped like the paper's recordings: 1–2
// minutes at 30 FPS. Width/height default to a reduced 640×480 render of
// the 720p feed to keep CPU rendering tractable.
func DefaultSpec(id int, r *rng.RNG) Spec {
	return Spec{
		ID:          id,
		DurationSec: r.Range(60, 120),
		FPS:         30,
		W:           640,
		H:           480,
		Background:  scene.Background(r.Intn(3)),
		Pedestrians: r.Intn(3),
		Bicycles:    r.Intn(2),
		ParkedCars:  r.Intn(2),
		Lighting:    r.Range(0.85, 1.1),
		Clutter:     r.Float64(),
		Seed:        r.Uint64(),
	}
}
