package models

import (
	"math"
	"runtime"
	"testing"

	"ocularone/internal/nn"
	"ocularone/internal/tensor"
)

// Table-2 reproduction: parameter counts must land within 5% of the
// published numbers, and YOLO GFLOPs within 5% of the Ultralytics
// figures.
func TestTable2ParameterCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all eight models")
	}
	for _, id := range AllIDs {
		info := Catalog(id)
		s := ComputeStats(id)
		gotM := float64(s.Params) / 1e6
		ratio := gotM / info.PaperParamsM
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: %.2fM params, paper %.2fM (ratio %.3f)", id, gotM, info.PaperParamsM, ratio)
		}
	}
}

// TestComputeStatsMatchesSeededBuild holds the architecture-only build
// ComputeStats reads to the network Build fills: same parameter count,
// size, GFLOPs and activation estimate for every model.
func TestComputeStatsMatchesSeededBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all eight models")
	}
	for _, id := range AllIDs {
		if got, want := ComputeStats(id), statsOf(id, Build(id, 80, 1)); got != want {
			t.Errorf("%s: ComputeStats %+v, seeded build %+v", id, got, want)
		}
	}
}

// TestArchitectureOnlyBuildAllocates holds the builds ComputeStats reads
// to structure only: all eight Table-2 networks together allocate under
// 4 MB, where their weights alone would take hundreds.
func TestArchitectureOnlyBuildAllocates(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, id := range AllIDs {
		build(id, 80, nil)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("architecture-only builds allocated %.1f MB, want < 4 MB", float64(got)/(1<<20))
	}
}

func TestYOLOGFLOPsMatchUltralytics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all six YOLO models")
	}
	// Published GFLOPs at 640: v8 n/m/x = 8.7/78.9/257.8; v11 = 6.5/68/194.9.
	want := map[ID]float64{
		V8Nano: 8.7, V8Medium: 78.9, V8XLarge: 257.8,
		V11Nano: 6.5, V11Medium: 68.0, V11XLarge: 194.9,
	}
	for id, w := range want {
		g := ComputeStats(id).GFLOPs
		if math.Abs(g-w)/w > 0.05 {
			t.Errorf("%s: %.1f GFLOPs, published %.1f", id, g, w)
		}
	}
}

func TestSizeOrderingWithinFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds models")
	}
	for _, fam := range [][3]ID{{V8Nano, V8Medium, V8XLarge}, {V11Nano, V11Medium, V11XLarge}} {
		p0 := ComputeStats(fam[0]).Params
		p1 := ComputeStats(fam[1]).Params
		p2 := ComputeStats(fam[2]).Params
		if !(p0 < p1 && p1 < p2) {
			t.Errorf("family %v params not increasing: %d %d %d", fam, p0, p1, p2)
		}
	}
}

func TestV11SmallerThanV8AtSameSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds models")
	}
	pairs := [][2]ID{{V11Nano, V8Nano}, {V11Medium, V8Medium}, {V11XLarge, V8XLarge}}
	for _, p := range pairs {
		if ComputeStats(p[0]).Params >= ComputeStats(p[1]).Params {
			t.Errorf("%s not smaller than %s", p[0], p[1])
		}
	}
}

func TestBuildYOLOv8NanoForward(t *testing.T) {
	net := BuildYOLOv8(Nano, 1, 42)
	x := tensor.New(3, 64, 64)
	for i := range x.Data {
		x.Data[i] = float32(i%255)/255 - 0.5
	}
	outs := net.Forward(x)
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	// Detect head output: [4*RegMax+nc, anchors] with anchors = 64+16+4.
	anchors := 8*8 + 4*4 + 2*2
	if outs[0].Shape[0] != 4*nn.RegMax+1 || outs[0].Shape[1] != anchors {
		t.Fatalf("v8n output shape %v", outs[0].Shape)
	}
}

func TestBuildYOLOv11NanoForward(t *testing.T) {
	net := BuildYOLOv11(Nano, 1, 42)
	x := tensor.New(3, 64, 64)
	for i := range x.Data {
		x.Data[i] = float32(i%127) / 127
	}
	outs := net.Forward(x)
	anchors := 8*8 + 4*4 + 2*2
	if outs[0].Shape[0] != 4*nn.RegMax+1 || outs[0].Shape[1] != anchors {
		t.Fatalf("v11n output shape %v", outs[0].Shape)
	}
}

func TestTRTPoseOutputs(t *testing.T) {
	net := BuildTRTPose(7)
	x := tensor.New(3, 64, 64)
	outs := net.Forward(x)
	if len(outs) != 2 {
		t.Fatalf("pose outputs = %d, want cmap+paf", len(outs))
	}
	cmap, paf := outs[0], outs[1]
	if cmap.Shape[0] != NumPoseKeypoints {
		t.Fatalf("cmap channels %d", cmap.Shape[0])
	}
	if paf.Shape[0] != 2*NumPoseKeypoints {
		t.Fatalf("paf channels %d", paf.Shape[0])
	}
	// Decoder upsamples stride-32 features twice → stride 8.
	if cmap.Shape[1] != 8 {
		t.Fatalf("cmap resolution %v", cmap.Shape)
	}
}

func TestMonodepth2Output(t *testing.T) {
	net := BuildMonodepth2(7)
	x := tensor.New(3, 64, 64)
	outs := net.Forward(x)
	if len(outs) != 1 {
		t.Fatalf("depth outputs = %d", len(outs))
	}
	d := outs[0]
	if d.Shape[0] != 1 {
		t.Fatalf("disparity channels %d", d.Shape[0])
	}
	// Decoder restores half input resolution (stride 2 after 4 upsamples
	// from stride 32).
	if d.Shape[1] != 32 || d.Shape[2] != 32 {
		t.Fatalf("disparity resolution %v", d.Shape)
	}
}

func TestCatalogCoversAllModels(t *testing.T) {
	if len(AllIDs) != int(NumModels) {
		t.Fatalf("AllIDs has %d entries, want %d", len(AllIDs), NumModels)
	}
	cats := map[string]int{}
	for _, id := range AllIDs {
		info := Catalog(id)
		cats[info.Category]++
		if info.InputW <= 0 || info.InputH <= 0 {
			t.Fatalf("%s: no native input size", id)
		}
		if info.PaperParamsM <= 0 {
			t.Fatalf("%s: no paper reference", id)
		}
	}
	if cats["Vest Detection"] != 6 || cats["Pose Detection"] != 1 || cats["Depth Estimation"] != 1 {
		t.Fatalf("category mix wrong: %v", cats)
	}
}

func TestSizeAndFamilyStrings(t *testing.T) {
	if Nano.String() != "n" || Medium.String() != "m" || XLarge.String() != "x" {
		t.Fatal("size strings wrong")
	}
	if YOLOv8.String() != "YOLOv8" || YOLOv11.String() != "YOLOv11" {
		t.Fatal("family strings wrong")
	}
	if V8Nano.String() != "yolov8n" || Monodepth2.String() != "monodepth2" {
		t.Fatal("id strings wrong")
	}
}

func TestStatsCached(t *testing.T) {
	a := ComputeStats(V11Nano)
	b := ComputeStats(V11Nano)
	if a != b {
		t.Fatal("stats not cached/deterministic")
	}
}

func TestBuildDeterministic(t *testing.T) {
	n1 := BuildYOLOv8(Nano, 1, 5)
	n2 := BuildYOLOv8(Nano, 1, 5)
	x := tensor.New(3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(i % 7)
	}
	o1 := n1.Forward(x)[0]
	o2 := n2.Forward(x)[0]
	if !o1.Equal(o2, 0) {
		t.Fatal("same-seed builds differ")
	}
}

func TestNCScalesHead(t *testing.T) {
	// COCO head (nc=80) has more params than the retrained vest head (nc=1).
	coco := BuildYOLOv8(Nano, 80, 1).Params()
	vest := BuildYOLOv8(Nano, 1, 1).Params()
	if coco <= vest {
		t.Fatalf("nc=80 params %d not larger than nc=1 %d", coco, vest)
	}
}

func TestFeatureLevels(t *testing.T) {
	if got := FeatureLevels(YOLOv8); got[0] != 15 || got[2] != 21 {
		t.Fatalf("v8 levels %v", got)
	}
	if got := FeatureLevels(YOLOv11); got[0] != 16 || got[2] != 22 {
		t.Fatalf("v11 levels %v", got)
	}
}

// FeatureLevels returns the node indices of the three pyramid outputs
// feeding the detect head (P3, P4, P5) for a network built by this
// package.
func FeatureLevels(f Family) []int {
	if f == YOLOv8 {
		return []int{15, 18, 21}
	}
	return []int{16, 19, 22}
}
