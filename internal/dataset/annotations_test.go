package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ocularone/internal/imgproc"
)

func renderedWithVest(t *testing.T) Rendered {
	t.Helper()
	ds := Build(Config{Scale: 0.002, Seed: 23, W: 160, H: 120})
	for _, it := range ds.Diverse().Items {
		r := ds.Render(it)
		if r.Truth.HasVIP && !r.Truth.VestBox.Empty() {
			return r
		}
	}
	t.Fatal("no rendered item with vest")
	return Rendered{}
}

func TestAnnotationFor(t *testing.T) {
	r := renderedWithVest(t)
	a, ok := AnnotationFor(r, 160, 120)
	if !ok {
		t.Fatal("annotation missing")
	}
	if a.Label != ClassVest {
		t.Fatalf("label %q", a.Label)
	}
	if a.X1 <= a.X0 || a.Y1 <= a.Y0 {
		t.Fatalf("degenerate box %+v", a)
	}
	if !strings.HasPrefix(a.ImageID, "cat") {
		t.Fatalf("image id %q", a.ImageID)
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	anns := []Annotation{
		{ImageID: "cat1a_000001", Label: ClassVest, X0: 1, Y0: 2, X1: 30, Y1: 40, W: 160, H: 120},
		{ImageID: "cat4_000100", Label: ClassVest, X0: 5, Y0: 6, X1: 70, Y1: 80, W: 160, H: 120},
	}
	data, err := MarshalJSONLines(anns)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSONLines(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost annotations: %d", len(back))
	}
	for i := range anns {
		if back[i] != anns[i] {
			t.Fatalf("annotation %d: %+v != %+v", i, back[i], anns[i])
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalJSONLines([]byte("{not json}")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestYOLOLineRoundTrip(t *testing.T) {
	a := Annotation{X0: 40, Y0: 30, X1: 120, Y1: 90, W: 160, H: 120}
	line := a.YOLOLine()
	if !strings.HasPrefix(line, "0 ") {
		t.Fatalf("class index wrong: %q", line)
	}
	r, err := ParseYOLOLine(line, 160, 120)
	if err != nil {
		t.Fatal(err)
	}
	orig := imgproc.Rect{X0: 40, Y0: 30, X1: 120, Y1: 90}
	if r.IoU(orig) < 0.95 {
		t.Fatalf("YOLO round trip degraded box: %+v vs %+v", r, orig)
	}
}

func TestParseYOLOLineErrors(t *testing.T) {
	if _, err := ParseYOLOLine("0 0.5 0.5 0.2", 160, 120); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ParseYOLOLine("0 a b c d", 160, 120); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

// Property: YOLO encoding round-trips any box within a pixel of slack.
func TestQuickYOLORoundTrip(t *testing.T) {
	f := func(x0, y0, dw, dh uint8) bool {
		w, h := 640, 480
		r0 := imgproc.Rect{
			X0: int(x0) % 500, Y0: int(y0) % 380,
		}
		r0.X1 = r0.X0 + int(dw)%100 + 4
		r0.Y1 = r0.Y0 + int(dh)%80 + 4
		a := Annotation{X0: r0.X0, Y0: r0.Y0, X1: r0.X1, Y1: r0.Y1, W: w, H: h}
		back, err := ParseYOLOLine(a.YOLOLine(), w, h)
		if err != nil {
			return false
		}
		return math.Abs(float64(back.X0-r0.X0)) <= 1 &&
			math.Abs(float64(back.Y0-r0.Y0)) <= 1 &&
			math.Abs(float64(back.X1-r0.X1)) <= 1 &&
			math.Abs(float64(back.Y1-r0.Y1)) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingYAML(t *testing.T) {
	ds := Build(Config{Scale: 0.01, Seed: 29})
	sp := ds.StratifiedSplit(0.126)
	y := TrainingYAML("ocularone", sp)
	for _, want := range []string{"nc: 1", ClassVest, "epochs: 100", "lr0: 0.01", "iou: 0.7", "imgsz: 640", "batch: 16"} {
		if !strings.Contains(y, want) {
			t.Fatalf("YAML missing %q:\n%s", want, y)
		}
	}
}

// UnmarshalJSONLines decodes a one-object-per-line annotation stream.
func UnmarshalJSONLines(data []byte) ([]Annotation, error) {
	var out []Annotation
	dec := json.NewDecoder(strings.NewReader(string(data)))
	for dec.More() {
		var a Annotation
		if err := dec.Decode(&a); err != nil {
			return nil, fmt.Errorf("dataset: decoding annotation %d: %w", len(out), err)
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseYOLOLine parses an Ultralytics txt line back into a pixel-space
// rectangle for an image of dimensions w×h.
func ParseYOLOLine(line string, w, h int) (imgproc.Rect, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 {
		return imgproc.Rect{}, fmt.Errorf("dataset: YOLO line has %d fields, want 5", len(fields))
	}
	vals := make([]float64, 4)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return imgproc.Rect{}, fmt.Errorf("dataset: YOLO field %d: %w", i+1, err)
		}
		vals[i] = v
	}
	cx, cy, bw, bh := vals[0]*float64(w), vals[1]*float64(h), vals[2]*float64(w), vals[3]*float64(h)
	return imgproc.Rect{
		X0: int(cx - bw/2), Y0: int(cy - bh/2),
		X1: int(cx + bw/2 + 0.5), Y1: int(cy + bh/2 + 0.5),
	}, nil
}
