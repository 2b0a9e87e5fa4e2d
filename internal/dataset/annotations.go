package dataset

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ClassVest is the single class label of the Ocularone dataset — the
// "neon hazard vest" region of interest annotated in Roboflow.
const ClassVest = "neon-hazard-vest"

// Annotation is the Roboflow-style record the paper describes: class
// label plus top-left and bottom-right bounding-box coordinates.
type Annotation struct {
	ImageID string `json:"image_id"`
	Label   string `json:"label"`
	// Top-left and bottom-right corners, pixel coordinates.
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
	W  int `json:"width"`
	H  int `json:"height"`
}

// AnnotationFor builds the Roboflow-style annotation for a rendered item.
// Items without a visible vest return ok=false (they carry no box).
func AnnotationFor(r Rendered, w, h int) (Annotation, bool) {
	if !r.Truth.HasVIP || r.Truth.VestBox.Empty() {
		return Annotation{}, false
	}
	b := r.Truth.VestBox
	return Annotation{
		ImageID: ItemID(r.Item),
		Label:   ClassVest,
		X0:      b.X0, Y0: b.Y0, X1: b.X1, Y1: b.Y1,
		W: w, H: h,
	}, true
}

// ItemID returns the canonical image identifier, e.g. "cat1a_000042".
func ItemID(it Item) string {
	return fmt.Sprintf("cat%s_%06d", it.Category, it.Index)
}

// MarshalJSONLines encodes annotations one-JSON-object-per-line, the
// interchange format of the repository's dataset exports.
func MarshalJSONLines(anns []Annotation) ([]byte, error) {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, a := range anns {
		if err := enc.Encode(a); err != nil {
			return nil, fmt.Errorf("dataset: encoding annotation %s: %w", a.ImageID, err)
		}
	}
	return []byte(sb.String()), nil
}

// YOLOLine renders the annotation in Ultralytics YOLO txt format:
// "class cx cy w h" with coordinates normalised to [0,1].
func (a Annotation) YOLOLine() string {
	cx := (float64(a.X0) + float64(a.X1)) / 2 / float64(a.W)
	cy := (float64(a.Y0) + float64(a.Y1)) / 2 / float64(a.H)
	bw := float64(a.X1-a.X0) / float64(a.W)
	bh := float64(a.Y1-a.Y0) / float64(a.H)
	return fmt.Sprintf("0 %.6f %.6f %.6f %.6f", cx, cy, bw, bh)
}

// TrainingYAML emits the Roboflow/Ultralytics-style dataset YAML the
// paper's retraining pipeline consumes (§3.1).
func TrainingYAML(name string, sp Split) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Ocularone-Bench dataset config — generated\n")
	fmt.Fprintf(&sb, "name: %s\n", name)
	fmt.Fprintf(&sb, "nc: 1\n")
	fmt.Fprintf(&sb, "names: [%q]\n", ClassVest)
	fmt.Fprintf(&sb, "train: %d  # images\n", sp.Train.Len())
	fmt.Fprintf(&sb, "val: %d  # images\n", sp.Val.Len())
	fmt.Fprintf(&sb, "test: %d  # images\n", sp.Test.Len())
	fmt.Fprintf(&sb, "imgsz: 640\nbatch: 16\nepochs: 100\nlr0: 0.01\niou: 0.7\n")
	return sb.String()
}
