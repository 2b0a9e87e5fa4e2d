package models

import (
	"fmt"
	"sync"

	"ocularone/internal/nn"
	"ocularone/internal/rng"
)

// ID names one of the eight benchmark models of Table 2.
type ID int

// Benchmark model identifiers.
const (
	V8Nano ID = iota
	V8Medium
	V8XLarge
	V11Nano
	V11Medium
	V11XLarge
	Bodypose
	Monodepth2
	NumModels
)

// String returns the short name used in benchmark output.
func (id ID) String() string {
	switch id {
	case V8Nano:
		return "yolov8n"
	case V8Medium:
		return "yolov8m"
	case V8XLarge:
		return "yolov8x"
	case V11Nano:
		return "yolov11n"
	case V11Medium:
		return "yolov11m"
	case V11XLarge:
		return "yolov11x"
	case Bodypose:
		return "bodypose"
	case Monodepth2:
		return "monodepth2"
	default:
		return fmt.Sprintf("model(%d)", int(id))
	}
}

// AllIDs lists every benchmark model.
var AllIDs = []ID{V8Nano, V8Medium, V8XLarge, V11Nano, V11Medium, V11XLarge, Bodypose, Monodepth2}

// Info is the static description of a benchmark model: identity plus the
// reference numbers Table 2 reports.
type Info struct {
	ID           ID
	Category     string // "Vest Detection", "Pose Detection", "Depth Estimation"
	Architecture string
	Family       Family
	Size         Size
	IsYOLO       bool

	// Native inference input (square for YOLO; pose/depth use their
	// published defaults).
	InputW, InputH int

	// Paper Table 2 reference values.
	PaperParamsM float64
	PaperSizeMB  float64
}

// Catalog returns the Info for a model ID.
func Catalog(id ID) Info {
	switch id {
	case V8Nano:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv8, Size: Nano, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 3.2, PaperSizeMB: 5.95}
	case V8Medium:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv8, Size: Medium, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 25.9, PaperSizeMB: 49.61}
	case V8XLarge:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv8, Size: XLarge, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 68.2, PaperSizeMB: 130.38}
	case V11Nano:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv11, Size: Nano, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 2.6, PaperSizeMB: 5.22}
	case V11Medium:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv11, Size: Medium, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 20.1, PaperSizeMB: 38.64}
	case V11XLarge:
		return Info{ID: id, Category: "Vest Detection", Architecture: "YOLO", Family: YOLOv11, Size: XLarge, IsYOLO: true, InputW: 640, InputH: 640, PaperParamsM: 56.9, PaperSizeMB: 109.09}
	case Bodypose:
		return Info{ID: id, Category: "Pose Detection", Architecture: "ResNet-18", InputW: 224, InputH: 224, PaperParamsM: 12.8, PaperSizeMB: 25}
	case Monodepth2:
		return Info{ID: id, Category: "Depth Estimation", Architecture: "ResNet-18", InputW: 640, InputH: 192, PaperParamsM: 14.84, PaperSizeMB: 98.7}
	default:
		panic(fmt.Sprintf("models: unknown id %d", int(id)))
	}
}

// Build constructs the network for a model ID. nc is the detection class
// count for YOLO models (1 for the retrained vest detector, 80 for the
// published COCO checkpoints Table 2 describes); it is ignored for pose
// and depth models.
func Build(id ID, nc int, seed uint64) *nn.Network { return build(id, nc, rng.New(seed)) }

// build is Build drawing the weights from r; a nil r builds the
// architecture only: costable, not runnable (see nn.NewConv).
func build(id ID, nc int, r *rng.RNG) *nn.Network {
	info := Catalog(id)
	switch {
	case info.IsYOLO && info.Family == YOLOv8:
		return buildYOLOv8(info.Size, nc, r)
	case info.IsYOLO:
		return buildYOLOv11(info.Size, nc, r)
	case id == Bodypose:
		return buildTRTPose(r)
	default:
		return buildMonodepth2(r)
	}
}

// Stats holds derived model statistics used by Table 2 and the device
// latency model.
type Stats struct {
	Params    int64
	SizeMB    float64 // FP16 deployment size
	GFLOPs    float64 // at the model's native input
	ActMemory int64   // peak activation estimate (bytes) at native input
}

// stats is the Stats table of every model, built on first use. Parameter
// counts and costs depend on shapes alone, so it reads architecture-only
// builds (COCO-class head for YOLO, matching the published Table 2
// numbers): no weight is allocated or drawn.
var stats = sync.OnceValue(func() *[NumModels]Stats {
	var t [NumModels]Stats
	for id := ID(0); id < NumModels; id++ {
		t[id] = statsOf(id, build(id, 80, nil))
	}
	return &t
})

// ComputeStats returns the model's statistics from the table built once
// for all eight models.
func ComputeStats(id ID) Stats { return stats()[id] }

// statsOf derives the statistics of id's network at its native input.
func statsOf(id ID, net *nn.Network) Stats {
	info := Catalog(id)
	flops, outs := net.Cost(nn.Shape{C: 3, H: info.InputH, W: info.InputW})
	var actBytes int64
	for _, o := range outs {
		actBytes += int64(o.Volume()) * 4
	}
	return Stats{
		Params: net.Params(),
		SizeMB: float64(net.SizeBytesFP16()) / (1024 * 1024),
		GFLOPs: float64(flops) / 1e9,
		// Rough peak-activation proxy: input plus every output.
		ActMemory: int64(3*info.InputH*info.InputW)*4 + actBytes,
	}
}
