package pipeline

import (
	"fmt"

	"ocularone/internal/device"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
)

// StageID keys the placement maps of the classic three-stage graph
// (VIPGraph, TimingVIPGraph, EdgePlacement, HybridPlacement); graph
// stages themselves are identified by name.
type StageID int

// Classic pipeline stages.
const (
	StageDetect StageID = iota
	StagePose
	StageDepth
)

// String names the stage.
func (s StageID) String() string {
	switch s {
	case StageDetect:
		return "detect"
	case StagePose:
		return "pose"
	case StageDepth:
		return "depth"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// AlertKind enumerates safety alerts.
type AlertKind int

// Alert kinds.
const (
	// AlertVIPLost fires when the vest is not found in the frame.
	AlertVIPLost AlertKind = iota
	// AlertFall fires when the pose classifier flags a fall.
	AlertFall
	// AlertObstacle fires when an obstacle is within the threshold.
	AlertObstacle
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case AlertVIPLost:
		return "vip-lost"
	case AlertFall:
		return "fall"
	case AlertObstacle:
		return "obstacle"
	default:
		return fmt.Sprintf("alert(%d)", int(k))
	}
}

// Alert is one emitted safety event.
type Alert struct {
	Kind       AlertKind
	FrameIndex int
	Detail     string
}

// FrameStat records the simulated timing of one processed frame.
// StageMS holds the arrival-to-finish latency of every stage that ran
// (including network round trips), keyed by stage name.
type FrameStat struct {
	FrameIndex int
	E2EMS      float64
	Deadline   bool // finished within the frame period
	VIPFound   bool
	StageMS    map[string]float64
	// Dropped marks a synthetic stat for a frame the back-pressure
	// policy rejected whole. Dropped stats are reported to placement
	// policies (a drop is latency pressure) but never appended to
	// StreamResult.Frames; VIPFound is left true so a drop does not read as
	// an accuracy failure.
	Dropped bool
}

// expandToPerson grows a vest box to cover the whole person: the vest
// sits on the torso, roughly the middle third of the body.
func expandToPerson(vest imgproc.Rect, w, h int) imgproc.Rect {
	vw, vh := vest.W(), vest.H()
	return imgproc.Rect{
		X0: vest.X0 - vw/2, Y0: vest.Y0 - vh*3/2,
		X1: vest.X1 + vw/2, Y1: vest.Y1 + vh*2,
	}.Clamp(w, h)
}

// EdgePlacement returns the all-on-edge configuration the paper's Fig. 5
// benchmarks correspond to.
func EdgePlacement(dev device.ID, det models.ID) map[StageID]Placement {
	return map[StageID]Placement{
		StageDetect: {Device: dev, Model: det},
		StagePose:   {Device: dev, Model: models.Bodypose},
		StageDepth:  {Device: dev, Model: models.Monodepth2},
	}
}

// HybridPlacement hosts the detector on the workstation (large accurate
// model) and the auxiliary models on the edge — the deployment §4.2.4
// advocates.
func HybridPlacement(edge device.ID, det models.ID) map[StageID]Placement {
	return map[StageID]Placement{
		StageDetect: {Device: device.RTX4090, Model: det},
		StagePose:   {Device: edge, Model: models.Bodypose},
		StageDepth:  {Device: edge, Model: models.Monodepth2},
	}
}
