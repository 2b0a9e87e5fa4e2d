package pipeline

import (
	"fmt"
	"math"

	"ocularone/internal/depth"
	"ocularone/internal/detect"
	"ocularone/internal/models"
	"ocularone/internal/pose"
	"ocularone/internal/track"
)

// The three built-in stages reimplement the classic Ocularone pipeline —
// vest detection, body-pose fall analysis, depth-based obstacle ranging —
// as first-class graph stages. Each also supports timing-only frames
// (nil Image): analytics are bypassed and only simulated device time is
// charged, which is what the contention studies need.

// DetectStage is the graph root: hazard-vest detection with optional
// temporal tracking, emitting vip-lost alerts. It publishes VIPFound and
// Best on the frame context for downstream stages.
type DetectStage struct {
	Detector *detect.Detector
	// Tracker, when non-nil, bridges detector dropouts: the VIP counts
	// as present while the track is locked or coasting.
	Tracker *track.Tracker

	model models.ID
}

// NewDetectStage builds the detection stage. m is the model identity
// used for latency simulation; useTracker enables temporal bridging.
func NewDetectStage(d *detect.Detector, m models.ID, useTracker bool) *DetectStage {
	s := &DetectStage{Detector: d, model: m}
	if useTracker {
		s.Tracker = track.New(track.Config{})
	}
	return s
}

// Name identifies the stage.
func (s *DetectStage) Name() string { return "detect" }

// Model returns the simulated detection model.
func (s *DetectStage) Model() models.ID { return s.model }

// Deps is empty: detection is fed directly by the camera.
func (s *DetectStage) Deps() []string { return nil }

// Analyze detects the vest, updates the tracker, and raises vip-lost.
func (s *DetectStage) Analyze(fc *FrameCtx) bool {
	if fc.Image == nil {
		// Timing-only frame: charge device time, assume the VIP is
		// visible so downstream stages exercise their schedules too.
		fc.VIPFound = true
		return true
	}
	boxes := s.Detector.Detect(fc.Image)
	var best detect.Box
	for _, b := range boxes {
		if b.Score > best.Score {
			best = b
		}
	}
	fc.VIPFound = best.Score > 0
	if s.Tracker != nil {
		// Temporal bridging: the track carries the VIP through
		// single-frame detector misses.
		state := s.Tracker.Update(boxes)
		if tb, ok := s.Tracker.Box(); ok {
			fc.VIPFound = true
			if best.Score == 0 {
				best = detect.Box{Rect: tb, Score: s.Tracker.Confidence()}
			}
		}
		if state == track.Lost || state == track.Empty {
			fc.VIPFound = false
		}
	}
	fc.Best = best
	if !fc.VIPFound {
		fc.Alert(AlertVIPLost, "hazard vest not detected")
	}
	return true
}

// PoseStage analyses the detected person's body pose and raises fall
// alerts. It declines frames without a detected VIP.
type PoseStage struct {
	Fall *pose.FallClassifier
}

// NewPoseStage builds the pose stage.
func NewPoseStage(fall *pose.FallClassifier) *PoseStage { return &PoseStage{Fall: fall} }

// Name identifies the stage.
func (s *PoseStage) Name() string { return "pose" }

// Model returns the simulated pose model.
func (s *PoseStage) Model() models.ID { return models.Bodypose }

// Deps declares the detection dependency.
func (s *PoseStage) Deps() []string { return []string{"detect"} }

// Analyze classifies the person region; declined without a VIP.
func (s *PoseStage) Analyze(fc *FrameCtx) bool {
	if !fc.VIPFound {
		return false
	}
	if fc.Image == nil {
		return true
	}
	personBox := expandToPerson(fc.Best.Rect, fc.Image.W, fc.Image.H)
	if est, ok := pose.Analyze(fc.Image, personBox); ok && s.Fall != nil {
		if s.Fall.IsFallen(est) {
			fc.Alert(AlertFall, fmt.Sprintf("aspect=%.2f angle=%.2f", est.Aspect, math.Abs(est.AxisAngle)))
		}
	}
	return true
}

// DepthStage estimates obstacle distances and raises proximity alerts.
// It declines every frame until its estimator is trained.
type DepthStage struct {
	Est *depth.Estimator
	// AlertM is the proximity threshold for obstacle alerts (default 4).
	AlertM float64
}

// NewDepthStage builds the depth stage with the given alert threshold
// (<= 0 selects the 4 m default).
func NewDepthStage(est *depth.Estimator, alertM float64) *DepthStage {
	if alertM <= 0 {
		alertM = 4
	}
	return &DepthStage{Est: est, AlertM: alertM}
}

// Name identifies the stage.
func (s *DepthStage) Name() string { return "depth" }

// Model returns the simulated depth model.
func (s *DepthStage) Model() models.ID { return models.Monodepth2 }

// Deps declares the detection dependency (depth shares the decoded
// frame and starts once detection has fixed the region of interest).
func (s *DepthStage) Deps() []string { return []string{"detect"} }

// Analyze ranges the nearest obstacle; declined while untrained.
func (s *DepthStage) Analyze(fc *FrameCtx) bool {
	if s.Est == nil || !s.Est.Trained {
		return false
	}
	if fc.Image == nil {
		return true
	}
	obstacles := fc.Truth.DistractorBoxes
	if d := s.Est.NearestObstacleM(fc.Image, obstacles); d < s.AlertM {
		fc.Alert(AlertObstacle, fmt.Sprintf("obstacle at %.1f m", d))
	}
	return true
}

// TimingStage is an analytics-free stage for pure latency and contention
// studies: it always runs, consuming simulated device time only. Being
// stateless, timing stages may be shared between fleet sessions.
type TimingStage struct {
	name  string
	model models.ID
	deps  []string
}

// NewTimingStage builds a timing-only stage.
func NewTimingStage(name string, m models.ID, deps []string) *TimingStage {
	return &TimingStage{name: name, model: m, deps: deps}
}

// Name identifies the stage.
func (s *TimingStage) Name() string { return s.name }

// Model returns the simulated model.
func (s *TimingStage) Model() models.ID { return s.model }

// Deps returns the declared dependencies.
func (s *TimingStage) Deps() []string { return s.deps }

// Analyze always runs: the stage exists only to occupy the device.
func (s *TimingStage) Analyze(fc *FrameCtx) bool { return true }

// TimingVIPGraph assembles the classic detect→{pose,depth} topology
// from analytics-free timing stages — the graph the contention and
// latency studies run. The detect model comes from its placement.
func TimingVIPGraph(place map[StageID]Placement) *Graph {
	return NewGraph().
		Add(NewTimingStage("detect", place[StageDetect].Model, nil), place[StageDetect]).
		Add(NewTimingStage("pose", models.Bodypose, []string{"detect"}), place[StagePose]).
		Add(NewTimingStage("depth", models.Monodepth2, []string{"detect"}), place[StageDepth])
}

// VIPGraph assembles the classic detect→{pose,depth} Ocularone graph
// from a trained analytics stack, with per-stage placements keyed by
// StageID (the maps EdgePlacement and HybridPlacement produce).
func VIPGraph(det *detect.Detector, fall *pose.FallClassifier, est *depth.Estimator,
	place map[StageID]Placement, obstacleAlertM float64, useTracker bool) *Graph {
	return NewGraph().
		Add(NewDetectStage(det, place[StageDetect].Model, useTracker), place[StageDetect]).
		Add(NewPoseStage(fall), place[StagePose]).
		Add(NewDepthStage(est, obstacleAlertM), place[StageDepth])
}
