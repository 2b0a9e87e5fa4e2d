// Worker safety: the paper's §1 broader application — monitoring hazard
// vest compliance on a work site. This example shows the stage-graph API
// carrying a workload the fixed detect→{pose,depth} VIP graph
// (pipeline.VIPGraph) cannot express: a custom
// FrameSource (a mounted site camera rendering crowds of workers) feeds
// a user-defined compliance Stage that counts vests, tracks them across
// frames, and raises violation alerts, with its latency simulated on
// the site's edge box.
package main

import (
	"fmt"
	"os"

	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
	"ocularone/internal/track"
	"ocularone/internal/video"
)

// siteFrame is one rendered site-camera frame plus its staffing truth.
type siteFrame struct {
	workers int
	vests   int
}

// siteFeed renders the work-site camera: 1-3 workers per frame, each
// wearing a vest with 70% probability. It implements pipeline.FrameSource
// so the compliance graph can consume it like any drone video.
type siteFeed struct {
	frames int
	truth  []siteFrame
}

// Extract renders every site frame (the mounted camera has no frame-rate
// subsampling to do).
func (f *siteFeed) Extract(_, limit int) []video.ExtractedFrame {
	n := f.frames
	if limit > 0 && limit < n {
		n = limit
	}
	cam := scene.DefaultCamera(320, 240, 2.2) // site camera, mounted high
	r := rng.New(99)
	f.truth = make([]siteFrame, n)
	out := make([]video.ExtractedFrame, n)
	for frame := 0; frame < n; frame++ {
		workers := 1 + r.Intn(3)
		vests := 0
		s := &scene.Scene{
			Background: scene.RoadSide, Lighting: r.Range(0.8, 1.1),
			CamHeightM: 2.2, Seed: uint64(frame) * 17, Clutter: 0.4,
		}
		for wkr := 0; wkr < workers; wkr++ {
			e := scene.RandomEntity(r.SplitN("worker", frame*8+wkr), scene.Pedestrian)
			e.Depth = r.Range(4, 9)
			if wkr == 0 && r.Bool(0.7) {
				e.Kind = scene.VIP // vest on
				vests++
			}
			s.Entities = append(s.Entities, e)
		}
		im, gt := scene.Render(s, cam)
		f.truth[frame] = siteFrame{workers: workers, vests: vests}
		out[frame] = video.ExtractedFrame{FrameIndex: frame, Image: im, Truth: gt}
	}
	return out
}

// complianceStage is a user-defined graph stage: vest detection plus
// multi-target tracking, raising a vip-lost-style violation alert when
// workers outnumber detected vests. Being stateful, it also keeps the
// per-frame counts the report prints.
type complianceStage struct {
	det    *detect.Detector
	feed   *siteFeed
	trk    *track.MultiTracker
	vests  []int
	tracks []int
}

func (c *complianceStage) Name() string     { return "compliance" }
func (c *complianceStage) Model() models.ID { return models.V8XLarge }
func (c *complianceStage) Deps() []string   { return nil }

func (c *complianceStage) Analyze(fc *pipeline.FrameCtx) bool {
	boxes := c.det.Detect(fc.Image)
	tracks := c.trk.Update(boxes)
	truth := c.feed.truth[fc.FrameIndex]
	c.vests = append(c.vests, len(boxes))
	c.tracks = append(c.tracks, len(tracks))
	fc.Values["vests"] = float64(len(boxes))
	fc.VIPFound = len(boxes) >= truth.vests // all present vests seen
	if truth.workers > len(boxes) {
		fc.Alert(pipeline.AlertVIPLost,
			fmt.Sprintf("%d worker(s) without a detected vest", truth.workers-len(boxes)))
	}
	return true
}

func main() {
	// Retrain the x-large detector — compliance monitoring is offline,
	// so the highest-accuracy variant is the right choice.
	ds := dataset.Build(dataset.Config{Scale: 0.01, W: 320, H: 240, Seed: 42})
	sp := ds.StratifiedSplit(0.2)
	det := detect.TrainDataset(detect.TierFor(models.YOLOv8, models.XLarge), sp.Train)
	fmt.Printf("compliance detector: %s\n\n", det)

	feed := &siteFeed{frames: 20}
	stage := &complianceStage{
		det: det, feed: feed,
		// Track each vest across frames so momentary detector misses
		// don't raise spurious violations.
		trk: track.NewMulti(track.Config{MaxCoastFrames: 2}),
	}
	s := &pipeline.Session{
		Source: feed,
		Graph:  pipeline.NewGraph().AddOn(stage, device.OrinAGX),
		// The site box analyses at 2 FPS; compliance has no deadline
		// pressure, so queue rather than drop.
		Policy: pipeline.QueuePolicy{}, FrameFPS: 2, Seed: 11,
	}
	res, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker_safety:", err)
		os.Exit(1)
	}

	violations := map[int]string{}
	for _, a := range res.Alerts {
		violations[a.FrameIndex] = a.Detail
	}
	fmt.Printf("%-8s %-8s %-8s %-8s %-10s %-10s %s\n",
		"frame", "workers", "vests", "tracks", "latency", "status", "detail")
	for i, f := range res.Frames {
		fc := feed.truth[i]
		status, detail := "OK", ""
		if d, bad := violations[f.FrameIndex]; bad {
			status, detail = "VIOLATION", d
		} else if !f.VIPFound {
			status, detail = "MISS", "vest present but not detected"
		}
		fmt.Printf("%-8d %-8d %-8d %-8d %-10s %-10s %s\n",
			f.FrameIndex, fc.workers, stage.vests[i], stage.tracks[i],
			fmt.Sprintf("%.0fms", f.E2EMS), status, detail)
	}
	fmt.Printf("\n%d/%d frames had compliance violations\n", len(violations), len(res.Frames))
}
