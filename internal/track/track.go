package track

import (
	"ocularone/internal/detect"
	"ocularone/internal/imgproc"
)

// Config tunes the tracker.
type Config struct {
	// MaxCoastFrames is how many consecutive misses the tracker bridges
	// by extrapolating the motion model before declaring the target
	// lost. Default 8 (0.8 s at 10 FPS).
	MaxCoastFrames int
}

const (
	// smoothing is the EMA factor for box updates (0 = frozen, 1 = no
	// smoothing).
	smoothing = 0.6
	// gateIoU rejects detections that do not overlap the predicted box
	// at least this much while the tracker is confident.
	gateIoU = 0.05
	// confDecay multiplies the track confidence per coasted frame.
	confDecay = 0.8
)

func (c *Config) defaults() {
	if c.MaxCoastFrames <= 0 {
		c.MaxCoastFrames = 8
	}
}

// State reports the tracker's target status.
type State int

// Tracker states.
const (
	// Empty means no target has been acquired yet.
	Empty State = iota
	// Locked means the target was observed this frame.
	Locked
	// Coasting means the target is being extrapolated through misses.
	Coasting
	// Lost means the coast budget ran out.
	Lost
)

// String names the state.
func (s State) String() string {
	switch s {
	case Empty:
		return "empty"
	case Locked:
		return "locked"
	case Coasting:
		return "coasting"
	default:
		return "lost"
	}
}

// Tracker is a single-target box tracker. The zero value is not ready;
// use New.
type Tracker struct {
	cfg    Config
	state  State
	cx, cy float64 // centre
	w, h   float64 // size
	vx, vy float64 // centre velocity, px/frame
	coast  int
	conf   float64
}

// New creates a tracker.
func New(cfg Config) *Tracker {
	cfg.defaults()
	return &Tracker{cfg: cfg, state: Empty}
}

// State returns the current target status.
func (t *Tracker) State() State { return t.state }

// Confidence returns the current track confidence in [0,1]: the
// detection score when locked, decaying while coasting.
func (t *Tracker) Confidence() float64 { return t.conf }

// Box returns the current (smoothed or extrapolated) target box; ok is
// false when the tracker is Empty or Lost.
func (t *Tracker) Box() (imgproc.Rect, bool) {
	if t.state == Empty || t.state == Lost {
		return imgproc.Rect{}, false
	}
	return imgproc.Rect{
		X0: int(t.cx - t.w/2), Y0: int(t.cy - t.h/2),
		X1: int(t.cx + t.w/2), Y1: int(t.cy + t.h/2),
	}, true
}

// Update advances the tracker by one frame with the detector's output.
// It returns the post-update state.
func (t *Tracker) Update(boxes []detect.Box) State {
	best, ok := t.selectDetection(boxes)
	if !ok {
		return t.miss()
	}
	cx, cy := best.Rect.Center()
	w, h := float64(best.Rect.W()), float64(best.Rect.H())
	if t.state == Empty || t.state == Lost {
		t.cx, t.cy, t.w, t.h = cx, cy, w, h
		t.vx, t.vy = 0, 0
	} else {
		alpha := smoothing
		nvx := cx - t.cx
		nvy := cy - t.cy
		t.vx = alpha*nvx + (1-alpha)*t.vx
		t.vy = alpha*nvy + (1-alpha)*t.vy
		t.cx += alpha * (cx - t.cx)
		t.cy += alpha * (cy - t.cy)
		t.w += alpha * (w - t.w)
		t.h += alpha * (h - t.h)
	}
	t.coast = 0
	t.conf = best.Score
	if t.conf > 1 {
		t.conf = 1
	}
	t.state = Locked
	return t.state
}

// selectDetection picks the detection to associate: the highest-scoring
// box that passes the IoU gate against the predicted position (or the
// global best when the tracker has no target).
func (t *Tracker) selectDetection(boxes []detect.Box) (detect.Box, bool) {
	if len(boxes) == 0 {
		return detect.Box{}, false
	}
	pred, havePred := t.predictBox()
	var best detect.Box
	found := false
	for _, b := range boxes {
		if havePred && pred.IoU(b.Rect) < gateIoU {
			continue
		}
		if !found || b.Score > best.Score {
			best = b
			found = true
		}
	}
	if !found && !havePred {
		return detect.Box{}, false
	}
	if !found {
		// All detections failed the gate; treat as a miss rather than
		// jumping to a different object.
		return detect.Box{}, false
	}
	return best, true
}

// predictBox extrapolates the target by one frame of velocity.
func (t *Tracker) predictBox() (imgproc.Rect, bool) {
	if t.state == Empty || t.state == Lost {
		return imgproc.Rect{}, false
	}
	cx := t.cx + t.vx
	cy := t.cy + t.vy
	return imgproc.Rect{
		X0: int(cx - t.w/2), Y0: int(cy - t.h/2),
		X1: int(cx + t.w/2), Y1: int(cy + t.h/2),
	}, true
}

// miss advances the coast logic on a frame without an associated
// detection.
func (t *Tracker) miss() State {
	switch t.state {
	case Empty, Lost:
		return t.state
	default:
		t.coast++
		if t.coast > t.cfg.MaxCoastFrames {
			t.state = Lost
			t.conf = 0
			return t.state
		}
		// Extrapolate and decay confidence geometrically.
		t.cx += t.vx
		t.cy += t.vy
		t.conf *= confDecay
		t.state = Coasting
		return t.state
	}
}
