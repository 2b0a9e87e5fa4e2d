package track

import (
	"ocularone/internal/detect"
	"ocularone/internal/imgproc"
)

// MultiTracker maintains several simultaneous single-target tracks with
// greedy IoU association — the worker-safety configuration, where every
// vest on a site is tracked independently. Track IDs are minted in
// detection order and never reused, so the ID sequence is a pure
// function of the detection stream.
type MultiTracker struct {
	cfg    Config
	tracks []*Tracker
	nextID int
	ids    []int
}

// matchIoU is the association gate between detections and track
// predictions.
const matchIoU = 0.2

// NewMulti creates a multi-target tracker.
func NewMulti(cfg Config) *MultiTracker {
	cfg.defaults()
	return &MultiTracker{cfg: cfg}
}

// Track is a snapshot of one live target.
type Track struct {
	ID         int
	Box        imgproc.Rect
	State      State
	Confidence float64
}

// Update associates detections to tracks greedily by IoU (best pair
// first), spawns tracks for unmatched detections, and coasts or retires
// unmatched tracks. It returns the live tracks after the update.
func (m *MultiTracker) Update(boxes []detect.Box) []Track {
	type pair struct {
		ti, di int
		iou    float64
	}
	var pairs []pair
	for ti, tr := range m.tracks {
		pred, ok := tr.predictBox()
		if !ok {
			continue
		}
		for di, b := range boxes {
			if iou := pred.IoU(b.Rect); iou >= matchIoU {
				pairs = append(pairs, pair{ti, di, iou})
			}
		}
	}
	// Greedy: highest IoU first.
	for i := 0; i < len(pairs); i++ {
		best := i
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].iou > pairs[best].iou {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
	}
	usedT := make([]bool, len(m.tracks))
	usedD := make([]bool, len(boxes))
	for _, p := range pairs {
		if usedT[p.ti] || usedD[p.di] {
			continue
		}
		usedT[p.ti] = true
		usedD[p.di] = true
		m.tracks[p.ti].Update([]detect.Box{boxes[p.di]})
	}
	// Unmatched tracks coast.
	for ti, tr := range m.tracks {
		if !usedT[ti] {
			tr.Update(nil)
		}
	}
	// Unmatched detections spawn tracks.
	for di, b := range boxes {
		if usedD[di] {
			continue
		}
		tr := New(m.cfg)
		tr.Update([]detect.Box{b})
		m.tracks = append(m.tracks, tr)
		m.ids = append(m.ids, m.nextID)
		m.nextID++
	}
	// Retire lost tracks.
	var liveTracks []*Tracker
	var liveIDs []int
	for i, tr := range m.tracks {
		if tr.State() != Lost {
			liveTracks = append(liveTracks, tr)
			liveIDs = append(liveIDs, m.ids[i])
		}
	}
	m.tracks, m.ids = liveTracks, liveIDs
	return m.Live()
}

// Live returns snapshots of all current tracks.
func (m *MultiTracker) Live() []Track {
	out := make([]Track, 0, len(m.tracks))
	for i, tr := range m.tracks {
		box, ok := tr.Box()
		if !ok {
			continue
		}
		out = append(out, Track{ID: m.ids[i], Box: box, State: tr.State(), Confidence: tr.Confidence()})
	}
	return out
}
