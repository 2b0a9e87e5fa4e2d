package bench

import (
	"fmt"
	"io"
	"math"

	"ocularone/internal/chaos"
	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
	"ocularone/internal/scene"
	"ocularone/internal/temporal"
	"ocularone/internal/track"
	"ocularone/internal/video"
)

// TemporalRegimes returns the ext-temporal sweep, an ablation of the
// degradation ladder: the fault-free baseline, the PR-7 shed-only
// response to dropouts, the same dropouts with the ladder live, and the
// ladder under the combined regime. Two rows are cross-PR determinism
// gates: the baseline must reproduce the plain ext-serve rho=1.0
// fingerprint, and dropout-shed-only must reproduce the ext-chaos
// dropout row bit for bit — proving the ladder's wiring perturbed
// nothing it did not opt into. The dropout-ladder row then differs from
// shed-only in exactly one knob (Temporal) at the same seed and
// traffic, so its goodput delta is attributable to the ladder alone.
func TemporalRegimes(seed uint64) []KneeRegime {
	return []KneeRegime{
		{Name: "baseline", Chaos: chaos.Baseline(seed)},
		{Name: "dropout-shed-only", Chaos: chaos.DropoutRegime(seed), Adapt: true},
		{Name: "dropout-ladder", Chaos: chaos.DropoutRegime(seed), Adapt: true, Temporal: true},
		{Name: "combined-ladder", Chaos: chaos.Combined(seed), Adapt: true, Temporal: true},
	}
}

// TemporalDrift is the detection-quality half of the study: the same
// drone video tracked twice — once with the detector running full-frame
// every frame, once under the ladder schedule (ROI crops, early exits,
// tracker bridges through chaos-injected detection gaps) — both scored
// against rendered ground truth. HitDeltaPct and IoUDrift are the
// accuracy the ladder trades for the goodput the serving half reports;
// MaxStaleFrames is the measured worst staleness, bounded by the
// ladder's budget (MaxBridged bridges plus the budget-exhausted tail of
// a gap burst).
type TemporalDrift struct {
	Frames          int
	VIPFrames       int
	FullHitPct      float64
	LadderHitPct    float64
	HitDeltaPct     float64
	FullMeanIoU     float64
	LadderMeanIoU   float64
	IoUDrift        float64
	FullFrames      int
	ROIFrames       int
	EarlyExitFrames int
	BridgedFrames   int
	DroppedFrames   int
	ForcedRefreshes int64
	MaxStaleFrames  int
}

// driftGap is the chaos schedule of the drift run: two dropout bursts —
// an occlusion window and a night window, mirroring the paired
// conditions of the ext-chaos study — during which no detection
// reaches the tracker. Each burst is one frame longer than the default
// bridging budget, so the run exercises both coasting and the
// budget-exhausted fallback.
func driftGap(i int) (scene.Condition, bool) {
	switch {
	case i >= 12 && i < 17:
		return scene.Occlusion, true
	case i >= 36 && i < 41:
		return scene.Night, true
	}
	return scene.Clear, false
}

// driftPressure is the deterministic overload wave of the drift run:
// the synthetic queue-delay signal cycles calm → moderate → heavy so
// Select exercises every dispatch rung (full, ROI-capped, early-exit-
// capped) against a one-frame-period slack.
func driftPressure(i int, periodMS float64) float64 {
	switch (i / 4) % 3 {
	case 1:
		return 0.7 * periodMS // > period/2: caps the rung at ROI
	case 2:
		return 1.3 * periodMS // > period: caps the rung at EarlyExit
	}
	return 0.2 * periodMS
}

// driftVIP returns the live track closest to the truth vest centre.
func driftVIP(tracks []track.Track, gt *scene.GroundTruth) (track.Track, bool) {
	cx, cy := gt.VestBox.Center()
	best, bestD := track.Track{}, math.Inf(1)
	for _, tr := range tracks {
		tx, ty := tr.Box.Center()
		if d := math.Hypot(tx-cx, ty-cy); d < bestD {
			best, bestD = tr, d
		}
	}
	return best, !math.IsInf(bestD, 1)
}

// RunTemporalDrift runs the detection-quality half: one medium-tier
// detector trained on the clean stratified split, one 10 fps drone
// video, two tracked passes over identical rendered frames. The ladder
// pass walks the real temporal.Policy — rung selection under the
// overload wave, tracker bridging through the dropout bursts, the
// forced-refresh clock — executing each rung with the real detect-head
// mechanisms (DetectROI around the live track, DetectEarly, coasting
// via MultiTracker). Everything is deterministic at a fixed Scale.
func RunTemporalDrift(sc Scale) TemporalDrift {
	ds := dataset.Build(dataset.Config{Scale: sc.Data, W: sc.W, H: sc.H, Seed: sc.Seed})
	sp := ds.StratifiedSplit(sc.TrainFrac)
	det := detect.TrainDataset(detect.TierFor(models.YOLOv8, models.Medium), sp.Train)
	v := video.New(video.Spec{
		ID: 1, DurationSec: 6, FPS: 10, W: sc.W, H: sc.H,
		Background: scene.Footpath, Lighting: 1.0, Seed: sc.Seed,
	})
	n := v.NumFrames()
	periodMS := 100.0 // 10 fps frame period

	render := func(i int) (*imgproc.Image, *scene.GroundTruth) {
		s, cam := v.SceneAt(i)
		cond, _ := driftGap(i)
		s.Condition = cond
		return scene.Render(s, cam)
	}
	score := func(tr track.Track, gt *scene.GroundTruth) float64 {
		return tr.Box.IoU(gt.VestBox)
	}

	d := TemporalDrift{Frames: n}

	// Full-frame reference: the detector runs every frame under the same
	// scene conditions (including the degraded bursts) — the ladder's
	// gaps and reduced rungs are the only difference between the passes.
	fullHits, fullIoU := 0, 0.0
	{
		m := track.NewMulti(track.Config{})
		for i := 0; i < n; i++ {
			im, gt := render(i)
			if gt.HasVIP {
				d.VIPFrames++
			}
			tr, ok := driftVIP(m.Update(det.Detect(im)), gt)
			if !ok || !gt.HasVIP {
				continue
			}
			iou := score(tr, gt)
			fullIoU += iou
			if iou >= 0.3 {
				fullHits++
			}
		}
	}

	// Ladder pass.
	pol := temporal.NewPolicy(temporal.Config{})
	m := track.NewMulti(track.Config{MaxCoastFrames: temporal.MaxBridged + 2})
	ladderHits, ladderIoU := 0, 0.0
	var bt temporal.Track
	var lastBox imgproc.Rect
	haveBox := false
	stale := 0
	for i := 0; i < n; i++ {
		im, gt := render(i)
		_, gap := driftGap(i)
		var boxes []detect.Box
		real := false
		switch {
		case gap:
			if _, _, ok := pol.Bridge(&bt, float64(i)*periodMS); ok {
				// The tracker's motion model stands in for the frame.
				d.BridgedFrames++
			} else {
				// Budget exhausted mid-burst: the frame is simply dropped,
				// as the serving tier would have shed it.
				d.DroppedFrames++
			}
		default:
			rung := pol.Select(temporal.Signals{
				QueueDelayMS: driftPressure(i, periodMS),
				SlackMS:      periodMS,
			})
			if rung == temporal.ROI && !haveBox {
				rung = temporal.FullFrame // no live track to crop around
			}
			switch rung {
			case temporal.ROI:
				boxes = det.DetectROI(im, detect.ROIAround(lastBox, 0.5, im.W, im.H))
				d.ROIFrames++
			case temporal.EarlyExit:
				boxes, _ = det.DetectEarly(im, 0.4)
				d.EarlyExitFrames++
			default:
				boxes = det.Detect(im)
				d.FullFrames++
			}
			real = true
			bt.Anchor(float64(i) * periodMS)
		}
		tracks := m.Update(boxes)
		if real {
			stale = 0
		} else {
			stale++
			if stale > d.MaxStaleFrames {
				d.MaxStaleFrames = stale
			}
		}
		tr, ok := driftVIP(tracks, gt)
		if ok && tr.State != track.Lost {
			lastBox, haveBox = tr.Box, true
		}
		degraded := !real || len(boxes) == 0
		pol.Observe(false, degraded)
		if !ok || !gt.HasVIP {
			continue
		}
		iou := score(tr, gt)
		ladderIoU += iou
		if iou >= 0.3 {
			ladderHits++
		}
	}
	d.ForcedRefreshes = pol.ForcedRefreshes()

	if d.VIPFrames > 0 {
		d.FullHitPct = 100 * float64(fullHits) / float64(d.VIPFrames)
		d.LadderHitPct = 100 * float64(ladderHits) / float64(d.VIPFrames)
		d.FullMeanIoU = fullIoU / float64(d.VIPFrames)
		d.LadderMeanIoU = ladderIoU / float64(d.VIPFrames)
	}
	d.HitDeltaPct = d.LadderHitPct - d.FullHitPct
	d.IoUDrift = d.LadderMeanIoU - d.FullMeanIoU
	return d
}

// TemporalStudy is the full ext-temporal result: the serving ablation
// plus the tracked-video drift measurement.
type TemporalStudy struct {
	Points []KneePoint
	Drift  TemporalDrift
}

// RunTemporalStudy runs the full study: the serving curve at horizon
// 10 s and the drift pass at the given scale.
func RunTemporalStudy(sc Scale) *TemporalStudy {
	return &TemporalStudy{
		Points: RunKnee(TemporalRegimes(sc.Seed), sc.Seed, 10_000),
		Drift:  RunTemporalDrift(sc),
	}
}

// WriteTemporalCurve renders the serving half of the temporal study:
// the bridged / ROI / early-exit counters and the staleness quantiles
// are the ladder's degraded-tier ledger; goodput against the shed-only
// row is the headline the ladder is judged on.
func WriteTemporalCurve(w io.Writer, pts []KneePoint) {
	divider(w, "Extension: temporal degradation ladder at the capacity knee (bridged / ROI / early-exit vs shed-only)")
	fmt.Fprintf(w, "%-18s %11s %9s %10s %6s %7s %6s %6s %6s %6s %9s %9s\n",
		"regime", "goodput/s", "p50", "p99", "shed%", "bridge", "roi",
		"early", "refrsh", "rungsw", "stale-p50", "stale-max")
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s %11.0f %8.1fms %9.1fms %5.1f%% %7d %6d %6d %6d %6d %8.0fms %8.0fms\n",
			p.Name, p.GoodputPerSec, p.P50MS, p.P99MS, pct(p.Shed, p.Offered),
			p.BridgedReqs, p.ROIReqs, p.EarlyExitReqs, p.ForcedRefreshes,
			p.RungSwitches, p.StaleP50MS, p.StaleMaxMS)
	}
}

// WriteTemporalStudy renders the full study including the drift pass.
func WriteTemporalStudy(w io.Writer, st *TemporalStudy) {
	WriteTemporalCurve(w, st.Points)
	d := st.Drift
	fmt.Fprintf(w, "drift vs full-frame tracking (medium tier, %d frames, %d with VIP):\n",
		d.Frames, d.VIPFrames)
	fmt.Fprintf(w, "  hit-rate  full %5.1f%%  ladder %5.1f%%  delta %+5.1f%%\n",
		d.FullHitPct, d.LadderHitPct, d.HitDeltaPct)
	fmt.Fprintf(w, "  mean IoU  full %5.3f  ladder %5.3f  drift %+6.3f\n",
		d.FullMeanIoU, d.LadderMeanIoU, d.IoUDrift)
	fmt.Fprintf(w, "  rungs     full %d  roi %d  early %d  bridged %d  dropped %d  forced-refresh %d  max-stale %d frames\n",
		d.FullFrames, d.ROIFrames, d.EarlyExitFrames, d.BridgedFrames,
		d.DroppedFrames, d.ForcedRefreshes, d.MaxStaleFrames)
}
