package pipeline

import (
	"reflect"
	"testing"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/models"
)

// timingSession builds a standalone timing-only session on the given
// placement with the default queueing policy.
func timingSession(place map[StageID]Placement, frames int, outages []Outage) *Session {
	return &Session{
		Frames: frames, FrameFPS: 10, Seed: 5, EdgeRTTms: 25,
		Policy:  QueuePolicy{},
		Graph:   TimingVIPGraph(place),
		Outages: outages,
	}
}

// TestZeroOutageParity pins the determinism contract: a nil outage
// list, an empty one, and one whose window the run never reaches all
// replay the outage-free schedule bit for bit.
func TestZeroOutageParity(t *testing.T) {
	place := EdgePlacement(device.OrinNano, models.V8Nano)
	base, err := timingSession(place, 40, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]Outage{
		"empty":       {},
		"far-future":  {{Device: device.OrinNano, FromMS: 1e9, ToMS: 1e9 + 500}},
		"degenerate":  {{Device: device.OrinNano, FromMS: 1000, ToMS: 1000}}, // ToMS <= FromMS: no hold
		"wrong-order": {{Device: device.OrinNano, FromMS: 2e9, ToMS: 2e9 + 1}, {Device: device.OrinNano, FromMS: 1e9, ToMS: 1e9 + 1}},
	}
	for name, out := range variants {
		res, err := timingSession(place, 40, out).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Frames, res.Frames) {
			t.Fatalf("%s outage list diverged from the outage-free run", name)
		}
		if base.Dropped != res.Dropped || base.DeadlineOK != res.DeadlineOK {
			t.Fatalf("%s outage list changed summary: dropped %d->%d deadlineOK %v->%v",
				name, base.Dropped, res.Dropped, base.DeadlineOK, res.DeadlineOK)
		}
	}
}

// TestOutageDelaysFrames: an outage on the placed edge device stalls
// the frames that arrive during it — their end-to-end latency balloons
// against the outage-free run — and the stream drains the backlog
// afterwards. Runs at 4 fps so the outage-free baseline is stable
// (≈210 ms of stage work per 250 ms period).
func TestOutageDelaysFrames(t *testing.T) {
	mk := func(out []Outage) *Session {
		return &Session{
			Frames: 60, FrameFPS: 4, Seed: 5, EdgeRTTms: 25,
			Policy:  QueuePolicy{},
			Graph:   TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano)),
			Outages: out,
		}
	}
	base, err := mk(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Down from 1.0 s to 2.5 s: frames 4..9 (arrivals 1000..2250 ms)
	// arrive into the hold.
	res, err := mk([]Outage{{Device: device.OrinNano, FromMS: 1000, ToMS: 2500}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != len(base.Frames) {
		t.Fatalf("outage changed processed frame count %d -> %d", len(base.Frames), len(res.Frames))
	}
	// The first held frame waits out the whole outage.
	if d := res.Frames[4].E2EMS - base.Frames[4].E2EMS; d < 1000 {
		t.Fatalf("frame 4 only delayed %.0f ms by a 1.5 s outage", d)
	}
	if res.DeadlineOK >= base.DeadlineOK {
		t.Fatalf("outage did not hurt deadline rate: %v vs %v", res.DeadlineOK, base.DeadlineOK)
	}
	// Pre-outage frames match the baseline bit for bit; by the end of
	// the stream the backlog has drained back to baseline latency.
	if res.Frames[3].E2EMS != base.Frames[3].E2EMS {
		t.Fatalf("pre-outage frame diverged: %v vs %v", res.Frames[3].E2EMS, base.Frames[3].E2EMS)
	}
	last, baseLast := res.Frames[len(res.Frames)-1], base.Frames[len(base.Frames)-1]
	if last.E2EMS > 2*baseLast.E2EMS+100 {
		t.Fatalf("stream did not recover after the outage: final E2E %.0f ms (baseline %.0f ms)",
			last.E2EMS, baseLast.E2EMS)
	}
}

// TestAdaptivePlacementRecoversFromOutage is the managed-recovery path
// the chaos layer exercises on the serving side, replayed through the
// pipeline: the detector starts on the workstation arm, the
// workstation goes down mid-stream, the controller sees the misses and
// downshifts the placement onto the edge arm.
func TestAdaptivePlacementRecoversFromOutage(t *testing.T) {
	arms := []adaptive.Arm{
		{Name: "nano@o-nano", Model: models.V8Nano, Dev: device.OrinNano, Accuracy: 0.99, RobustAccuracy: 0.8},
		{Name: "xlarge@ws", Model: models.V8XLarge, Dev: device.RTX4090, Accuracy: 0.999, RobustAccuracy: 0.99},
	}
	ctl := adaptive.NewController(arms, 1, adaptive.Config{Window: 10})
	s := &Session{
		Frames: 80, FrameFPS: 10, Seed: 6, EdgeRTTms: 25,
		Policy: DropPolicy{}, Placer: &AdaptivePlacement{Stage: "detect", Ctl: ctl},
		Graph:   TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8XLarge)),
		Outages: []Outage{{Device: device.RTX4090, FromMS: 500, ToMS: 6000}},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebinds == 0 || ctl.ArmIndex() != 0 {
		t.Fatalf("controller did not re-place off the failed workstation: rebinds=%d arm=%d",
			res.Rebinds, ctl.ArmIndex())
	}
	// Once re-placed on the edge the stream meets its period again.
	last := res.Frames[len(res.Frames)-1]
	if last.StageMS["detect"] > 100 {
		t.Fatalf("post-recovery detect latency %.0f ms still workstation-bound", last.StageMS["detect"])
	}
}

// TestFleetOutageHitsAllSessions: a fleet-level outage on the shared
// workstation is merged into every session's schedule and applied once
// (HoldUntil is idempotent), so all sessions feel the downtime.
func TestFleetOutageHitsAllSessions(t *testing.T) {
	mk := func() *Fleet {
		f := &Fleet{SharedSeed: 9}
		for i := 0; i < 2; i++ {
			f.Sessions = append(f.Sessions, &Session{
				ID: i, Frames: 30, FrameFPS: 10, Seed: uint64(20 + i), EdgeRTTms: 25,
				OffsetMS: float64(i) * 7,
				Policy:   QueuePolicy{},
				Graph:    TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8XLarge)),
			})
		}
		return f
	}
	base, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	f := mk()
	f.Outages = []Outage{{Device: device.RTX4090, FromMS: 800, ToMS: 2200}}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].E2E.P95MS <= base[i].E2E.P95MS {
			t.Fatalf("session %d p95 %.0f ms not degraded by shared outage (baseline %.0f ms)",
				i, res[i].E2E.P95MS, base[i].E2E.P95MS)
		}
	}
	// Parity with no fleet outages.
	again, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !reflect.DeepEqual(base[i].Frames, again[i].Frames) {
			t.Fatalf("fleet session %d not deterministic across outage-free runs", i)
		}
	}
}
