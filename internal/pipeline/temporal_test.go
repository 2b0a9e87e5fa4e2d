package pipeline

import (
	"reflect"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/temporal"
)

// overloadedSession is a timing-only stream whose stage work (~210 ms)
// exceeds the frame period (100 ms at 10 fps), so the root queue grows
// without bound under QueuePolicy — the regime the ladder exists for.
func ladderSession(frames int) *Session {
	return &Session{
		Frames: frames, FrameFPS: 10, Seed: 5, EdgeRTTms: 25,
		Policy: QueuePolicy{},
		Graph:  TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano)),
	}
}

// TestPipelineTemporalZeroKnob: a temporal layer set but disabled
// replays the pre-temporal schedule bit for bit and records no ladder
// work. Enabled is the layer's only field, so the disabled layer is the
// zero value and the schedule comparison is trivially true; only the
// no-work check still tests something.
func TestPipelineTemporalZeroKnob(t *testing.T) {
	base, err := ladderSession(40).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := ladderSession(40)
	s.Temporal = temporal.Layer{Enabled: false}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Frames, res.Frames) {
		t.Fatal("disabled temporal policy changed the frame schedule")
	}
	if res.Bridged != 0 || res.ROIFrames != 0 || res.EarlyExitFrames != 0 {
		t.Fatalf("disabled ladder recorded work: bridged=%d roi=%d early=%d",
			res.Bridged, res.ROIFrames, res.EarlyExitFrames)
	}
}

// TestPipelineTemporalLadderUnderOverload: with the ladder on, a stream
// that outpaces its device bridges and reduces rungs instead of letting
// latency grow without bound, and every bridge respects the anchoring
// contract (no bridging before a real inference completes).
func TestPipelineTemporalLadderUnderOverload(t *testing.T) {
	base, err := ladderSession(60).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := ladderSession(60)
	s.Temporal.Enabled = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bridged == 0 {
		t.Fatal("overloaded stream never bridged")
	}
	if res.ROIFrames+res.EarlyExitFrames == 0 {
		t.Fatal("overloaded stream never reduced an inference rung")
	}
	if res.ForcedRefreshes == 0 {
		t.Fatal("staleness clock never forced a full-frame refresh")
	}
	if res.BridgeStaleMaxMS <= 0 {
		t.Fatal("bridging recorded no staleness")
	}
	// The budget bounds consecutive bridges between real inferences.
	real := len(res.Frames) - res.Bridged
	if real <= 0 || res.Bridged > real*temporal.MaxBridged {
		t.Fatalf("%d bridges vs %d real frames exceeds budget %d", res.Bridged, real, temporal.MaxBridged)
	}
	// Shedding device time must shrink the end-to-end latency tail.
	if res.E2E.P95MS >= base.E2E.P95MS {
		t.Fatalf("ladder p95 %.0f ms did not improve on baseline %.0f ms",
			res.E2E.P95MS, base.E2E.P95MS)
	}
	if res.DeadlineOK < base.DeadlineOK {
		t.Fatalf("ladder deadline rate %.2f worse than baseline %.2f",
			res.DeadlineOK, base.DeadlineOK)
	}
}

// TestPipelineTemporalDoubleSkip: stale skips downstream of bridged
// roots are surfaced in DoubleSkips, bounded by the total skip count —
// the loud accounting the StaleSkipPolicy doc promises.
func TestPipelineTemporalDoubleSkip(t *testing.T) {
	s := ladderSession(80)
	// 25 fps: the 40 ms period is shorter than the detect pass alone, so
	// the root queue grows even while stale downstream work is shed.
	s.FrameFPS = 25
	s.Policy = StaleSkipPolicy{SlackFrames: 0.1}
	s.Temporal.Enabled = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bridged == 0 {
		t.Fatal("stale-skip stream never bridged")
	}
	total := 0
	for _, n := range res.StageSkips {
		total += n
	}
	if res.DoubleSkips == 0 {
		t.Fatal("no double-skips surfaced despite bridging plus stale-skipping")
	}
	if res.DoubleSkips > total {
		t.Fatalf("double-skips %d exceed total stage skips %d", res.DoubleSkips, total)
	}
}

// TestPipelineTemporalDeterminism: the ladder run is reproducible.
func TestPipelineTemporalDeterminism(t *testing.T) {
	run := func() StreamResult {
		s := ladderSession(50)
		s.Temporal.Enabled = true
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Frames, b.Frames) || a.Bridged != b.Bridged {
		t.Fatal("temporal session not deterministic across runs")
	}
}

// TestPipelineTemporalOutage: an outage on the root device turns into
// bridged frames (the tracker coasts through the hold) instead of a
// pure latency cliff, and the post-outage stream re-anchors.
func TestPipelineTemporalOutage(t *testing.T) {
	mk := func(enable bool) *Session {
		return &Session{
			Frames: 60, FrameFPS: 4, Seed: 5, EdgeRTTms: 25,
			Policy:  QueuePolicy{},
			Graph:   TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano)),
			Outages: []Outage{{Device: device.OrinNano, FromMS: 1000, ToMS: 2500}},
			Temporal: temporal.Layer{
				Enabled: enable,
			},
		}
	}
	base, err := mk(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mk(true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bridged == 0 {
		t.Fatal("no bridging across a 1.5 s root outage")
	}
	if res.E2E.P95MS >= base.E2E.P95MS {
		t.Fatalf("ladder p95 %.0f ms did not improve on outage baseline %.0f ms",
			res.E2E.P95MS, base.E2E.P95MS)
	}
}
