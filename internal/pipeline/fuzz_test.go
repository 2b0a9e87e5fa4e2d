package pipeline

import (
	"math"
	"reflect"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/temporal"
)

// fuzzFleet builds a timing-only fleet of 1-8 sessions of 0-40 frames
// from a layout byte stream (read as zeros once exhausted). Session 0
// and the fleet take the raw floats, so the front door sees every NaN,
// infinity and extreme the fuzzer makes: frame rate, offset, round trip,
// one open-loop trace entry, the outage bounds, the batching window and
// the back-pressure policy's budget (QueuePolicy.BudgetMS or
// StaleSkipPolicy.SlackFrames, whichever session 0 drew).
// The other sessions draw tame values from the layout. It returns the
// frames each session offers.
func fuzzFleet(layout []byte, fps, offset, rtt, arrival, from, to, window, budget float64) (*Fleet, []int) {
	next := func() int {
		if len(layout) == 0 {
			return 0
		}
		b := layout[0]
		layout = layout[1:]
		return int(b)
	}
	placements := []map[StageID]Placement{
		EdgePlacement(device.OrinNano, models.V8Nano),
		HybridPlacement(device.OrinNano, models.V8XLarge),
		EdgePlacement(device.OrinAGX, models.V8Medium),
		{
			StageDetect: {Device: device.RTX4090, Model: models.V8Medium},
			StagePose:   {Device: device.RTX4090, Model: models.Bodypose},
			StageDepth:  {Device: device.RTX4090, Model: models.Monodepth2},
		},
	}
	f := &Fleet{SharedSeed: uint64(next()), Batch: BatchPolicy{MaxBatch: next() % 6, WindowMS: window}}
	if next()%2 == 1 {
		f.Outages = []Outage{{Device: device.RTX4090, FromMS: from, ToMS: to}}
	}
	n := 1 + next()%8
	offered := make([]int, n)
	for i := range offered {
		s := &Session{
			ID: i, Frames: next() % 41, Seed: uint64(next()),
			FrameFPS: float64(next() % 30), OffsetMS: float64(next()), EdgeRTTms: float64(next() % 50),
		}
		offered[i] = s.Frames
		place := placements[next()%len(placements)]
		s.Graph = TimingVIPGraph(place)
		switch next() % 3 {
		case 0:
			s.Policy = DropPolicy{}
		case 1:
			s.Policy = QueuePolicy{BudgetMS: float64(next() * 4)}
		default:
			s.Policy = StaleSkipPolicy{SlackFrames: float64(next() % 3)}
		}
		if k := next() % 41; next()%2 == 1 {
			at := 0.0
			for j := 0; j < k; j++ {
				at += float64(next())
				s.ArrivalsMS = append(s.ArrivalsMS, at)
			}
		}
		if next()%2 == 1 {
			from := float64(next() * 20)
			s.Outages = []Outage{{Device: place[StageDetect].Device, FromMS: from, ToMS: from + float64(next()*20)}}
		}
		s.Temporal = temporal.Layer{Enabled: next()%2 == 1}
		if next()%2 == 1 {
			s.Engine = device.Planned
		}
		if i == 0 {
			s.FrameFPS, s.OffsetMS, s.EdgeRTTms = fps, offset, rtt
			if len(s.ArrivalsMS) > 0 {
				s.ArrivalsMS[next()%len(s.ArrivalsMS)] = arrival
			}
			for j := range s.Outages {
				s.Outages[j].FromMS, s.Outages[j].ToMS = from, to
			}
			switch s.Policy.(type) {
			case QueuePolicy:
				s.Policy = QueuePolicy{BudgetMS: budget}
			case StaleSkipPolicy:
				s.Policy = StaleSkipPolicy{SlackFrames: budget}
			}
		}
		f.Sessions = append(f.Sessions, s)
	}
	return f, offered
}

// checkSoloFirstFrame is a metamorphic check that needs no golden: a
// session run alone on fresh executors, with no outage and a
// non-negative first arrival, admits its first frame under every policy
// and runs each stage of that frame whose device no earlier stage of the
// frame used, because every such device is idle when the stage is ready.
// A policy that refuses work on idle devices (a NaN budget compares
// false against every backlog) fails it, while conservation, finite
// latencies and reproduction all hold when nothing is served.
func checkSoloFirstFrame(t *testing.T, s *Session, sharedSeed uint64, batch BatchPolicy) {
	t.Helper()
	s.Outages = nil
	rs, err := (&Fleet{Sessions: []*Session{s}, SharedSeed: sharedSeed, Batch: batch}).Run()
	if err != nil {
		t.Fatalf("session %d alone: %v", s.ID, err)
	}
	if s.Frames == 0 || s.arrivalAt(0, s.periodMS()) < 0 {
		return
	}
	r := rs[0]
	if len(r.Frames) == 0 || r.Frames[0].FrameIndex != 0 {
		t.Fatalf("session %d alone under %s: first frame not admitted (%d dropped)", s.ID, s.Policy.Name(), r.Dropped)
	}
	place := s.Graph.Placements()
	used := map[device.ID]bool{}
	for _, idx := range s.Graph.order {
		name := s.Graph.nodes[idx].stage.Name()
		dev := place[name].Device
		if _, ran := r.Frames[0].StageMS[name]; !ran && !used[dev] {
			t.Fatalf("session %d alone under %s: first frame skipped %s on idle %s", s.ID, s.Policy.Name(), name, dev)
		}
		used[dev] = true
	}
}

// FuzzFleetConfig: a fuzzed fleet is refused by Run, or else every
// session accounts for each offered frame (processed + dropped), every
// processed frame's E2E and stage latencies are finite and
// non-negative, a rebuilt fleet reproduces the results, and each
// session passes checkSoloFirstFrame. The seeds include one reproducer
// for each degenerate field Run refuses by name.
func FuzzFleetConfig(f *testing.F) {
	layout := []byte{
		7, 4, 1, 2, // shared seed, MaxBatch 4, a fleet outage, 3 sessions
		// session 0: 30 frames all on the workstation, QueuePolicy 240 ms,
		// a 12-entry trace 30 ms apart whose last entry is the raw arrival,
		// the raw outage, the ladder on
		30, 9, 10, 0, 25, 3, 1, 60, 12, 1, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 1, 20, 50, 1, 0, 11,
		// session 1: 40 frames at 20 fps on the nano edge, DropPolicy, planned
		40, 3, 20, 5, 10, 0, 0, 0, 0, 0, 0, 1,
		// session 2: 25 frames at the default rate on the AGX, StaleSkipPolicy,
		// a detect outage 200-700 ms, the ladder on
		25, 4, 0, 50, 20, 2, 2, 1, 0, 0, 1, 10, 25, 1, 0,
	}
	// The same fleet with session 0 on StaleSkipPolicy, and that with
	// session 0 on the hybrid placement (detect on the workstation, pose
	// and depth on the edge).
	stale := append([]byte(nil), layout...)
	stale[10] = 2
	hybrid := append([]byte(nil), stale...)
	hybrid[9] = 1
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, 60.0, 240.0)
	f.Add(layout, 10.0, nan, 25.0, 400.0, 500.0, 1500.0, 60.0, 240.0)   // OffsetMS NaN
	f.Add(layout, 10.0, inf, 25.0, 400.0, 500.0, 1500.0, 60.0, 240.0)   // OffsetMS +Inf
	f.Add(layout, 10.0, 0.0, 25.0, nan, 500.0, 1500.0, 60.0, 240.0)     // ArrivalsMS entry NaN
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, -inf, 1500.0, 60.0, 240.0)    // Outage.FromMS -Inf
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, 500.0, inf, 60.0, 240.0)      // Outage.ToMS +Inf
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, nan, 240.0)    // Batch.WindowMS NaN
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, -60.0, 240.0)  // Batch.WindowMS negative
	f.Add(layout, 5e-324, 0.0, 25.0, 400.0, 500.0, 1500.0, 60.0, 240.0) // FrameFPS with an infinite period
	f.Add(layout, 10.0, 0.0, 1e308, 400.0, 500.0, 1500.0, 60.0, 240.0)  // EdgeRTTms past the ceiling
	f.Add(layout, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, 60.0, nan)     // QueuePolicy.BudgetMS NaN
	f.Add(stale, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, 60.0, nan)      // StaleSkipPolicy.SlackFrames NaN
	f.Add(hybrid, 10.0, 0.0, 25.0, 400.0, 500.0, 1500.0, 60.0, nan)     // the same, pose on an idle edge
	f.Fuzz(func(t *testing.T, layout []byte, fps, offset, rtt, arrival, from, to, window, budget float64) {
		fleet, offered := fuzzFleet(layout, fps, offset, rtt, arrival, from, to, window, budget)
		a, err := fleet.Run()
		if err != nil {
			return
		}
		for i, r := range a {
			if len(r.Frames)+r.Dropped != offered[i] {
				t.Fatalf("session %d: %d processed + %d dropped, want %d offered",
					i, len(r.Frames), r.Dropped, offered[i])
			}
			for _, st := range r.Frames {
				if !finite(st.E2EMS) || st.E2EMS < 0 {
					t.Fatalf("session %d frame %d: E2E %v, want finite and non-negative", i, st.FrameIndex, st.E2EMS)
				}
				for name, ms := range st.StageMS {
					if !finite(ms) || ms < 0 {
						t.Fatalf("session %d frame %d: %s latency %v, want finite and non-negative", i, st.FrameIndex, name, ms)
					}
				}
			}
		}
		again, _ := fuzzFleet(layout, fps, offset, rtt, arrival, from, to, window, budget)
		b, err := again.Run()
		if err != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("rebuilt fleet did not reproduce (err %v)", err)
		}
		solo, _ := fuzzFleet(layout, fps, offset, rtt, arrival, from, to, window, budget)
		for _, s := range solo.Sessions {
			checkSoloFirstFrame(t, s, solo.SharedSeed, solo.Batch)
		}
	})
}
