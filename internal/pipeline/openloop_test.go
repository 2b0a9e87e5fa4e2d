package pipeline

import (
	"math"
	"strings"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/serve"
)

func openLoopSession(seed uint64, arrivals []float64) *Session {
	return &Session{
		ID: 0, Frames: 40, FrameFPS: 10,
		Policy:     QueuePolicy{},
		Seed:       seed,
		ArrivalsMS: arrivals,
		Graph:      TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Medium)),
	}
}

// TestSessionOpenLoopArrivals feeds a session from the serve package's
// open-loop generator and pins the contract both ways: the same trace
// replays bit for bit, and a bursty trace produces different queueing
// than the closed-loop camera clock.
func TestSessionOpenLoopArrivals(t *testing.T) {
	tr := serve.Traffic{RatePerSec: 10, Tenants: 1, BurstMult: 6, BurstOnMS: 400, BurstOffMS: 1600, Seed: 5}
	trace := tr.ArrivalTrace(0, 40)

	a, err := openLoopSession(3, trace).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := openLoopSession(3, trace).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i].E2EMS != b.Frames[i].E2EMS {
			t.Fatalf("frame %d E2E differs across identical open-loop runs: %v vs %v",
				i, a.Frames[i].E2EMS, b.Frames[i].E2EMS)
		}
	}

	closed, err := openLoopSession(3, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames)+a.Dropped != len(closed.Frames)+closed.Dropped {
		t.Fatalf("open and closed loop offered different frame totals: %d vs %d",
			len(a.Frames)+a.Dropped, len(closed.Frames)+closed.Dropped)
	}
	if a.E2E.P95MS == closed.E2E.P95MS && a.E2E.MeanMS == closed.E2E.MeanMS {
		t.Fatal("bursty open-loop arrivals produced identical latency to the periodic clock")
	}
}

// TestSessionOpenLoopShortTrace: frames beyond the trace continue at
// the periodic rate instead of panicking or stacking at one instant.
func TestSessionOpenLoopShortTrace(t *testing.T) {
	tr := serve.Traffic{RatePerSec: 10, Tenants: 1, Seed: 9}
	s := openLoopSession(4, tr.ArrivalTrace(0, 10)) // 10 arrivals, 40 frames
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Frames) + res.Dropped; got != 40 {
		t.Fatalf("processed+dropped = %d, want all 40 offered frames", got)
	}
}

// TestSessionOpenLoopRejectsDecreasingTrace: a time-travelling trace is
// an error, not silent executor corruption.
func TestSessionOpenLoopRejectsDecreasingTrace(t *testing.T) {
	s := openLoopSession(4, []float64{10, 5})
	if _, err := s.Run(); err == nil {
		t.Fatal("decreasing ArrivalsMS accepted")
	}
	f := &Fleet{Sessions: []*Session{openLoopSession(4, []float64{10, 5})}}
	if _, err := f.Run(); err == nil {
		t.Fatal("fleet accepted decreasing ArrivalsMS")
	}
}

// TestSessionRejectsBadTiming: a NaN or infinite frame rate, or a NaN,
// infinite or negative edge round trip, is an error naming the session
// from Session.Run and Fleet.Run, not a stream of NaN stage latencies
// that reads as zero end-to-end time.
func TestSessionRejectsBadTiming(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name string
		edit func(*Session)
	}{
		{"nan fps", func(s *Session) { s.FrameFPS = nan }},
		{"inf fps", func(s *Session) { s.FrameFPS = inf }},
		{"-inf fps", func(s *Session) { s.FrameFPS = -inf }},
		{"nan rtt", func(s *Session) { s.EdgeRTTms = nan }},
		{"inf rtt", func(s *Session) { s.EdgeRTTms = inf }},
		{"negative rtt", func(s *Session) { s.EdgeRTTms = -50 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() *Session {
				s := &Session{ID: 7, Frames: 5, FrameFPS: 10,
					Graph: TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano))}
				c.edit(s)
				return s
			}
			if _, err := mk().Run(); err == nil || !strings.Contains(err.Error(), "session 7") {
				t.Fatalf("Session.Run error %v, want one naming session 7", err)
			}
			if _, err := (&Fleet{Sessions: []*Session{mk()}}).Run(); err == nil || !strings.Contains(err.Error(), "session 7") {
				t.Fatalf("Fleet.Run error %v, want one naming session 7", err)
			}
		})
	}
}

// TestRejectsDegenerateConfig: every field the timing cannot use is an
// error naming it, from Session.Run and, for a session's own fields,
// from Fleet.Run too. Unrefused, a NaN OffsetMS makes every arrival NaN
// (20 of 20 frames dropped, nil error), a +Inf one admits 1 of 20, a NaN
// trace entry never compares as decreasing, a NaN window never closes
// (the +Inf schedule), a FrameFPS of 5e-324 has an infinite period (NaN
// stage latencies), an EdgeRTTms of 1e308 charged on three stages
// finishes at +Inf, a negative Frames or a nil Graph panics, and a NaN
// QueuePolicy budget drops all 20 frames (a NaN StaleSkipPolicy slack
// skips every downstream stage).
func TestRejectsDegenerateConfig(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name, field string
		sess        func(*Session)
		fleet       func(*Fleet)
	}{
		{"offset nan", "session 7 OffsetMS", func(s *Session) { s.OffsetMS = nan }, nil},
		{"offset inf", "session 7 OffsetMS", func(s *Session) { s.OffsetMS = inf }, nil},
		{"arrival nan", "session 7 ArrivalsMS[1]", func(s *Session) { s.ArrivalsMS = []float64{0, nan, 200} }, nil},
		{"arrival inf", "session 7 ArrivalsMS[2]", func(s *Session) { s.ArrivalsMS = []float64{0, 100, inf} }, nil},
		{"outage from -inf", "session 7 Outages[0]", func(s *Session) {
			s.Outages = []Outage{{Device: device.OrinNano, FromMS: -inf, ToMS: 500}}
		}, nil},
		{"outage to nan", "session 7 Outages[0]", func(s *Session) {
			s.Outages = []Outage{{Device: device.OrinNano, FromMS: 100, ToMS: nan}}
		}, nil},
		{"window nan", "session 7 Batch.WindowMS", func(s *Session) { s.Batch = BatchPolicy{MaxBatch: 4, WindowMS: nan} }, nil},
		{"window negative", "session 7 Batch.WindowMS", func(s *Session) { s.Batch = BatchPolicy{MaxBatch: 4, WindowMS: -1} }, nil},
		{"fps period overflows", "session 7 FrameFPS", func(s *Session) { s.FrameFPS = 5e-324 }, nil},
		{"rtt huge", "session 7 EdgeRTTms", func(s *Session) { s.EdgeRTTms = 1e308 }, nil},
		{"negative frames", "session 7 Frames", func(s *Session) { s.Frames = -1 }, nil},
		{"nil graph", "session 7 has no Graph", func(s *Session) { s.Graph = nil }, nil},
		{"queue budget nan", "session 7 QueuePolicy.BudgetMS", func(s *Session) { s.Policy = QueuePolicy{BudgetMS: nan} }, nil},
		{"slack frames nan", "session 7 StaleSkipPolicy.SlackFrames", func(s *Session) { s.Policy = StaleSkipPolicy{SlackFrames: nan} }, nil},
		{"fleet window nan", "fleet Batch.WindowMS", nil, func(f *Fleet) { f.Batch = BatchPolicy{MaxBatch: 4, WindowMS: nan} }},
		{"fleet window negative", "fleet Batch.WindowMS", nil, func(f *Fleet) { f.Batch = BatchPolicy{MaxBatch: 4, WindowMS: -60} }},
		{"fleet outage inf", "fleet Outages[0]", nil, func(f *Fleet) {
			f.Outages = []Outage{{Device: device.RTX4090, FromMS: 100, ToMS: inf}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() *Session {
				s := &Session{ID: 7, Frames: 20, FrameFPS: 10, Policy: DropPolicy{},
					Graph: TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano))}
				if c.sess != nil {
					c.sess(s)
				}
				return s
			}
			check := func(who string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.field) {
					t.Fatalf("%s error %v, want one naming %q", who, err, c.field)
				}
			}
			if c.sess != nil {
				_, err := mk().Run()
				check("Session.Run", err)
			}
			f := &Fleet{Sessions: []*Session{mk()}}
			if c.fleet != nil {
				c.fleet(f)
			}
			_, err := f.Run()
			check("Fleet.Run", err)
		})
	}
}

// TestFleetOpenLoopDeterminism: a fleet fed per-tenant open-loop traces
// replays deterministically.
func TestFleetOpenLoopDeterminism(t *testing.T) {
	build := func() *Fleet {
		tr := serve.Traffic{RatePerSec: 30, Tenants: 3, BurstMult: 4, BurstOnMS: 300, BurstOffMS: 900, Seed: 77}
		f := &Fleet{SharedSeed: 21}
		for i := 0; i < 3; i++ {
			s := openLoopSession(uint64(10+i), tr.ArrivalTrace(i, 30))
			s.ID = i
			s.Graph = TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8Medium))
			f.Sessions = append(f.Sessions, s)
		}
		return f
	}
	r1, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].E2E.P95MS != r2[i].E2E.P95MS || len(r1[i].Frames) != len(r2[i].Frames) {
			t.Fatalf("session %d fleet replay diverged", i)
		}
	}
}
