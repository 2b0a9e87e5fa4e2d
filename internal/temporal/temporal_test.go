package temporal

import (
	"reflect"
	"testing"
)

func TestLadderRungOrder(t *testing.T) {
	if Bridge >= EarlyExit || EarlyExit >= ROI || ROI >= FullFrame {
		t.Fatal("rungs must be ordered fastest to most-accurate")
	}
	if FullFrame.Level() != 0 || Bridge.Level() != 3 {
		t.Fatalf("levels: full=%d bridge=%d", FullFrame.Level(), Bridge.Level())
	}
	arms := Arms()
	if len(arms) != numRungs {
		t.Fatalf("got %d arms", len(arms))
	}
	for i := 1; i < len(arms); i++ {
		if arms[i].Accuracy <= arms[i-1].Accuracy {
			t.Fatalf("arm %d accuracy not increasing", i)
		}
	}
	for r := Bridge; r <= FullFrame; r++ {
		if arms[r].Name != r.String() {
			t.Fatalf("arm %d name %q != rung %q", r, arms[r].Name, r)
		}
	}
}

func TestLadderSelectNoPressure(t *testing.T) {
	p := NewPolicy(Config{})
	for i := 0; i < 100; i++ {
		if r := p.Select(Signals{SlackMS: 50}); r != FullFrame {
			t.Fatalf("frame %d: rung %s under no pressure", i, r)
		}
	}
	if p.ForcedRefreshes() != 0 {
		t.Fatalf("forced refreshes with nothing below full frame: %d", p.ForcedRefreshes())
	}
}

func TestLadderPressureOverrides(t *testing.T) {
	p := NewPolicy(Config{})
	// Queue delay above slack: early exit.
	if r := p.Select(Signals{QueueDelayMS: 60, SlackMS: 50}); r != EarlyExit {
		t.Fatalf("pressure > slack selected %s", r)
	}
	// Above half slack: ROI.
	if r := p.Select(Signals{QueueDelayMS: 30, SlackMS: 50}); r != ROI {
		t.Fatalf("pressure > slack/2 selected %s", r)
	}
	// Thermal throttle scales the pressure term.
	if r := p.Select(Signals{QueueDelayMS: 20, SlackMS: 50, ThermalStress: 0.6}); r != ROI {
		t.Fatalf("thermal-scaled pressure selected %s", r)
	}
	// Outage forces early exit regardless of queue state.
	if r := p.Select(Signals{SlackMS: 50, Outage: true}); r != EarlyExit {
		t.Fatalf("outage selected %s", r)
	}
	// No slack signal: no deadline-pressure descent.
	if r := p.Select(Signals{QueueDelayMS: 1000}); r != FullFrame {
		t.Fatalf("no-slack signal selected %s", r)
	}
}

func TestLadderForcedRefresh(t *testing.T) {
	p := NewPolicy(Config{RefreshEvery: 4})
	hot := Signals{QueueDelayMS: 100, SlackMS: 10}
	for i := 0; i < 4; i++ {
		if r := p.Select(hot); r != EarlyExit {
			t.Fatalf("frame %d: %s", i, r)
		}
	}
	// The fifth consecutive sub-full frame must be forced to full,
	// whatever the pressure says.
	if r := p.Select(hot); r != FullFrame {
		t.Fatalf("staleness clock did not force a refresh: %s", r)
	}
	if p.ForcedRefreshes() != 1 {
		t.Fatalf("forced = %d", p.ForcedRefreshes())
	}
	// Bridged frames advance the same clock.
	p2 := NewPolicy(Config{RefreshEvery: 3})
	var tr Track
	tr.Anchor(FullFrame, 0)
	for i := 0; i < 3; i++ {
		if _, ok := p2.Bridge(&tr, float64(i)); !ok {
			t.Fatalf("bridge %d refused inside the budget", i)
		}
	}
	if r := p2.Select(hot); r != FullFrame {
		t.Fatalf("bridges did not advance the refresh clock: %s", r)
	}
}

func TestLadderBridgeBudget(t *testing.T) {
	p := NewPolicy(Config{MaxBridged: 3, ConfDecay: 0.5, ConfFloor: 0.2})
	var tr Track
	tr.Anchor(FullFrame, 0)
	run := 0
	for {
		if _, ok := p.Bridge(&tr, 0); !ok {
			break
		}
		run++
		if run > 100 {
			t.Fatal("bridge budget never exhausted")
		}
	}
	// 1.0 -> 0.5 -> 0.25 would allow 3 by confidence, and MaxBridged
	// caps at 3; either bound stopping at 3 is the contract.
	if run != 3 {
		t.Fatalf("bridged %d frames, want 3", run)
	}
	// Confidence floor alone must also stop bridging.
	if _, ok := p.Bridge(&Track{conf: 0.1}, 0); ok {
		t.Fatal("bridged below the confidence floor")
	}
}

// TestTrack: the zero Track cannot bridge; an anchored one bridges at
// most MaxBridged frames in a row while its confidence holds the floor,
// each answer is exactly as stale as the time since the anchor, every
// bridge advances the forced-refresh clock, and a new anchor restores
// the budget at the rung's confidence.
func TestTrack(t *testing.T) {
	p := NewPolicy(Config{MaxBridged: 5, ConfDecay: 0.8, ConfFloor: 0.6, RefreshEvery: 4})
	var tr Track
	if _, ok := p.Bridge(&tr, 10); ok {
		t.Fatal("an unanchored track bridged")
	}
	tr.Anchor(FullFrame, 100)
	var stales []float64
	for now := 120.0; ; now += 20 {
		stale, ok := p.Bridge(&tr, now)
		if !ok {
			break
		}
		stales = append(stales, stale)
	}
	// 1.0 -> 0.8 -> 0.64 -> 0.512: the 0.6 floor stops the fourth,
	// before MaxBridged would.
	if want := []float64{20, 40, 60}; !reflect.DeepEqual(stales, want) {
		t.Fatalf("stale ages %v, want %v", stales, want)
	}
	// Three bridges plus one sub-full selection reach RefreshEvery.
	hot := Signals{QueueDelayMS: 100, SlackMS: 10}
	if r := p.Select(hot); r != EarlyExit {
		t.Fatalf("first select after the bridges: %s", r)
	}
	if r := p.Select(hot); r != FullFrame || p.ForcedRefreshes() != 1 {
		t.Fatalf("bridges did not count toward the refresh clock: %s, forced %d", r, p.ForcedRefreshes())
	}
	// An EarlyExit anchor (confidence 0.8) allows exactly two more
	// (0.8 -> 0.64 -> 0.512); MaxBridged alone caps a firm anchor.
	tr.Anchor(EarlyExit, 500)
	n := 0
	for ; n < 10; n++ {
		if _, ok := p.Bridge(&tr, 600); !ok {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early-exit anchor bridged %d, want 2", n)
	}
	q := NewPolicy(Config{MaxBridged: 2, ConfDecay: 1})
	tr.Anchor(FullFrame, 0)
	for n = 0; n < 10; n++ {
		if _, ok := q.Bridge(&tr, 0); !ok {
			break
		}
	}
	if n != 2 {
		t.Fatalf("MaxBridged 2 allowed %d bridges in a row", n)
	}
}

func TestLadderControllerDescentAndRecovery(t *testing.T) {
	p := NewPolicy(Config{Window: 8})
	calm := Signals{SlackMS: 50}
	// Sustained misses walk the windowed arm down below FullFrame.
	for i := 0; i < 8; i++ {
		p.Observe(true, false)
	}
	if p.Rung() != ROI {
		t.Fatalf("after miss window: arm %s", p.Rung())
	}
	if r := p.Select(calm); r != ROI {
		t.Fatalf("calm select ignores the windowed arm: %s", r)
	}
	// Two more windows reach the bottom; Select still never dispatches
	// a Bridge.
	for i := 0; i < 16; i++ {
		p.Observe(true, false)
	}
	if p.Rung() != Bridge {
		t.Fatalf("arm %s, want bridge", p.Rung())
	}
	if r := p.Select(calm); r != EarlyExit {
		t.Fatalf("bridge arm must dispatch as early-exit, got %s", r)
	}
	// Degraded completions with no misses walk back up.
	for i := 0; i < 32; i++ {
		p.Observe(false, true)
	}
	if p.Rung() <= Bridge {
		t.Fatalf("controller never recovered: %s", p.Rung())
	}
	if p.Switches() < 4 {
		t.Fatalf("switches = %d", p.Switches())
	}
}

func TestLadderDeterminismAndCostModel(t *testing.T) {
	sig := []Signals{{SlackMS: 50}, {QueueDelayMS: 60, SlackMS: 50},
		{QueueDelayMS: 30, SlackMS: 50}, {SlackMS: 50, Outage: true}}
	run := func() []Rung {
		p := NewPolicy(Config{})
		var out []Rung
		for i := 0; i < 64; i++ {
			out = append(out, p.Select(sig[i%len(sig)]))
			p.Observe(i%3 == 0, i%5 == 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: %s vs %s", i, a[i], b[i])
		}
	}

	p := NewPolicy(Config{})
	if p.CostScale(FullFrame) != 1 || p.CostScale(Bridge) != 0 {
		t.Fatal("cost scale endpoints")
	}
	if s := p.CostScale(ROI); s != 0.45 {
		t.Fatalf("roi cost %v", s)
	}
	if s := p.CostScale(EarlyExit); s != 0.70 {
		t.Fatalf("early-exit cost %v", s)
	}
	if FullFrame.Confidence() != 1 || ROI.Confidence() >= 1 ||
		EarlyExit.Confidence() >= ROI.Confidence() || Bridge.Confidence() != 0 {
		t.Fatal("rung confidences must decrease down the ladder")
	}
	// Defaults agree with the tracker's coasting decay.
	if c := p.Config(); c.ConfDecay != 0.8 || c.MaxBridged != 4 || c.RefreshEvery != 8 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestLadderSelectAllocFree(t *testing.T) {
	p := NewPolicy(Config{})
	sig := Signals{QueueDelayMS: 40, SlackMS: 50, ThermalStress: 0.2}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Select(sig)
		p.Observe(false, false)
	})
	if allocs != 0 {
		t.Fatalf("Select allocates %.1f/op", allocs)
	}
}

// Level returns the ladder level number (FullFrame=0 … Bridge=3), the
// direction documentation counts in.
func (r Rung) Level() int { return int(FullFrame - r) }

// Rung returns the controller's current windowed arm.
func (p *Policy) Rung() Rung { return Rung(p.ctl.ArmIndex()) }
