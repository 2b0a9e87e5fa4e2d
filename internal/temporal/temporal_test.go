package temporal

import (
	"reflect"
	"testing"

	"ocularone/internal/adaptive"
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
	p := NewPolicy(Config{})
	hot := Signals{QueueDelayMS: 100, SlackMS: 10}
	for i := 0; i < refreshEvery; i++ {
		if r := p.Select(hot); r != EarlyExit {
			t.Fatalf("frame %d: %s", i, r)
		}
	}
	// The next consecutive sub-full frame must be forced to full,
	// whatever the pressure says.
	if r := p.Select(hot); r != FullFrame {
		t.Fatalf("staleness clock did not force a refresh: %s", r)
	}
	if p.ForcedRefreshes() != 1 {
		t.Fatalf("forced = %d", p.ForcedRefreshes())
	}
	// Bridged frames advance the same clock: MaxBridged bridges and the
	// rest of refreshEvery in sub-full selections reach it.
	p2 := NewPolicy(Config{})
	var tr Track
	tr.Anchor(0)
	for i := 0; i < MaxBridged; i++ {
		if _, _, ok := p2.Bridge(&tr, float64(i)); !ok {
			t.Fatalf("bridge %d refused inside the budget", i)
		}
	}
	for i := MaxBridged; i < refreshEvery; i++ {
		if r := p2.Select(hot); r != EarlyExit {
			t.Fatalf("select %d after the bridges: %s", i, r)
		}
	}
	if r := p2.Select(hot); r != FullFrame {
		t.Fatalf("bridges did not advance the refresh clock: %s", r)
	}
}

// TestLadderBridgeBudget is the bridge-budget table: an unanchored track
// bridges no frame, and an anchored one bridges exactly MaxBridged in a
// row whatever part of its run a re-anchor cut short. A real inference
// at any rung Select dispatches (FullFrame, ROI, EarlyExit) anchors
// alike, so the table has no rung column.
func TestLadderBridgeBudget(t *testing.T) {
	p := NewPolicy(Config{})
	var tr Track
	if _, _, ok := p.Bridge(&tr, 0); ok {
		t.Fatal("an unanchored track bridged")
	}
	for cut := 0; cut <= MaxBridged; cut++ {
		tr.Anchor(0)
		for i := 0; i < cut; i++ {
			if _, _, ok := p.Bridge(&tr, 1); !ok {
				t.Fatalf("cut %d: bridge %d refused inside the budget", cut, i)
			}
		}
		tr.Anchor(10)
		run := 0
		for ; run <= MaxBridged; run++ {
			if _, _, ok := p.Bridge(&tr, 20); !ok {
				break
			}
		}
		if run != MaxBridged {
			t.Fatalf("re-anchored after %d bridges: bridged %d, want %d", cut, run, MaxBridged)
		}
	}
}

// TestTrack: an anchored track's answers are exactly as stale as the
// time since the anchor and back bridgeMS after they are asked for,
// every bridge advances the forced-refresh clock, the run stops at
// MaxBridged, and a new anchor restores it.
func TestTrack(t *testing.T) {
	p := NewPolicy(Config{})
	var tr Track
	tr.Anchor(100)
	var stales, backs []float64
	for now := 120.0; now < 1000; now += 20 {
		stale, back, ok := p.Bridge(&tr, now)
		if !ok {
			break
		}
		stales, backs = append(stales, stale), append(backs, back)
	}
	if want := []float64{20, 40, 60, 80}; !reflect.DeepEqual(stales, want) {
		t.Fatalf("stale ages %v, want %v", stales, want)
	}
	if want := []float64{120.5, 140.5, 160.5, 180.5}; !reflect.DeepEqual(backs, want) {
		t.Fatalf("answers back at %v, want %v", backs, want)
	}
	// MaxBridged bridges plus the rest of refreshEvery in sub-full
	// selections reach the refresh clock.
	hot := Signals{QueueDelayMS: 100, SlackMS: 10}
	for i := MaxBridged; i < refreshEvery; i++ {
		if r := p.Select(hot); r != EarlyExit {
			t.Fatalf("select %d after the bridges: %s", i, r)
		}
	}
	if r := p.Select(hot); r != FullFrame || p.ForcedRefreshes() != 1 {
		t.Fatalf("bridges did not count toward the refresh clock: %s, forced %d", r, p.ForcedRefreshes())
	}
	tr.Anchor(500)
	if stale, _, ok := p.Bridge(&tr, 600); !ok || stale != 100 {
		t.Fatalf("re-anchored track: stale %v, ok %v", stale, ok)
	}
}

func TestLadderControllerDescentAndRecovery(t *testing.T) {
	p := NewPolicy(Config{})
	window := adaptive.ServingEpoch().Window
	calm := Signals{SlackMS: 50}
	// Sustained misses walk the windowed arm down below FullFrame.
	for i := 0; i < window; i++ {
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
	for i := 0; i < 2*window; i++ {
		p.Observe(true, false)
	}
	if p.Rung() != Bridge {
		t.Fatalf("arm %s, want bridge", p.Rung())
	}
	if r := p.Select(calm); r != EarlyExit {
		t.Fatalf("bridge arm must dispatch as early-exit, got %s", r)
	}
	// Degraded completions with no misses walk back up.
	for i := 0; i < 4*window; i++ {
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
