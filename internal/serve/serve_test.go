package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ocularone/internal/device"
	"ocularone/internal/rng"
)

// Run executes one complete study: offer arrivals for the config's
// horizon, drain, and summarise.
func Run(cfg Config) Result {
	s := NewServer(cfg)
	s.AdvanceTo(cfg.HorizonMS)
	s.Drain()
	return s.Result()
}

// TestCalQueueOrdering drives the event queue with adversarial
// timestamps — clusters, exact ties, far-future jumps, inserts behind
// the last popped time — and checks every Pop against a brute-force
// mirror: the queue must always return the minimum (time, push order)
// pair still enqueued.
func TestCalQueueOrdering(t *testing.T) {
	r := rng.New(7)
	q := NewCalQueue(8, 1.0)
	type rec struct {
		t     float64
		order int32
	}
	var mirror []rec
	var order int32
	last := 0.0
	push := func(tm float64) {
		q.Push(Event{TimeMS: tm, A: order})
		mirror = append(mirror, rec{tm, order})
		order++
	}
	pop := func() {
		e, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop on non-empty queue (mirror has %d)", len(mirror))
		}
		best := 0
		for i, m := range mirror {
			if m.t < mirror[best].t || (m.t == mirror[best].t && m.order < mirror[best].order) {
				best = i
			}
		}
		want := mirror[best]
		if e.TimeMS != want.t || e.A != want.order {
			t.Fatalf("Pop = (t=%v, order=%d), want (t=%v, order=%d)", e.TimeMS, e.A, want.t, want.order)
		}
		mirror = append(mirror[:best], mirror[best+1:]...)
		last = e.TimeMS
	}
	for i := 0; i < 20000; i++ {
		if r.Float64() < 0.6 || len(mirror) == 0 {
			var tm float64
			switch r.Intn(6) {
			case 0:
				tm = r.Float64() * 10
			case 1:
				tm = last + r.Float64()
			case 2:
				tm = r.Float64() * 1e6 // far-future jump
			case 3:
				tm = last // exact tie: FIFO order must hold
			case 4:
				tm = r.Float64() * 1e-3
			case 5:
				tm = last * r.Float64() // behind the last pop
			}
			push(tm)
		} else {
			pop()
		}
	}
	for len(mirror) > 0 {
		pop()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on drained queue")
	}
}

func TestCalQueuePeek(t *testing.T) {
	q := NewCalQueue(4, 1.0)
	q.Push(Event{TimeMS: 5, A: 1})
	q.Push(Event{TimeMS: 3, A: 2})
	q.Push(Event{TimeMS: 3, A: 3})
	for i := 0; i < 3; i++ { // Peek must not disturb order
		if e, ok := q.Peek(); !ok || e.A != 2 {
			t.Fatalf("Peek = %+v, want A=2", e)
		}
	}
	want := []int32{2, 3, 1}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || e.A != w {
			t.Fatalf("Pop = %+v, want A=%d", e, w)
		}
	}
}

func TestCalQueueRejectsBadTimes(t *testing.T) {
	for _, bad := range []float64{-1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Push(%v) did not panic", bad)
				}
			}()
			NewCalQueue(4, 1).Push(Event{TimeMS: bad})
		}()
	}
}

// TestArrivalTraceDeterminism: identical seeds reproduce the arrival
// trace bit for bit; traces are strictly increasing; distinct seeds
// diverge.
func TestArrivalTraceDeterminism(t *testing.T) {
	cfg := DefaultConfig(0, 99).Traffic
	a := cfg.ArrivalTrace(0, 2000)
	b := cfg.ArrivalTrace(0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different arrival traces")
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("trace not strictly increasing at %d: %v then %v", i, a[i-1], a[i])
		}
	}
	cfg.Seed = 100
	c := cfg.ArrivalTrace(0, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical arrival traces")
	}
}

// TestTrafficMeanRate: burst and diurnal modulation are normalised out,
// so the long-run arrival rate stays the configured aggregate mean.
func TestTrafficMeanRate(t *testing.T) {
	cfg := DefaultConfig(0, 5).Traffic
	cfg.RatePerSec = 2000
	g := newGen(cfg)
	const horizon = 120_000.0
	var n int
	for ti := range g.tenants {
		g.tenants[ti].nextMS = 0
		for g.nextArrival(ti) < horizon {
			n++
		}
	}
	got := float64(n) / horizon * 1e3
	if math.Abs(got-cfg.RatePerSec) > 0.10*cfg.RatePerSec {
		t.Fatalf("long-run rate %.0f/s, want %.0f/s +-10%%", got, cfg.RatePerSec)
	}
}

// TestNewServerRejectsBadTraffic: a rate that is not finite and
// positive, a traffic-shape knob that is not finite, a diurnal
// amplitude outside [0, 1), a horizon that is not finite, or a retry
// backoff or hedge budget that is negative, NaN or infinite panics in
// NewServer, naming the field, instead of hanging the arrival loop (a
// NaN rate or envelope never accepts a candidate) or the run (a NaN or
// infinite horizon never ends), panicking inside the RNG (infinite
// rate) or the event heap (a non-finite backoff), scheduling a retry
// before its failed attempt finished (a negative backoff) or silently
// running another hedge budget. Each case runs NewServer and a
// one-second study under a deadline, so a config that hangs fails the
// case instead of the test binary.
func TestNewServerRejectsBadTraffic(t *testing.T) {
	for _, c := range []struct {
		name, field string
		edit        func(*Config)
	}{
		{"nan rate", "Traffic.RatePerSec", func(cfg *Config) { cfg.Traffic.RatePerSec = math.NaN() }},
		{"inf rate", "Traffic.RatePerSec", func(cfg *Config) { cfg.Traffic.RatePerSec = math.Inf(1) }},
		{"nan diurnal amp", "Traffic.DiurnalAmp", func(cfg *Config) { cfg.Traffic.DiurnalAmp = math.NaN() }},
		{"negative diurnal amp", "Traffic.DiurnalAmp", func(cfg *Config) { cfg.Traffic.DiurnalAmp = -0.5 }},
		{"diurnal amp above one", "Traffic.DiurnalAmp", func(cfg *Config) { cfg.Traffic.DiurnalAmp = 1.5 }},
		{"nan diurnal period", "Traffic.DiurnalPeriodMS", func(cfg *Config) { cfg.Traffic.DiurnalPeriodMS = math.NaN() }},
		{"nan burst mult", "Traffic.BurstMult", func(cfg *Config) { cfg.Traffic.BurstMult = math.NaN() }},
		{"inf burst mult", "Traffic.BurstMult", func(cfg *Config) { cfg.Traffic.BurstMult = math.Inf(1) }},
		{"nan burst on", "Traffic.BurstOnMS", func(cfg *Config) { cfg.Traffic.BurstOnMS = math.NaN() }},
		{"inf burst off", "Traffic.BurstOffMS", func(cfg *Config) { cfg.Traffic.BurstOffMS = math.Inf(1) }},
		{"nan horizon", "Config.HorizonMS", func(cfg *Config) { cfg.HorizonMS = math.NaN() }},
		{"inf horizon", "Config.HorizonMS", func(cfg *Config) { cfg.HorizonMS = math.Inf(1) }},
		{"-inf horizon", "Config.HorizonMS", func(cfg *Config) { cfg.HorizonMS = math.Inf(-1) }},
		{"nan backoff", "RetryPolicy.BackoffMS", func(cfg *Config) { cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: math.NaN()} }},
		{"-inf backoff", "RetryPolicy.BackoffMS", func(cfg *Config) { cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: math.Inf(-1)} }},
		{"inf backoff", "RetryPolicy.BackoffMS", func(cfg *Config) { cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: math.Inf(1)} }},
		{"negative backoff", "RetryPolicy.BackoffMS", func(cfg *Config) { cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: -50} }},
		{"nan hedge budget", "HedgePolicy.BudgetFrac", func(cfg *Config) {
			cfg.Integrity.Hedge = HedgePolicy{Enabled: true, Device: device.RTX4090, BudgetFrac: math.NaN()}
		}},
		{"inf hedge budget", "HedgePolicy.BudgetFrac", func(cfg *Config) {
			cfg.Integrity.Hedge = HedgePolicy{Enabled: true, Device: device.RTX4090, BudgetFrac: math.Inf(1)}
		}},
		{"negative hedge budget", "HedgePolicy.BudgetFrac", func(cfg *Config) {
			cfg.Integrity.Hedge = HedgePolicy{Enabled: true, Device: device.RTX4090, BudgetFrac: -0.5}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(1_000, 1)
			cfg.Traffic.RatePerSec = 800
			c.edit(&cfg)
			done := make(chan string, 1)
			go func() {
				defer func() {
					msg, _ := recover().(string)
					done <- msg
				}()
				NewServer(cfg).Finish()
			}()
			select {
			case msg := <-done:
				if !strings.HasPrefix(msg, "serve: ") || !strings.Contains(msg, c.field) {
					t.Fatalf("NewServer + Finish ended with %q, want a serve: panic naming %s", msg, c.field)
				}
			case <-time.After(time.Second):
				t.Fatal("NewServer + Finish still running after 1 s, want a serve: panic")
			}
		})
	}
}

// TestServeDeterminism: identical seeds reproduce shed decisions,
// latency histograms, and every counter bit for bit.
func TestServeDeterminism(t *testing.T) {
	cfg := DefaultConfig(5_000, 42)
	cfg.Traffic.RatePerSec = 800
	run := func() (Result, uint64) {
		s := NewServer(cfg)
		s.AdvanceTo(cfg.HorizonMS)
		s.Drain()
		return s.Result(), s.Fingerprint()
	}
	r1, f1 := run()
	r2, f2 := run()
	if f1 != f2 {
		t.Fatalf("fingerprints differ under the same seed: %016x vs %016x", f1, f2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("results differ under the same seed")
	}
	cfg.Traffic.Seed = 43
	if _, f3 := run(); f3 == f1 {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// TestServeInvariants: at every load point, offered arrivals are
// conserved — admitted + shed = offered, completed + expired =
// admitted — and the drained server holds no residual requests.
func TestServeInvariants(t *testing.T) {
	for _, rho := range []float64{0.25, 0.75, 1.25, 2.0} {
		cfg := DefaultConfig(4_000, 11)
		cfg.Traffic.RatePerSec = rho * Capacity(cfg)
		s := NewServer(cfg)
		s.AdvanceTo(cfg.HorizonMS)
		s.Drain()
		res := s.Result()
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("rho=%.2f: %v", rho, err)
		}
		if s.queued != 0 {
			t.Fatalf("rho=%.2f: %d requests still queued after drain", rho, s.queued)
		}
		if res.Offered == 0 || res.Completed == 0 {
			t.Fatalf("rho=%.2f: degenerate run: %+v", rho, res)
		}
		var tenantSum int64
		for _, n := range res.TenantOffered {
			tenantSum += n
		}
		if tenantSum != res.Offered {
			t.Fatalf("rho=%.2f: tenant offered sum %d != offered %d", rho, tenantSum, res.Offered)
		}
	}
}

// TestServeFairness: under 3x overload with Zipf-skewed tenants, the
// quota + least-attained-service policy must not let the heavy head
// tenants starve the light tail: the lightest tenant keeps a strictly
// better completion ratio than the heaviest.
func TestServeFairness(t *testing.T) {
	cfg := DefaultConfig(8_000, 21)
	cfg.Traffic.RatePerSec = 3 * Capacity(cfg)
	// No deadlines, to isolate queue policy: every request is
	// background, the cumulative table of class weights 0 : 0 : 1.
	defer func(saved []float64) { classCum = saved }(classCum)
	classCum = []float64{0, 0, 1}
	res := Run(cfg)
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nt := len(res.TenantOffered)
	heavy := float64(res.TenantCompleted[0]) / float64(res.TenantOffered[0])
	light := float64(res.TenantCompleted[nt-1]) / float64(res.TenantOffered[nt-1])
	if res.TenantOffered[0] < 4*res.TenantOffered[nt-1] {
		t.Fatalf("Zipf skew missing: heavy offered %d, light offered %d", res.TenantOffered[0], res.TenantOffered[nt-1])
	}
	t.Logf("completion ratio: light %.6f, heavy %.6f", light, heavy)
	if light <= heavy {
		t.Fatalf("light tenant completion ratio %.3f <= heavy %.3f: overload is not fair", light, heavy)
	}
	if light < 0.9 {
		t.Fatalf("light tenant completion ratio %.3f, want >= 0.9 under fair overload", light)
	}
}

// TestServePriority: the interactive class must see a lower median
// latency than the no-deadline background class under load.
func TestServePriority(t *testing.T) {
	cfg := DefaultConfig(6_000, 33)
	cfg.Traffic.RatePerSec = 1.2 * Capacity(cfg)
	res := Run(cfg)
	ia, bg := res.Classes[Interactive], res.Classes[Background]
	if ia.Completed == 0 || bg.Completed == 0 {
		t.Fatalf("degenerate class stats: %+v / %+v", ia, bg)
	}
	if ia.P50MS >= bg.P50MS {
		t.Fatalf("interactive p50 %.1fms >= background p50 %.1fms: priority inverted", ia.P50MS, bg.P50MS)
	}
	if got := float64(ia.SLOMet) / float64(ia.Completed); got < 0.95 {
		t.Fatalf("only %.1f%% of completed interactive requests met their SLO", 100*got)
	}
}

// TestServeShedMonotonic: more offered load can only shed a larger
// fraction — the admission controller's dose-response sanity check.
func TestServeShedMonotonic(t *testing.T) {
	prev := -1.0
	for _, rho := range []float64{0.5, 1.0, 2.0, 4.0} {
		cfg := DefaultConfig(4_000, 17)
		cfg.Traffic.RatePerSec = rho * Capacity(cfg)
		res := Run(cfg)
		if res.ShedRate < prev {
			t.Fatalf("shed rate fell from %.3f to %.3f as load rose to rho=%.1f", prev, res.ShedRate, rho)
		}
		prev = res.ShedRate
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 10000; i++ {
		h.Add(float64(i) * 0.1) // 0.1ms .. 1000ms uniform
	}
	if h.N() != 10000 {
		t.Fatalf("N = %d", h.N())
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}} {
		got := h.QuantileMS(tc.p)
		if got < tc.want*0.85 || got > tc.want*1.05 {
			t.Fatalf("q%.2f = %.1fms, want ~%.0fms (log-bin tolerance)", tc.p, got, tc.want)
		}
	}
	if m := h.MeanMS(); math.Abs(m-500.05) > 0.01 {
		t.Fatalf("mean = %v, want 500.05 exactly", m)
	}
	if h.MaxMS() != 1000 {
		t.Fatalf("max = %v", h.MaxMS())
	}
	var a, b Hist
	a.Add(1)
	b.Add(100)
	a.Merge(&b)
	if a.N() != 2 || a.MaxMS() != 100 {
		t.Fatalf("merge: N=%d max=%v", a.N(), a.MaxMS())
	}
}

// TestRunCurveShape: goodput rises toward saturation and never exceeds
// offered; fingerprints are stable across identical sweeps.
func TestRunCurveShape(t *testing.T) {
	cfg := DefaultConfig(3_000, 8)
	rhos := []float64{0.25, 1.0, 2.0}
	pts := RunCurve(cfg, rhos)
	pts2 := RunCurve(cfg, rhos)
	for i, p := range pts {
		if p.GoodputPerSec > p.OfferedPerSec {
			t.Fatalf("rho=%.2f: goodput %.0f > offered %.0f", p.Rho, p.GoodputPerSec, p.OfferedPerSec)
		}
		if p.Fingerprint != pts2[i].Fingerprint {
			t.Fatalf("rho=%.2f: fingerprint drifted across identical sweeps", p.Rho)
		}
	}
	if pts[0].ShedRate > 0.05 {
		t.Fatalf("rho=0.25 sheds %.1f%%: underloaded server should admit nearly everything", 100*pts[0].ShedRate)
	}
	if pts[2].ShedRate < 0.20 {
		t.Fatalf("rho=2.0 sheds only %.1f%%: overload must shed", 100*pts[2].ShedRate)
	}
}

// TestRecoveryNotBeforeRestore: Drain during an outage restores the
// device at its scheduled restore time and then handles the completion,
// timer and retry events stamped before it. None of them may close the
// episode: recovery is measured from the restore, so it is never
// negative.
func TestRecoveryNotBeforeRestore(t *testing.T) {
	cfg := overloadConfig(4_000, 1, 1.0)
	cfg.Disrupt = &scriptedOutage{windows: [][2]float64{{3980, 5000}}}
	res := Run(cfg)
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.FaultEpisodes != 1 || res.Recovered != 1 {
		t.Fatalf("episodes %d, recovered %d: want 1 and 1", res.FaultEpisodes, res.Recovered)
	}
	if res.MeanRecoveryMS < 0 || res.MaxRecoveryMS != res.MeanRecoveryMS {
		t.Fatalf("one episode recovered in mean %v ms, max %v ms", res.MeanRecoveryMS, res.MaxRecoveryMS)
	}
}

// layeredServer returns a server at 2x overload with every layer live:
// adaptive precision, the temporal ladder, retries and hedging, a 3 ms
// link round trip under a link-degradation episode, active SDC,
// straggler and thermal processes, and scripted device outages.
func layeredServer() *Server {
	cfg := DefaultConfig(1e18, 42)
	cfg.Traffic.RatePerSec = 2 * Capacity(cfg)
	cfg.LinkRTTms = 3
	cfg.Adapt.Enabled = true
	cfg.Temporal.Enabled = true
	cfg.Integrity = IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
		Hedge: HedgePolicy{Enabled: true, Device: device.RTX4090},
	}
	cfg.Disrupt = &scriptedOutage{windows: [][2]float64{{2_000, 2_300}, {5_050, 5_080}, {5_150, 5_160}}}
	s := NewServer(cfg)
	s.SetSDC(0, 0.05)
	s.SetStraggle(0, 0.5)
	s.SetThermalStress(0, 0.3)
	s.SetLink(0, 2, 0.01)
	return s
}

// TestLayeredZeroAlloc: the steady-state event loop allocates nothing
// with every layer live at once, outages and recoveries included.
func TestLayeredZeroAlloc(t *testing.T) {
	s := layeredServer()
	s.AdvanceTo(5_000) // warm: pool at cap, buckets sized, scratch grown
	tMS := 5_000.0
	if allocs := testing.AllocsPerRun(200, func() {
		tMS += 1.0
		s.AdvanceTo(tMS)
	}); allocs != 0 {
		t.Fatalf("steady state allocated %.1f times/ms with every layer live", allocs)
	}
	r := s.Result()
	for name, n := range map[string]int64{
		"bridged": r.BridgedReqs, "reduced rungs": r.ROIReqs + r.EarlyExitReqs, "retries": r.Retries,
		"hedges": r.Hedges, "degraded": r.DegradedReqs, "lost": r.Lost, "episodes": r.FaultEpisodes,
	} {
		if n == 0 {
			t.Errorf("layer idle: %s = 0", name)
		}
	}
}

// TestOccupancyMatchesFIFOs: with every layer live — expiries, hedge
// completions, retries, outages — each dispatch-mask bit tracks its
// FIFO after every simulated millisecond, and all are clear once
// drained.
func TestOccupancyMatchesFIFOs(t *testing.T) {
	s := layeredServer()
	for tMS := 1.0; tMS <= 6_000; tMS++ {
		s.AdvanceTo(tMS)
		checkOcc(t, s)
	}
	s.Drain()
	checkOcc(t, s)
	if s.queued != 0 {
		t.Fatalf("%d requests queued after Drain", s.queued)
	}
}

// TestResultRepeatable: Result derives its totals from the run's
// counters without folding them back, so asking twice — mid-run or
// drained — returns the same summary.
func TestResultRepeatable(t *testing.T) {
	s := layeredServer()
	s.AdvanceTo(3_000)
	if a, b := s.Result(), s.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("mid-run Result changed between calls:\n%+v\n%+v", a, b)
	}
	s.Drain()
	a, b := s.Result(), s.Result()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drained Result changed between calls:\n%+v\n%+v", a, b)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
