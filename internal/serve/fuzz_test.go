package serve

import (
	"container/heap"
	"encoding/binary"
	"math"
	"testing"

	"ocularone/internal/device"
)

// refHeap is the reference scheduler the fuzzer checks CalQueue
// against: container/heap ordered by (TimeMS, seq) — the exact
// contract CalQueue promises, from a second implementation.
type refHeap []Event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return eventLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// FuzzCalQueue drives a CalQueue and the reference heap through the
// same byte-decoded operation stream and fails on any divergence. The
// decoder is biased toward the inputs that break an ordering: exact-tie
// timestamps (FIFO order must hold), far-future jumps, and inserts
// behind the last popped time.
func FuzzCalQueue(f *testing.F) {
	// Seed corpus: steady-state mix, all-ties, far-future jump,
	// insert behind the last pop, pop-heavy drain.
	f.Add([]byte{0x10, 0x20, 0x30, 0x80, 0x81, 0x40, 0x80})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{0x10, 0xf0, 0x80, 0x10, 0x80, 0x80})
	f.Add([]byte{0xe0, 0x80, 0x01, 0x80, 0x80})
	f.Add([]byte{0x80, 0x80, 0x10, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewCalQueue(4, 1)
		ref := &refHeap{}
		var seq uint64
		var lastPush float64
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op >= 0x80: // pop and compare
				got, ok := q.Pop()
				if !ok {
					if ref.Len() != 0 {
						t.Fatalf("CalQueue empty with %d events in reference", ref.Len())
					}
					continue
				}
				want := heap.Pop(ref).(Event)
				if got.TimeMS != want.TimeMS || got.Kind != want.Kind || got.A != want.A {
					t.Fatalf("pop mismatch: got {t=%v kind=%d a=%d}, want {t=%v kind=%d a=%d}",
						got.TimeMS, got.Kind, got.A, want.TimeMS, want.Kind, want.A)
				}
			default: // push, time decoded from the opcode and trailing bytes
				var t64 float64
				switch {
				case op < 0x20 && len(data) == 0:
					t64 = lastPush // exact tie with the previous push
				case op >= 0x60:
					// Far-future / behind-the-last-pop stress: huge magnitudes.
					t64 = float64(op&0x1f) * 1e6
				default:
					var raw uint16
					if len(data) >= 2 {
						raw = binary.LittleEndian.Uint16(data)
						data = data[2:]
					}
					t64 = float64(op&0x3f) + float64(raw)/64
				}
				if t64 < 0 || math.IsInf(t64, 0) || math.IsNaN(t64) {
					continue
				}
				lastPush = t64
				seq++
				e := Event{TimeMS: t64, Kind: uint8(seq % 5), A: int32(seq)}
				q.Push(e)
				// Mirror the queue's seq assignment so tie order matches.
				e.seq = seq
				heap.Push(ref, e)
			}
		}
		// Drain both completely: full order must agree.
		for ref.Len() > 0 {
			got, ok := q.Pop()
			if !ok {
				t.Fatalf("CalQueue drained early with %d events left in reference", ref.Len())
			}
			want := heap.Pop(ref).(Event)
			if got.TimeMS != want.TimeMS || got.A != want.A {
				t.Fatalf("drain mismatch: got {t=%v a=%d}, want {t=%v a=%d}",
					got.TimeMS, got.A, want.TimeMS, want.A)
			}
		}
		if _, ok := q.Pop(); ok {
			t.Fatal("CalQueue still has events after reference drained")
		}
	})
}

// Layer bits of FuzzServeConfig.
const (
	fzOutage   = 1 << iota // scripted device outage over [400, 900] ms
	fzAdapt                // adaptive precision
	fzTemporal             // degradation ladder
	fzRetry                // three attempts, 5 ms backoff
	fzHedge                // hedging onto a second RTX 4090
	fzSDC                  // SetSDC(0, 0.1) before the run
	fzStraggle             // SetStraggle(0, 0.5) before the run
)

// fuzzConfig maps raw fuzz inputs onto a valid Config of at most 2 s
// simulated: rho in (0, 2], 1-64 tenants (so the tenant quota the cap
// derives runs from 512 down to 8), MaxBatch 0-8, non-negative window
// and link round trip, fp32 or int8, and the layers set in the bitmask.
func fuzzConfig(seed uint64, rho float64, tenants, maxBatch uint8, windowMS, linkMS float64, int8 bool, layers uint8) (Config, bool) {
	for _, v := range []float64{rho, windowMS, linkMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Config{}, false
		}
	}
	cfg := DefaultConfig(1_500, seed)
	cfg.Traffic.Tenants = 1 + (int(tenants)-1)&63
	cfg.Batch = device.BatchConfig{MaxBatch: int(maxBatch % 9), WindowMS: math.Mod(math.Abs(windowMS), 50)}
	cfg.LinkRTTms = math.Mod(math.Abs(linkMS), 20)
	if int8 {
		cfg.Precision = device.INT8
	}
	if layers&fzOutage != 0 {
		cfg.Disrupt = &scriptedOutage{windows: [][2]float64{{400, 900}}}
	}
	cfg.Adapt.Enabled = layers&fzAdapt != 0
	cfg.Temporal.Enabled = layers&fzTemporal != 0
	if layers&fzRetry != 0 {
		cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: 5}
	}
	if layers&fzHedge != 0 {
		cfg.Integrity.Hedge = HedgePolicy{Enabled: true, Device: device.RTX4090}
	}
	if rho = math.Abs(rho); !(rho > 0 && rho <= 2) {
		rho = 0.05 + math.Mod(rho, 1.95)
	}
	cfg.Traffic.RatePerSec = rho * Capacity(cfg)
	return cfg, true
}

// FuzzServeConfig runs the server over fuzzed configurations and layer
// combinations: every run must satisfy the conservation and ledger
// invariants and keep its occupancy masks in step with its FIFOs, and a
// second run of the same config, advanced to the horizon in 37 steps
// rather than one, must reproduce its fingerprint: where AdvanceTo
// stops may not change what the simulation does.
func FuzzServeConfig(f *testing.F) {
	const all = fzOutage | fzAdapt | fzTemporal | fzRetry | fzHedge | fzSDC | fzStraggle
	// The golden modes: plain, chaos-like, retry-sdc, hedge-straggle,
	// integrity, temporal, layered, and link (layered, LinkRTTms 3,
	// unbatched), all at DefaultConfig's 16 tenants; then everything at
	// once on 64 tenants (quota 8), unbatched, int8.
	f.Add(uint64(42), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(0))
	f.Add(uint64(42), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(fzOutage|fzAdapt))
	f.Add(uint64(43), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(fzRetry|fzSDC))
	f.Add(uint64(43), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(fzHedge|fzStraggle))
	f.Add(uint64(44), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(fzRetry|fzHedge|fzSDC|fzStraggle))
	f.Add(uint64(44), 1.4, uint8(16), uint8(8), 25.0, 0.0, false, uint8(fzOutage|fzAdapt|fzTemporal))
	f.Add(uint64(42), 1.0, uint8(16), uint8(8), 25.0, 0.0, false, uint8(all))
	f.Add(uint64(43), 1.0, uint8(16), uint8(1), 25.0, 3.0, false, uint8(all))
	f.Add(uint64(7), 1.9, uint8(64), uint8(0), 0.0, 19.0, true, uint8(all))
	f.Fuzz(func(t *testing.T, seed uint64, rho float64, tenants, maxBatch uint8, windowMS, linkMS float64, int8 bool, layers uint8) {
		cfg, ok := fuzzConfig(seed, rho, tenants, maxBatch, windowMS, linkMS, int8, layers)
		if !ok {
			t.Skip("non-finite input")
		}
		run := func(steps int) (Result, uint64) {
			s := NewServer(cfg)
			if layers&fzSDC != 0 {
				s.SetSDC(0, 0.1)
			}
			if layers&fzStraggle != 0 {
				s.SetStraggle(0, 0.5)
			}
			for i := 1; i < steps; i++ {
				s.AdvanceTo(cfg.HorizonMS * float64(i) / float64(steps))
				checkOcc(t, s)
			}
			s.AdvanceTo(cfg.HorizonMS)
			checkOcc(t, s)
			s.Drain()
			checkOcc(t, s)
			return s.Result(), s.Fingerprint()
		}
		res, fp := run(1)
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if _, fp2 := run(37); fp2 != fp {
			t.Fatalf("%+v: fingerprint %016x in one step, %016x in 37", cfg, fp, fp2)
		}
	})
}

// refRateAt and refNextArrival are the thinning sampler as it stood
// before the rate bounds: every candidate advances the burst state
// machine inside the rate function and evaluates the sinusoid.
// FuzzArrivalTrace holds nextArrival to them.
func refRateAt(g *gen, t *tenantGen, tMS float64) float64 {
	for tMS >= t.burstEndMS {
		t.burstOn = !t.burstOn
		if t.burstOn {
			t.burstEndMS += t.r.Exp(g.cfg.BurstOnMS)
		} else {
			t.burstEndMS += t.r.Exp(g.cfg.BurstOffMS)
		}
	}
	rate := t.ratePerMS
	if g.cfg.DiurnalAmp > 0 {
		rate *= 1 + g.cfg.DiurnalAmp*math.Sin(2*math.Pi*tMS/g.cfg.DiurnalPeriodMS+t.phase)
	}
	if t.burstOn {
		rate *= g.cfg.BurstMult
	}
	return rate
}

func refNextArrival(g *gen, ti int) float64 {
	t := &g.tenants[ti]
	for {
		t.nextMS += t.r.Exp(1 / t.maxRatePerMS)
		if t.r.Float64()*t.maxRatePerMS < refRateAt(g, t, t.nextMS) {
			return t.nextMS
		}
	}
}

// FuzzArrivalTrace: over fuzzed traffic shapes — rate, 1-64 tenants,
// diurnal amplitude in [0, 0.99] (0 included) and period, burst
// multiplier in [1, 16], burst on/off means, seed — the first arrivals
// of every tenant equal the reference sampler's bit for bit. Rates from
// 100/s and periods and burst means from 1 ms keep the burst toggles
// per candidate, which both samplers walk one by one, in the thousands.
func FuzzArrivalTrace(f *testing.F) {
	f.Add(uint64(3), 900.0, uint8(16), 0.4, 60_000.0, 4.0, 500.0, 4500.0)
	f.Add(uint64(0), 50.0, uint8(1), 0.0, 0.0, 1.0, 0.0, 0.0)
	f.Add(uint64(9), 20000.0, uint8(63), 0.98, 3.0, 16.0, 30.0, 60.0)
	f.Add(uint64(1<<63), 1.0, uint8(7), 0.5, 999_999.0, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, rate float64, tenants uint8, amp, periodMS, burst, onMS, offMS float64) {
		for _, v := range []float64{rate, amp, periodMS, burst, onMS, offMS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		cfg := Traffic{
			RatePerSec:      100 + math.Mod(math.Abs(rate), 1e5),
			Tenants:         1 + int(tenants)%64,
			DiurnalAmp:      math.Mod(math.Abs(amp), 0.99),
			DiurnalPeriodMS: 1 + math.Mod(math.Abs(periodMS), 1e6),
			BurstMult:       1 + math.Mod(math.Abs(burst), 15),
			BurstOnMS:       1 + math.Mod(math.Abs(onMS), 5000),
			BurstOffMS:      1 + math.Mod(math.Abs(offMS), 20000),
			Seed:            seed,
		}
		got, want := newGen(cfg), newGen(cfg)
		for ti := range got.tenants {
			for i := 0; i < 200; i++ {
				a, b := got.nextArrival(ti), refNextArrival(want, ti)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%+v: tenant %d arrival %d = %v, reference %v", cfg, ti, i, a, b)
				}
			}
		}
	})
}

// checkOcc fails on the first (class, tenant, model) whose occupancy
// bit disagrees with its FIFO: bit m of occ[c][t] is set exactly when
// FIFO (c, t, m) has a head.
func checkOcc(t testing.TB, s *Server) {
	t.Helper()
	for c := range s.queues {
		for ti, occ := range s.occ[c] {
			for m := 0; m < numModels; m++ {
				if set, queued := occ&(1<<m) != 0, s.queues[c][ti*numModels+m].head >= 0; set != queued {
					t.Fatalf("t=%v ms: class %d tenant %d model %d: occupancy bit %v, FIFO non-empty %v",
						s.nowMS, c, ti, m, set, queued)
				}
			}
		}
	}
}
