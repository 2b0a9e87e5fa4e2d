package serve

import (
	"fmt"
	"testing"
)

// BenchmarkCalQueue measures the steady-state pop/push cycle of the
// event core at a steady population: 40 events, what NewServer sizes
// the queue for with the default 16 tenants, and 1024. The CI gate
// asserts 0 allocs/op for both: the heap's slice must be reused once
// the population stabilises.
func BenchmarkCalQueue(b *testing.B) {
	for _, pop := range []int{40, 1024} {
		b.Run(fmt.Sprintf("events=%d", pop), func(b *testing.B) {
			q := NewCalQueue(pop, 0)
			r := uint64(1)
			t := 0.0
			for i := 0; i < pop; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				q.Push(Event{TimeMS: t + float64(r%1000)/100})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := q.Pop()
				t = e.TimeMS
				r = r*6364136223846793005 + 1442695040888963407
				q.Push(Event{TimeMS: t + float64(r%1000)/100})
			}
		})
	}
}

// BenchmarkServeSteadyState measures the full serving hot loop —
// arrival generation, admission, batching, executor dispatch,
// histogram recording — per simulated millisecond at 2x overload.
// The CI gate asserts 0 allocs/op (the pool, scratch slices, and
// event heap are all warmed by the first simulated seconds), and
// the sim_req/s metric is the million-requests-per-wall-second
// headline the package doc promises.
func BenchmarkServeSteadyState(b *testing.B) {
	cfg := DefaultConfig(1e18, 42) // horizon unused: driven by AdvanceTo
	cfg.Traffic.RatePerSec = 2 * Capacity(cfg)
	s := NewServer(cfg)
	s.AdvanceTo(5_000) // warm: pool at cap, heap sized, scratch grown
	start := s.Offered()
	t := 5_000.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 1.0
		s.AdvanceTo(t)
	}
	b.StopTimer()
	if n := s.Offered() - start; n > 0 && b.Elapsed().Seconds() > 0 {
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "sim_req/s")
	}
}

// BenchmarkIntegritySteadyState is BenchmarkServeSteadyState with the
// whole integrity layer live: bounded retries, hedging onto a second
// executor, and an active 5% SDC process. The CI gate asserts 0
// allocs/op here too, and the steady-state overhead budget (<= 10%
// against the plain loop) is tracked in BENCHMARKS.md.
func BenchmarkIntegritySteadyState(b *testing.B) {
	cfg := DefaultConfig(1e18, 42)
	cfg.Traffic.RatePerSec = 2 * Capacity(cfg)
	cfg.Integrity = IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
		Hedge: HedgePolicy{Enabled: true, Device: cfg.Device},
	}
	s := NewServer(cfg)
	s.SetSDC(0, 0.05)
	s.SetStraggle(0, 0.5)
	s.AdvanceTo(5_000)
	start := s.Offered()
	t := 5_000.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 1.0
		s.AdvanceTo(t)
	}
	b.StopTimer()
	if n := s.Offered() - start; n > 0 && b.Elapsed().Seconds() > 0 {
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "sim_req/s")
	}
}

// BenchmarkTemporalSteadyState is BenchmarkServeSteadyState with the
// temporal degradation ladder live under thermal stress at 2x overload:
// every dispatch walks the rung policy, overload converts would-be
// sheds into tracker-bridged responses, and the staleness histogram
// records every bridge. The CI gate asserts 0 allocs/op —
// the steady-state ladder loop must be allocation-free.
func BenchmarkTemporalSteadyState(b *testing.B) {
	cfg := DefaultConfig(1e18, 42)
	cfg.Traffic.RatePerSec = 2 * Capacity(cfg)
	cfg.Temporal.Enabled = true
	s := NewServer(cfg)
	s.SetThermalStress(0, 0.5)
	s.AdvanceTo(5_000)
	start := s.Offered()
	t := 5_000.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 1.0
		s.AdvanceTo(t)
	}
	b.StopTimer()
	if s.res.BridgedReqs == 0 || s.res.ROIReqs+s.res.EarlyExitReqs == 0 {
		b.Fatalf("ladder idle in its own benchmark: bridged=%d roi=%d early=%d",
			s.res.BridgedReqs, s.res.ROIReqs, s.res.EarlyExitReqs)
	}
	if n := s.Offered() - start; n > 0 && b.Elapsed().Seconds() > 0 {
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "sim_req/s")
	}
}

// BenchmarkArrivalGen isolates the thinning sampler.
func BenchmarkArrivalGen(b *testing.B) {
	g := newGen(DefaultConfig(0, 3).Traffic)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.nextArrival(i % len(g.tenants))
	}
}
