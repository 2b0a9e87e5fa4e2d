package chaos_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ocularone/internal/chaos"
	"ocularone/internal/serve"
)

// TestNewRejectsBadConfig: a NaN, infinite or negative field of any
// fault process, a positive mean under 1e-3 ms or over 1e9 ms, an extra
// link round trip over 1e9 ms, a straggler factor over 1e6 and a loss
// or corruption probability over 1 panic by name in New. Before, an
// infinite mean or a huge magnitude panicked deep inside the server's
// event queue, a NaN or negative one silently disarmed its process, a
// sub-nanosecond mean stalled the simulated clock, so the run never
// ended, a 1e308 ms round trip summed the latencies to +Inf, so the
// Result no longer marshalled to JSON, and a probability of 7 ran to
// the end as if it were 1.
func TestNewRejectsBadConfig(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		field string
		cfg   chaos.Config
	}{
		{"Dropout.MTTRMS", chaos.Config{Dropout: chaos.Dropout{MTBFMS: 500, MTTRMS: inf}}},
		{"Dropout.MTBFMS", chaos.Config{Dropout: chaos.Dropout{MTBFMS: inf, MTTRMS: 100}}},
		{"Straggler.MeanDurMS", chaos.Config{Straggler: chaos.Straggler{MeanGapMS: 500, MeanDurMS: inf, Factor: 1}}},
		{"Straggler.Factor", chaos.Config{Straggler: chaos.Straggler{MeanGapMS: 500, MeanDurMS: 300, Factor: inf}}},
		{"SDC.Prob", chaos.Config{SDC: chaos.SDC{MeanGapMS: 1500, MeanDurMS: 700, Prob: nan}}},
		{"Storm.MeanGapMS", chaos.Config{Storm: chaos.Storm{MeanGapMS: -1500, MeanDurMS: 800, AmbientRiseC: 18}}},
		{"Straggler.Factor", chaos.Config{Straggler: chaos.Straggler{MeanGapMS: 500, MeanDurMS: 300, Factor: 1e308}}},
		{"Dropout.MTBFMS", chaos.Config{Dropout: chaos.Dropout{MTBFMS: 1e-300, MTTRMS: 1e-300}}},
		{"Link.ExtraRTTMS", chaos.Config{Link: chaos.Link{MeanGapMS: 500, MeanDurMS: 300, ExtraRTTMS: 1e308}}},
		{"SDC.MeanDurMS", chaos.Config{SDC: chaos.SDC{MeanGapMS: 500, MeanDurMS: 1e300, Prob: 0.5}}},
		{"Straggler.MeanGapMS", chaos.Config{Straggler: chaos.Straggler{MeanGapMS: 1e12, MeanDurMS: 300, Factor: 1}}},
		{"SDC.Prob", chaos.Config{SDC: chaos.SDC{MeanGapMS: 500, MeanDurMS: 300, Prob: 7}}},
		{"Link.LossProb", chaos.Config{Link: chaos.Link{MeanGapMS: 500, MeanDurMS: 300, LossProb: 7}}},
	} {
		t.Run(c.field, func(t *testing.T) {
			done := make(chan string, 1)
			go func() {
				defer func() { done <- fmt.Sprint(recover()) }()
				cfg := serve.DefaultConfig(3000, 1)
				cfg.Traffic.RatePerSec = 500
				cfg.Disrupt = chaos.New(c.cfg)
				serve.NewServer(cfg).Finish()
			}()
			select {
			case msg := <-done:
				if want := "chaos: " + c.field + " is "; !strings.HasPrefix(msg, want) {
					t.Fatalf("run ended with %q, want a panic starting %q", msg, want)
				}
			case <-time.After(time.Second):
				t.Fatal("run still going after 1 s, want a chaos: panic")
			}
		})
	}
}

// fuzzKnob maps a fuzzed field into a usable range: a finite,
// non-negative value lands in [lo, hi], while NaN, ±Inf and negative
// values pass through for New to refuse.
func fuzzKnob(v, lo, hi float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return v, true
	}
	return lo + math.Mod(v, hi-lo), false
}

// FuzzChaosConfig drives the chaos front door with raw fields for all
// five processes. Either New refuses the config with a chaos: panic —
// exactly when some field is NaN, infinite or negative, or a
// probability is over 1 — or a 2 s serving study under it finishes
// within a second, holds the conservation invariants and reproduces
// its fingerprint.
func FuzzChaosConfig(f *testing.F) {
	f.Add(uint64(7), 2000.0, 400.0, 1500.0, 800.0, 18.0, 1500.0, 600.0, 40.0, 0.15, 1500.0, 700.0, 0.05, 1500.0, 800.0, 1.5)
	f.Add(uint64(1), 500.0, math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 500.0, 300.0, math.Inf(1))
	f.Add(uint64(2), 0.0, 0.0, -1.0, 800.0, 18.0, 0.0, 0.0, 0.0, math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(3), 0.0, 0.0, 0.0, 0.0, 0.0, 500.0, 300.0, 0.0, 1.5, 500.0, 300.0, 0.5, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64,
		mtbf, mttr, stGap, stDur, rise, lGap, lDur, rtt, loss, sGap, sDur, prob, gGap, gDur, factor float64) {
		bad := false
		ms := func(v float64) float64 {
			v, b := fuzzKnob(v, 1, 10_000)
			bad = bad || b
			return v
		}
		size := func(v, hi float64) float64 {
			v, b := fuzzKnob(v, 0, hi)
			bad = bad || b
			return v
		}
		// A probability lands in [0, 2): over 1 is refused.
		prob01 := func(v float64) float64 {
			v = size(v, 2)
			bad = bad || v > 1
			return v
		}
		cc := chaos.Config{
			Seed:      seed,
			Dropout:   chaos.Dropout{MTBFMS: ms(mtbf), MTTRMS: ms(mttr)},
			Storm:     chaos.Storm{MeanGapMS: ms(stGap), MeanDurMS: ms(stDur), AmbientRiseC: size(rise, 40)},
			Link:      chaos.Link{MeanGapMS: ms(lGap), MeanDurMS: ms(lDur), ExtraRTTMS: ms(rtt), LossProb: prob01(loss)},
			SDC:       chaos.SDC{MeanGapMS: ms(sGap), MeanDurMS: ms(sDur), Prob: prob01(prob)},
			Straggler: chaos.Straggler{MeanGapMS: ms(gGap), MeanDurMS: ms(gDur), Factor: size(factor, 4)},
		}
		var inj *chaos.Injector
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			inj = chaos.New(cc)
			return ""
		}()
		if bad != (msg != "") || (bad && !strings.HasPrefix(msg, "chaos: ")) {
			t.Fatalf("config %+v: New ended with %q, want a chaos: panic iff a field is bad (%v)", cc, msg, bad)
		}
		if bad {
			return
		}
		cfg := serve.DefaultConfig(2000, seed)
		cfg.Traffic.RatePerSec = serve.Capacity(cfg)
		cfg.Disrupt = inj
		done := make(chan [2]string, 1)
		go func() {
			var fp [2]string
			defer func() {
				if r := recover(); r != nil {
					fp[1] = fmt.Sprint("panic: ", r)
				}
				done <- fp
			}()
			for i := range fp {
				fp[i] = serve.NewServer(cfg).Finish().Fingerprint // Finish panics on a broken invariant
			}
		}()
		select {
		case fp := <-done:
			if fp[0] != fp[1] {
				t.Fatalf("config %+v: first run %q, second %q", cc, fp[0], fp[1])
			}
		case <-time.After(time.Second):
			t.Fatalf("config %+v: two 2 s studies still running after 1 s", cc)
		}
	})
}

// TestTailPastHistogramTopIsExactMax: a 1e7 ms link round trip puts
// every class's tail past the latency histogram's top bin (2^21 ms).
// The p99 there is the exact maximum, not that bin's lower edge
// (1,966,080 ms, five times below every latency in the bin).
func TestTailPastHistogramTopIsExactMax(t *testing.T) {
	cfg := serve.DefaultConfig(3000, 1)
	cfg.Traffic.RatePerSec = 500
	cfg.Disrupt = chaos.New(chaos.Config{Link: chaos.Link{MeanGapMS: 500, MeanDurMS: 300, ExtraRTTMS: 1e7}})
	res := serve.NewServer(cfg).Finish()
	for c, cs := range res.Classes {
		if cs.MaxMS < 1e7 {
			t.Fatalf("class %d max %v ms, want the round trip's 1e7 in its tail", c, cs.MaxMS)
		}
		if cs.P99MS != cs.MaxMS {
			t.Errorf("class %d p99 %v ms, want the exact max %v", c, cs.P99MS, cs.MaxMS)
		}
	}
}
