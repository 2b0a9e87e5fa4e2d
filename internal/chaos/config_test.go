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
// fault process panics by name in New. Before, an infinite mean or
// magnitude panicked deep inside the server's calendar queue, and a
// NaN or negative one silently disarmed its process.
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
// exactly when some field is NaN, infinite or negative — or a 2 s
// serving study under it finishes within a second, holds the
// conservation invariants and reproduces its fingerprint.
func FuzzChaosConfig(f *testing.F) {
	f.Add(uint64(7), 2000.0, 400.0, 1500.0, 800.0, 18.0, 1500.0, 600.0, 40.0, 0.15, 1500.0, 700.0, 0.05, 1500.0, 800.0, 1.5)
	f.Add(uint64(1), 500.0, math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 500.0, 300.0, math.Inf(1))
	f.Add(uint64(2), 0.0, 0.0, -1.0, 800.0, 18.0, 0.0, 0.0, 0.0, math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
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
		cc := chaos.Config{
			Seed:      seed,
			Dropout:   chaos.Dropout{MTBFMS: ms(mtbf), MTTRMS: ms(mttr)},
			Storm:     chaos.Storm{MeanGapMS: ms(stGap), MeanDurMS: ms(stDur), AmbientRiseC: size(rise, 40)},
			Link:      chaos.Link{MeanGapMS: ms(lGap), MeanDurMS: ms(lDur), ExtraRTTMS: ms(rtt), LossProb: size(loss, 1)},
			SDC:       chaos.SDC{MeanGapMS: ms(sGap), MeanDurMS: ms(sDur), Prob: size(prob, 1)},
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
