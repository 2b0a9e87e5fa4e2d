// Command servebench sweeps open-loop offered load against the shared
// workstation through internal/serve and reports the serving frontier:
// goodput, p50/p99 latency, shed and expiry rates, mean batch size,
// and the simulator's own wall-clock throughput at every load point.
//
// Usage:
//
//	go run ./cmd/servebench                          # default sweep, table
//	go run ./cmd/servebench -check -horizon 2000     # CI determinism gate
//	go run ./cmd/servebench -chaos -check            # + chaos regimes
//	go run ./cmd/servebench -integrity -check        # + integrity regimes
//	go run ./cmd/servebench -temporal -check         # + degradation-ladder regimes
//
// -check runs every load point twice and fails unless the two passes
// produce identical fingerprints (bit-for-bit identical arrival traces,
// shed decisions, and latency histograms) with nonzero goodput.
//
// -chaos, -integrity and -temporal each add one study at the capacity
// knee (rho = 1.0), a table of regimes from internal/bench:
//
//   - -chaos: the fault regimes of internal/chaos — goodput, tail
//     latency, shed/lost rates and managed-recovery times per regime.
//   - -integrity: silent-data-corruption regimes with and without
//     retries, straggler regimes with hedging, and the full integrity
//     scenario — measured detection coverage, true goodput (SLO hits
//     minus served corruptions), and retry/hedge overhead per regime.
//   - -temporal: the degradation-ladder ablation — fault-free baseline,
//     the PR-7 shed-only dropout response, the same dropouts with the
//     ladder live, and the ladder under the combined regime — with
//     bridged/ROI/early-exit counts and bridged-response staleness.
//
// Combined with -check, each study must also reproduce bit for bit and
// its fault-free baseline regime must land on exactly the same
// fingerprint as the plain rho=1.0 load point — idle fault, integrity
// and ladder plumbing is proven inert. Two studies carry one more gate:
// every integrity regime that injects corruption must detect at least
// 97 % of it, and the dropout-ladder row must beat dropout-shed-only
// goodput — the headline claim of the ladder.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"ocularone/internal/bench"
	"ocularone/internal/serve"
)

func parseRhos(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("servebench: bad rho %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// kneeStudy is one capacity-knee study servebench can add to the sweep.
type kneeStudy struct {
	name    string // also the flag
	usage   string
	on      bool
	regimes func(seed uint64) []bench.KneeRegime
	write   func(io.Writer, []bench.KneePoint)
	// gate is the study's own -check claim beyond reproducibility and
	// the inert baseline: a note for the check line, or an error.
	gate func([]bench.KneePoint) (string, error)
}

var kneeStudies = []kneeStudy{
	{name: "chaos", usage: "also sweep the fault regimes at the capacity knee",
		regimes: bench.ChaosRegimes, write: bench.WriteChaosCurve},
	{name: "integrity", usage: "also sweep the integrity regimes at the capacity knee",
		regimes: bench.IntegrityRegimes, write: bench.WriteIntegrityCurve,
		gate: func(pts []bench.KneePoint) (string, error) {
			for _, p := range pts {
				if cover := bench.DetectCoveragePct(p.Result); p.SDCInjected > 0 && cover < 97 {
					return "", fmt.Errorf("regime %s detection coverage %.1f%% below gate", p.Name, cover)
				}
			}
			return "", nil
		}},
	{name: "temporal", usage: "also sweep the degradation-ladder regimes at the capacity knee",
		regimes: bench.TemporalRegimes, write: bench.WriteTemporalCurve,
		gate: func(pts []bench.KneePoint) (string, error) {
			// The headline claim: the ladder beats shedding under the same
			// dropouts at the same seed and traffic.
			goodput := map[string]float64{}
			for _, p := range pts {
				goodput[p.Name] = p.GoodputPerSec
			}
			shed, ladder := goodput["dropout-shed-only"], goodput["dropout-ladder"]
			if ladder <= shed {
				return "", fmt.Errorf("dropout-ladder goodput does not beat shed-only")
			}
			return fmt.Sprintf("; ladder beats shed-only %.0f > %.0f req/s", ladder, shed), nil
		}},
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		horizon = flag.Float64("horizon", 10_000, "simulated arrival horizon per load point (ms)")
		seed    = flag.Uint64("seed", 42, "traffic and executor seed")
		rhoFlag = flag.String("rhos", "0.5,0.8,1.0,1.2,1.5,2.0", "offered-load multiples of capacity")
		check   = flag.Bool("check", false, "run twice and fail unless fingerprints reproduce")
	)
	for i := range kneeStudies {
		st := &kneeStudies[i]
		flag.BoolVar(&st.on, st.name, false, st.usage)
	}
	flag.Parse()
	rhos, err := parseRhos(*rhoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := serve.DefaultConfig(*horizon, *seed)
	pts := serve.RunCurve(cfg, rhos)
	bench.WriteServeStudy(os.Stdout, pts)

	var minSim float64
	for i, p := range pts {
		if sim := float64(p.Offered) / p.WallSec; i == 0 || sim < minSim {
			minSim = sim
		}
	}
	fmt.Printf("\ncapacity %.0f req/s at full batches; slowest point simulated %.2fM req/wall-sec\n",
		serve.Capacity(cfg), minSim/1e6)

	if *check {
		again := serve.RunCurve(cfg, rhos)
		for i, p := range pts {
			if p.Fingerprint != again[i].Fingerprint {
				fail("rho=%.2f fingerprint drifted: %s vs %s", p.Rho, p.Fingerprint, again[i].Fingerprint)
			}
			if p.GoodputPerSec <= 0 {
				fail("rho=%.2f has zero goodput", p.Rho)
			}
		}
		fmt.Printf("check: %d load points reproduced bit-for-bit, all with nonzero goodput\n", len(pts))
	}

	// The fault-free baseline of every knee study must be
	// indistinguishable from the plain serving path at the same load.
	var plain string
	for _, st := range kneeStudies {
		if !st.on {
			continue
		}
		knee := bench.RunKnee(st.regimes(*seed), *seed, *horizon)
		fmt.Println()
		st.write(os.Stdout, knee)
		if !*check {
			continue
		}
		for j, p := range bench.RunKnee(st.regimes(*seed), *seed, *horizon) {
			if p.Fingerprint != knee[j].Fingerprint {
				fail("%s regime %s fingerprint drifted: %s vs %s", st.name, p.Name, knee[j].Fingerprint, p.Fingerprint)
			}
		}
		if plain == "" {
			plain = serve.RunCurve(cfg, []float64{1.0})[0].Fingerprint
		}
		if knee[0].Fingerprint != plain {
			fail("%s baseline %s != plain rho=1.0 %s: idle %s plumbing is not inert", st.name, knee[0].Fingerprint, plain, st.name)
		}
		note := ""
		if st.gate != nil {
			if note, err = st.gate(knee); err != nil {
				fail("%s %v", st.name, err)
			}
		}
		fmt.Printf("check: %d %s regimes reproduced bit-for-bit; baseline matches plain serving%s\n",
			len(knee), st.name, note)
	}
}
