// Command servebench sweeps open-loop offered load against the shared
// workstation through internal/serve and reports the serving frontier:
// goodput, p50/p99 latency, shed and expiry rates, mean batch size,
// and the simulator's own wall-clock throughput at every load point.
//
// Usage:
//
//	go run ./cmd/servebench                          # default sweep, table
//	go run ./cmd/servebench -json serve.json         # + trajectory JSON
//	go run ./cmd/servebench -check -horizon 2000     # CI determinism gate
//	go run ./cmd/servebench -chaos -check            # + chaos regimes
//	go run ./cmd/servebench -integrity -check        # + integrity regimes
//	go run ./cmd/servebench -temporal -check         # + degradation-ladder regimes
//
// -check runs every load point twice and fails unless the two passes
// produce identical fingerprints (bit-for-bit identical arrival traces,
// shed decisions, and latency histograms) with nonzero goodput.
//
// -chaos additionally sweeps the fault regimes of internal/chaos at
// the capacity knee and reports goodput, tail latency, shed/lost rates
// and managed-recovery times per regime. Combined with -check, the
// chaos sweep must also reproduce bit for bit, and the fault-free
// baseline regime must land on exactly the same fingerprint as the
// plain rho=1.0 load point — fault plumbing is proven inert when idle.
//
// -integrity sweeps the end-to-end integrity study at the knee:
// silent-data-corruption regimes with and without retries, straggler
// regimes with hedging, and the full integrity scenario — reporting
// measured detection coverage, true goodput (SLO hits minus served
// corruptions), and retry/hedge overhead per regime. With -check the
// sweep must reproduce bit for bit and its fault-free baseline must
// match the plain rho=1.0 fingerprint — idle integrity plumbing is
// proven inert exactly like idle fault plumbing.
//
// -temporal sweeps the degradation-ladder ablation at the knee:
// fault-free baseline, the PR-7 shed-only dropout response, the same
// dropouts with the ladder live, and the ladder under the combined
// regime — reporting bridged/ROI/early-exit counts and bridged-response
// staleness per regime. With -check the sweep must reproduce bit for
// bit, its baseline must match the plain rho=1.0 fingerprint (idle
// ladder plumbing is inert), and the dropout-ladder row must beat
// dropout-shed-only goodput — the headline claim of the ladder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ocularone/internal/bench"
	"ocularone/internal/serve"
)

// doc is the JSON document servebench emits: a header naming the run
// plus the serving curve (the per-PR snapshots of it are frozen in
// BENCHMARKS.md §Frozen: the pre-benchmark/ harness).
type doc struct {
	GeneratedAt string                 `json:"generated_at"`
	GoVersion   string                 `json:"go_version"`
	GOARCH      string                 `json:"goarch"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	HorizonMS   float64                `json:"horizon_ms"`
	Seed        uint64                 `json:"seed"`
	CapacityRPS float64                `json:"capacity_per_sec"`
	Serve       []serve.CurvePoint     `json:"serve_curve"`
	Chaos       []bench.ChaosPoint     `json:"chaos_curve,omitempty"`
	Integrity   []bench.IntegrityPoint `json:"integrity_curve,omitempty"`
	Temporal    []bench.TemporalPoint  `json:"temporal_curve,omitempty"`
}

func parseRhos(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("servebench: bad rho %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		horizon  = flag.Float64("horizon", 10_000, "simulated arrival horizon per load point (ms)")
		seed     = flag.Uint64("seed", 42, "traffic and executor seed")
		rhoFlag  = flag.String("rhos", "0.5,0.8,1.0,1.2,1.5,2.0", "offered-load multiples of capacity")
		jsonPath = flag.String("json", "", "also write the curve as trajectory JSON")
		check    = flag.Bool("check", false, "run twice and fail unless fingerprints reproduce")
		chaosRun = flag.Bool("chaos", false, "also sweep the fault regimes at the capacity knee")
		integRun = flag.Bool("integrity", false, "also sweep the integrity regimes at the capacity knee")
		tempRun  = flag.Bool("temporal", false, "also sweep the degradation-ladder regimes at the capacity knee")
	)
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
		if i == 0 || p.SimReqPerWallSec < minSim {
			minSim = p.SimReqPerWallSec
		}
	}
	fmt.Printf("\ncapacity %.0f req/s at full batches; slowest point simulated %.2fM req/wall-sec\n",
		serve.Capacity(cfg), minSim/1e6)

	if *check {
		again := serve.RunCurve(cfg, rhos)
		for i, p := range pts {
			if p.Fingerprint != again[i].Fingerprint {
				fmt.Fprintf(os.Stderr, "servebench: rho=%.2f fingerprint drifted: %s vs %s\n",
					p.Rho, p.Fingerprint, again[i].Fingerprint)
				os.Exit(1)
			}
			if p.GoodputPerSec <= 0 {
				fmt.Fprintf(os.Stderr, "servebench: rho=%.2f has zero goodput\n", p.Rho)
				os.Exit(1)
			}
		}
		fmt.Printf("check: %d load points reproduced bit-for-bit, all with nonzero goodput\n", len(pts))
	}

	var chaosPts []bench.ChaosPoint
	if *chaosRun {
		chaosPts = bench.RunChaosCurve(*seed, *horizon)
		fmt.Println()
		bench.WriteChaosCurve(os.Stdout, chaosPts)
		if *check {
			again := bench.RunChaosCurve(*seed, *horizon)
			for i, p := range chaosPts {
				if p.Fingerprint != again[i].Fingerprint {
					fmt.Fprintf(os.Stderr, "servebench: chaos regime %s fingerprint drifted: %s vs %s\n",
						p.Regime, p.Fingerprint, again[i].Fingerprint)
					os.Exit(1)
				}
			}
			// The fault-free baseline must be indistinguishable from the
			// plain serving path at the same load.
			plain := serve.RunCurve(cfg, []float64{1.0})[0]
			if chaosPts[0].Fingerprint != plain.Fingerprint {
				fmt.Fprintf(os.Stderr, "servebench: chaos baseline %s != plain rho=1.0 %s: idle fault plumbing is not inert\n",
					chaosPts[0].Fingerprint, plain.Fingerprint)
				os.Exit(1)
			}
			fmt.Printf("check: %d chaos regimes reproduced bit-for-bit; baseline matches plain serving\n",
				len(chaosPts))
		}
	}

	var integPts []bench.IntegrityPoint
	if *integRun {
		integPts = bench.RunIntegrityCurve(*seed, *horizon)
		fmt.Println()
		bench.WriteIntegrityCurve(os.Stdout, integPts)
		if *check {
			again := bench.RunIntegrityCurve(*seed, *horizon)
			for i, p := range integPts {
				if p.Fingerprint != again[i].Fingerprint {
					fmt.Fprintf(os.Stderr, "servebench: integrity regime %s fingerprint drifted: %s vs %s\n",
						p.Regime, p.Fingerprint, again[i].Fingerprint)
					os.Exit(1)
				}
			}
			plain := serve.RunCurve(cfg, []float64{1.0})[0]
			if integPts[0].Fingerprint != plain.Fingerprint {
				fmt.Fprintf(os.Stderr, "servebench: integrity baseline %s != plain rho=1.0 %s: idle integrity plumbing is not inert\n",
					integPts[0].Fingerprint, plain.Fingerprint)
				os.Exit(1)
			}
			for _, p := range integPts {
				if p.SDCInjected > 0 && p.DetectCoveragePct < 97 {
					fmt.Fprintf(os.Stderr, "servebench: integrity regime %s detection coverage %.1f%% below gate\n",
						p.Regime, p.DetectCoveragePct)
					os.Exit(1)
				}
			}
			fmt.Printf("check: %d integrity regimes reproduced bit-for-bit; baseline matches plain serving\n",
				len(integPts))
		}
	}

	var tempPts []bench.TemporalPoint
	if *tempRun {
		tempPts = bench.RunTemporalCurve(*seed, *horizon)
		fmt.Println()
		bench.WriteTemporalCurve(os.Stdout, tempPts)
		if *check {
			again := bench.RunTemporalCurve(*seed, *horizon)
			for i, p := range tempPts {
				if p.Fingerprint != again[i].Fingerprint {
					fmt.Fprintf(os.Stderr, "servebench: temporal regime %s fingerprint drifted: %s vs %s\n",
						p.Regime, p.Fingerprint, again[i].Fingerprint)
					os.Exit(1)
				}
			}
			plain := serve.RunCurve(cfg, []float64{1.0})[0]
			if tempPts[0].Fingerprint != plain.Fingerprint {
				fmt.Fprintf(os.Stderr, "servebench: temporal baseline %s != plain rho=1.0 %s: idle ladder plumbing is not inert\n",
					tempPts[0].Fingerprint, plain.Fingerprint)
				os.Exit(1)
			}
			// The headline claim: the ladder beats shedding under the same
			// dropouts at the same seed and traffic.
			var shed, ladder *bench.TemporalPoint
			for i := range tempPts {
				switch tempPts[i].Regime {
				case "dropout-shed-only":
					shed = &tempPts[i]
				case "dropout-ladder":
					ladder = &tempPts[i]
				}
			}
			if shed == nil || ladder == nil || ladder.GoodputPerSec <= shed.GoodputPerSec {
				fmt.Fprintf(os.Stderr, "servebench: dropout-ladder goodput does not beat shed-only\n")
				os.Exit(1)
			}
			fmt.Printf("check: %d temporal regimes reproduced bit-for-bit; baseline matches plain serving; ladder beats shed-only %.0f > %.0f req/s\n",
				len(tempPts), ladder.GoodputPerSec, shed.GoodputPerSec)
		}
	}

	if *jsonPath != "" {
		d := doc{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			GOARCH:      runtime.GOARCH,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			HorizonMS:   *horizon,
			Seed:        *seed,
			CapacityRPS: serve.Capacity(cfg),
			Serve:       pts,
			Chaos:       chaosPts,
			Integrity:   integPts,
			Temporal:    tempPts,
		}
		buf, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: marshal: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d load points)\n", *jsonPath, len(pts))
	}
}
