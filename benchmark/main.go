// Command benchmark is the repository's performance benchmark: seven
// workloads, ten end-to-end metrics and a traced per-layer run. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process; empty runs all seven, one child process at a time")
		seed     = flag.Uint64("seed", 42, "seed of every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed ops of one run last")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		outDir   = flag.String("out", "out", "directory for trace-<workload>.json and results.json")
		aa       = flag.Int("aa", 0, "run the suite N times with one seed and hold the worst disagreement to each bound")
		spread   = flag.Int("spread", 0, "run the suite N times with seeds seed..seed+N-1 and hold each quartile spread to its bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json from the catalog and exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *outDir, *aa, *spread, *manifest); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, outDir string, aa, spread int, manifest bool) error {
	switch {
	case manifest:
		return printManifest()
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case seconds <= 0 || (trace != 0 && trace != 1) || aa < 0 || spread < 0:
		return fmt.Errorf("need -seconds > 0, -trace 0 or 1, -aa and -spread >= 0")
	}
	if err := checkHost(); err != nil {
		return err
	}
	if workload != "" {
		return runOne(runConfig{workload, seed, seconds, trace == 1, outDir})
	}
	s := suite{workloads: gated(), seed: seed, seconds: seconds, trace: trace == 1, outDir: outDir}
	switch {
	case aa > 0:
		return s.agreement(aa)
	case spread > 0:
		return s.spreads(spread)
	}
	s.workloads = workloads
	return s.once()
}

// printManifest writes the BENCHMARK.json the catalog describes.
func printManifest() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range gated() {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
