package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suite runs its workloads, each in a child process of its own and one
// child at a time: one workload's heap must not set another's GC pace,
// peak RSS or allocation counts, and two running children would share
// the two cores the engine workloads measure.
type suite struct {
	workloads []workloadDef
	seed      uint64
	seconds   float64
	trace     bool
	outDir    string
}

// suiteResult is one pass over the workloads: results[workload] holds
// the end-to-end result and, with -trace 1, the per-layer one.
type suiteResult map[string]*workloadResult

type workloadResult struct {
	EndToEnd result  `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

func (s suite) child(workload string, seed uint64, trace bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "--trace", t, "--out", s.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  " + l)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}

func (s suite) pass(seed uint64) (suiteResult, error) {
	out := suiteResult{}
	for _, w := range s.workloads {
		fmt.Printf("== %s (seed %d)\n", w.Name, seed)
		e2e, err := s.child(w.Name, seed, false)
		if err != nil {
			return nil, err
		}
		out[w.Name] = &workloadResult{EndToEnd: e2e}
		if s.trace {
			layers, err := s.child(w.Name, seed, true)
			if err != nil {
				return nil, err
			}
			out[w.Name].PerLayer = &layers
		}
	}
	return out, nil
}

// failures lists the workloads with a failed operation.
func (r suiteResult) failures() []string {
	var bad []string
	for name, wr := range r {
		if !wr.EndToEnd.Correct || (wr.PerLayer != nil && !wr.PerLayer.Correct) {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// once is the plain run: every metric by name with its unit, direction
// and bound, the same as JSON in results.json, and a non-zero exit when
// any workload's fail share is above zero.
func (s suite) once() error {
	res, err := s.pass(s.seed)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-18s %-34s %14s %-8s %-7s %s\n", "workload", "metric", "value", "unit", "better", "bound")
	for _, w := range s.workloads {
		wr := res[w.Name]
		for _, d := range endToEnd {
			fmt.Printf("%-18s %-34s %14.6g %-8s %-7s %g\n", w.Name, d.Name, wr.EndToEnd.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound)
		}
	}
	if s.trace {
		fmt.Printf("\nper-layer metrics (0 = the workload does not exercise the layer)\n%-36s", "metric")
		for _, w := range s.workloads {
			fmt.Printf(" %14s", w.Name)
		}
		fmt.Println("  unit")
		for _, d := range perLayer {
			fmt.Printf("%-36s", d.Name)
			for _, w := range s.workloads {
				fmt.Printf(" %14.6g", res[w.Name].PerLayer.Metrics[d.Name].Value)
			}
			fmt.Println("  " + d.Unit)
		}
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"seed": s.seed, "seconds": s.seconds, "env": environment(), "workloads": res,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.outDir, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)
	if bad := res.failures(); len(bad) > 0 {
		return fmt.Errorf("failed operations in %v", bad)
	}
	return nil
}

// passes runs the suite n times and gathers, per workload and
// end-to-end metric, the n values.
func (s suite) passes(n int, seedOf func(i int) uint64) (map[string]map[string][]float64, error) {
	vals := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := s.pass(seedOf(i))
		if err != nil {
			return nil, err
		}
		if bad := res.failures(); len(bad) > 0 {
			return nil, fmt.Errorf("failed operations in %v", bad)
		}
		for name, wr := range res {
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for m, v := range wr.EndToEnd.Metrics {
				vals[name][m] = append(vals[name][m], v.Value)
			}
		}
	}
	return vals, nil
}

// worstDisagreement is the largest share by which one of the values is
// worse than another, in the metric's direction.
func worstDisagreement(better string, vs []float64) float64 {
	worst := 0.0
	for _, a := range vs {
		for _, b := range vs {
			if w := worseBy(better, a, b); w > worst {
				worst = w
			}
		}
	}
	return worst
}

// held says whether a local pass count can hold the metric to its
// bound. setup_s is one cold sample per run and its bound is for the
// driver's medians of ten, so it is reported and not held.
func held(d metricDef) bool { return d.Name != "setup_s" }

// agreement is the A/A mode: n passes with one seed; any two passes
// must agree within each held metric's bound.
func (s suite) agreement(n int) error {
	vals, err := s.passes(n, func(int) uint64 { return s.seed })
	if err != nil {
		return err
	}
	fmt.Printf("\nA/A over %d passes, seed %d: worst disagreement between two passes\n", n, s.seed)
	return s.report(vals, func(d metricDef, vs []float64) (float64, bool) {
		w := worstDisagreement(d.Better, vs)
		return w, w > d.Bound && held(d)
	})
}

// spreads is the seed-to-seed mode: n passes with n seeds; each held
// metric's quartile spread must stay within its bound, as the driver
// requires.
func (s suite) spreads(n int) error {
	vals, err := s.passes(n, func(i int) uint64 { return s.seed + uint64(i) })
	if err != nil {
		return err
	}
	fmt.Printf("\nquartile spread over %d passes, seeds %d..%d: (Q3-Q1)/median\n", n, s.seed, s.seed+uint64(n)-1)
	return s.report(vals, func(d metricDef, vs []float64) (float64, bool) {
		q := quartileSpread(vs)
		return q, q > d.Bound && held(d)
	})
}

func (s suite) report(vals map[string]map[string][]float64, judge func(metricDef, []float64) (float64, bool)) error {
	fmt.Printf("%-18s %-20s %12s %12s %12s %10s %8s  %s\n", "workload", "metric", "min", "median", "max", "measure", "bound", "")
	over := 0
	for _, w := range s.workloads {
		for _, d := range endToEnd {
			vs := sorted(vals[w.Name][d.Name])
			v, bad := judge(d, vs)
			note := ""
			switch {
			case bad:
				note = "OVER BOUND"
				over++
			case v > d.Bound/3:
				note = "above a third of the bound"
			}
			fmt.Printf("%-18s %-20s %12.6g %12.6g %12.6g %10.4f %8g  %s\n", w.Name, d.Name, vs[0], median(vs), vs[len(vs)-1], v, d.Bound, note)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload x metric pairs over their bound", over)
	}
	return nil
}
