package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// procStart is taken as early as the program can, for the wall time of
// set-up that the diagnostics print beside its CPU time.
var procStart = time.Now()

// simStats is what the modelled deployment delivers, on the simulated
// clock. Host time never enters it.
type simStats struct {
	goodputPerS, p99MS, servedShare float64
}

// instance is a workload after set-up: a ring of seeded inputs, one
// reference output per ring slot (checked against an independent oracle
// where the repository has one), and the operation that replays a slot
// and compares its output with the slot's reference.
type instance struct {
	itemsPerOp float64 // frames or simulated requests per operation
	// ring is the number of slots the floors keep apart; op i replays
	// slot i mod ring. A workload whose inputs all cost the same cycles
	// through them inside one slot.
	ring int
	sim  simStats
	// op runs operation i on ring slot i mod ring and marks lp at its
	// part boundaries, the same number of times on every replay of a
	// slot. tr is nil in the untraced run, lp at set-up. A non-nil error
	// is a failed operation.
	op func(i int, tr *tracer, lp *laps) error
	// layer fills this workload's per-layer metrics (traced run only).
	layer func(lc *layerCtx)
}

// maxParts bounds the parts one operation may mark.
const maxParts = 512

// laps is the clock an operation marks at its part boundaries: wall time
// and process CPU time, both in ns. A nil *laps marks nothing; marks
// beyond maxParts are counted and not kept.
type laps struct {
	t0        time.Time
	n         int
	wall, cpu [maxParts + 1]int64
}

func (l *laps) mark() {
	if l == nil {
		return
	}
	if l.n <= maxParts {
		l.wall[l.n], l.cpu[l.n] = int64(time.Since(l.t0)), int64(cpuTime())
	}
	l.n++
}

// floors keeps, per ring slot and part of the operation, the fastest
// time seen. The host's interference only ever adds time, in stretches
// from a fraction of a millisecond to minutes, so the fastest repeat of
// a part is the estimate of the code's own cost that repeats from run to
// run, and a part of a millisecond meets an undisturbed stretch far more
// often than an operation of a hundred.
type floors struct {
	parts []int     // parts[slot]; 0 until the slot is first replayed
	best  []float64 // ring x maxParts, ns
}

func newFloors(ring int) *floors {
	return &floors{parts: make([]int, ring), best: make([]float64, ring*maxParts)}
}

// add folds one replay of a slot in: marks are the clock at the part
// boundaries, op start and end included.
func (f *floors) add(slot int, marks []int64) error {
	n := len(marks) - 1
	best := f.best[slot*maxParts:][:maxParts]
	switch {
	case n < 1 || n > maxParts:
		return fmt.Errorf("ring slot %d: %d parts marked, want 1..%d", slot, n, maxParts)
	case f.parts[slot] == 0:
		f.parts[slot] = n
		for k := 0; k < n; k++ {
			best[k] = float64(marks[k+1] - marks[k])
		}
		return nil
	case f.parts[slot] != n:
		return fmt.Errorf("ring slot %d: %d parts marked, %d on its first replay", slot, n, f.parts[slot])
	}
	for k := 0; k < n; k++ {
		if d := float64(marks[k+1] - marks[k]); d < best[k] {
			best[k] = d
		}
	}
	return nil
}

// ms is the floor of one operation in ms: per slot the sum of its parts'
// fastest times, then the median over the slots replayed, which keeps
// inputs of different cost apart.
func (f *floors) ms() float64 {
	var sums []float64
	for slot, n := range f.parts {
		if n == 0 {
			continue
		}
		sum := 0.0
		for _, d := range f.best[slot*maxParts:][:n] {
			sum += d
		}
		sums = append(sums, sum/1e6)
	}
	return median(sums)
}

// phase is one timed stretch of closed-loop operations issued by one
// goroutine.
type phase struct {
	durMS     []float64   // wall time per op
	segments  [][]float64 // durMS split into five equal time slices
	wall, cpu *floors
	firstOp   int
	elapsed   time.Duration
	cpuTotal  time.Duration
	mallocs   uint64
	bytes     uint64
	failed    int
	steal     float64
}

func (p *phase) ops() float64 { return float64(len(p.durMS)) }

// floorByOp groups per-op values by ring slot (op mod ring), keeps each
// slot's smallest, and returns the median of those.
func floorByOp(byOp map[int32]float64, ring int) float64 {
	best := map[int]float64{}
	for op, v := range byOp {
		s := int(op) % ring
		if b, ok := best[s]; !ok || v < b {
			best[s] = v
		}
	}
	mins := make([]float64, 0, len(best))
	for _, v := range best {
		mins = append(mins, v)
	}
	return median(mins)
}

type layerCtx struct {
	out              map[string]float64
	seed             uint64
	stats            spanStats
	untraced, traced *phase
	// probeSpan is what is left of -seconds for a timed probe.
	probeSpan time.Duration
}

const (
	segmentCount = 5
	minOps       = 5
	maxOps       = 1 << 13
)

// timed issues operations back to back for d, at least minOps of them,
// and stops on a ring boundary: every slot is replayed equally often, so
// allocation counts per op do not depend on where the clock ran out.
func timed(inst *instance, d time.Duration, tr *tracer, firstOp int) *phase {
	ph := &phase{durMS: make([]float64, 0, maxOps), wall: newFloors(inst.ring), cpu: newFloors(inst.ring), firstOp: firstOp}
	segOf := make([]uint8, 0, maxOps)
	lp := &laps{}
	// /proc reads allocate, so they stay outside the MemStats window.
	steal0, total0 := jiffies()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	lp.t0 = time.Now()
	for i := firstOp; len(ph.durMS) < maxOps; i++ {
		elapsed := time.Since(lp.t0)
		if elapsed >= d && len(ph.durMS) >= minOps && len(ph.durMS)%inst.ring == 0 {
			break
		}
		lp.n = 0
		lp.mark()
		err := inst.op(i, tr, lp)
		lp.mark()
		n := lp.n
		if n > maxParts+1 {
			n, err = maxParts+1, fmt.Errorf("%d parts marked, %d fit", lp.n-1, maxParts)
		}
		ph.durMS = append(ph.durMS, float64(lp.wall[n-1]-lp.wall[0])/1e6)
		if err == nil {
			err = ph.wall.add(i%inst.ring, lp.wall[:n])
		}
		if err == nil {
			err = ph.cpu.add(i%inst.ring, lp.cpu[:n])
		}
		seg := int(int64(elapsed) * segmentCount / int64(d))
		if seg >= segmentCount {
			seg = segmentCount - 1
		}
		segOf = append(segOf, uint8(seg))
		if err != nil {
			if ph.failed == 0 {
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
			}
			ph.failed++
		}
	}
	ph.elapsed = time.Since(lp.t0)
	ph.cpuTotal = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	steal1, total1 := jiffies()
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.bytes = m1.TotalAlloc - m0.TotalAlloc
	if total1 > total0 {
		ph.steal = (steal1 - steal0) / (total1 - total0)
	}
	ph.segments = make([][]float64, segmentCount)
	for i, s := range segOf {
		ph.segments[s] = append(ph.segments[s], ph.durMS[i])
	}
	return ph
}

// warmUp runs operations until two consecutive ones differ by less than
// 5 %: at least three, and no more than eight or two seconds' worth, so
// that a noisy host cannot stretch it.
func warmUp(inst *instance) int {
	start, prev := time.Now(), 0.0
	for i := 0; i < 8; i++ {
		t := time.Now()
		if err := inst.op(i, nil, nil); err != nil {
			fmt.Fprintf(os.Stderr, "warm-up op %d failed: %v\n", i, err)
		}
		d := float64(time.Since(t))
		if i >= 2 && (math.Abs(d-prev) < 0.05*prev || time.Since(start) > 2*time.Second) {
			return i + 1
		}
		prev = d
	}
	return 8
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// runOne sets one workload up, warms it, measures it and prints its
// result. With trace off the result holds the end-to-end metrics; with
// trace on an untraced stretch is followed by a traced one and the
// result holds the per-layer metrics.
func runOne(cfg runConfig) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(w.Procs)
	env := environment()
	env["gomaxprocs"] = strconv.Itoa(w.Procs)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.Name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env kernel_tier=%s go=%s nproc=%s gomaxprocs=%s cpu=%q\n",
		env["kernel_tier"], env["go"], env["nproc"], env["gomaxprocs"], env["cpu"])

	inst, err := w.setup(cfg.seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	// Set-up is reported as the user CPU time it took: on a shared host
	// the wall time of a single cold set-up also counts the cycles the
	// hypervisor gave to other guests, and its system time what the host
	// charged for each first touch of a page (README.md, "setup_s").
	setupS, setupWallS := userTime().Seconds(), time.Since(procStart).Seconds()
	// Collect the set-up's garbage before warm-up, not before the timed
	// ops: a collection empties sync.Pools, and the op that refills them
	// would count an allocation the steady state does not make.
	runtime.GC()
	warm := warmUp(inst)
	span := time.Duration(cfg.seconds * float64(time.Second))

	var values map[string]float64
	var defs []metricDef
	var attempted, failed int
	if !cfg.trace {
		ph := timed(inst, span, nil, warm)
		attempted, failed = len(ph.durMS), ph.failed
		values = map[string]float64{
			"op_ms_floor":       ph.wall.ms(),
			"cpu_ms_floor":      ph.cpu.ms(),
			"allocs_per_op":     float64(ph.mallocs) / ph.ops(),
			"alloc_kb_per_op":   float64(ph.bytes) / 1024 / ph.ops(),
			"peak_rss_mb":       peakRSSMB(),
			"setup_s":           setupS,
			"ok_share":          1 - float64(failed)/float64(attempted),
			"sim_goodput_per_s": inst.sim.goodputPerS,
			"sim_p99_ms":        inst.sim.p99MS,
			"sim_served_share":  inst.sim.servedShare,
		}
		defs = endToEnd
		reportDiagnostics(ph, inst, warm, setupWallS)
	} else {
		un := timed(inst, span*2/5, nil, warm)
		tr := newTracer(1 << 18)
		trd := timed(inst, span*2/5, tr, warm+len(un.durMS))
		attempted, failed = len(un.durMS)+len(trd.durMS), un.failed+trd.failed
		values = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			values[d.Name] = 0
		}
		spans := tr.recorded()
		lc := &layerCtx{out: values, seed: cfg.seed, stats: summarise(spans, inst.ring), untraced: un, traced: trd, probeSpan: span / 5}
		harnessMetrics(lc)
		inst.layer(lc)
		defs = perLayer
		reportDiagnostics(un, inst, warm, setupWallS)
		if lc.stats.unattributed > 0.02 {
			fmt.Printf("warning: an op span is %.1f %% unattributed (limit 2 %%)\n", 100*lc.stats.unattributed)
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
		if err := tr.write(path, w.Name, cfg.seed, env); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace %s: %d spans, %d dropped\n", path, len(spans), tr.dropped.Load())
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if len(values) != len(defs) {
		return fmt.Errorf("internal: %d metric values for %d catalogued metrics", len(values), len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("internal: metric %s missing or not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// harnessMetrics says how far to trust the run; nothing is gated on it.
func harnessMetrics(lc *layerCtx) {
	un, trd := lc.untraced, lc.traced
	tailMS, tailPct := tail(un.durMS)
	lc.out["harness.trace_overhead_share"] = trd.wall.ms()/un.wall.ms() - 1
	lc.out["harness.op_ms_p50"] = median(un.durMS)
	lc.out["harness.trace_unattributed_share"] = lc.stats.unattributed
	lc.out["harness.op_ms_tail"] = tailMS
	lc.out["harness.op_tail_pct"] = tailPct
	lc.out["harness.op_count"] = un.ops()
	lc.out["harness.segment_spread"] = segmentSpread(un.segments)
	lc.out["harness.steal_share"] = un.steal
	lc.out["parallel.cpu_per_wall"] = float64(un.cpuTotal) / float64(un.elapsed)
}

// reportDiagnostics prints the ungated tail and the noise warnings, so
// a noisy run is recognisable from its own output.
func reportDiagnostics(ph *phase, inst *instance, warm int, setupWallS float64) {
	tailMS, tailPct := tail(ph.durMS)
	p50, floor := median(ph.durMS), ph.wall.ms()
	spread := segmentSpread(ph.segments)
	fmt.Printf("set-up wall %.3f s; ops %d (after %d warm-up) items_per_op %.1f op_ms floor %.4f p50 %.4f p%.1f %.4f items/s %.1f segment_spread %.3f steal %.3f\n",
		setupWallS, len(ph.durMS), warm, inst.itemsPerOp, floor, p50, tailPct, tailMS, inst.itemsPerOp*1000/floor, spread, ph.steal)
	if ph.steal > 0.15 {
		fmt.Printf("warning: steal share %.1f %% > 15 %%: the host took cycles away during this run\n", 100*ph.steal)
	}
	if spread > 1.5 {
		fmt.Printf("warning: segment spread %.2f > 1.5: part of this run was slow\n", spread)
	}
}
