// Command inferbench runs latency sweeps over the benchmark models and
// devices — the interactive counterpart of Figs. 5 and 6, with energy
// and throughput columns — plus a multi-drone serving mode that runs N
// concurrent sessions of the hybrid pipeline against one shared device
// through the stage-graph fleet scheduler. The -batch flag sweeps the
// batched roofline model (standalone mode) or enables fleet
// micro-batching (drone mode); -precision switches every sweep between
// the fp32 baseline and the INT8 quantized path; -plan switches every
// sweep (and the real engine) from the eager interpreter to compiled
// execution plans; -engine runs the real pure-Go inference engine
// (fp32 or int8 kernels per -precision, interpreted or planned per
// -plan, reporting allocs/frame alongside latency) so
// -cpuprofile/-memprofile can pin GEMM hot-path regressions from the
// CLI.
//
// Usage:
//
//	inferbench                          # all models × all devices
//	inferbench -device nx -frames 1000
//	inferbench -model yolov8x -precision int8
//	inferbench -plan                    # compiled-plan roofline sweep
//	inferbench -batch 8                 # batched-latency sweep, sizes 1..8
//	inferbench -drones 8 -model yolov8x -device rtx4090 -fps 10
//	inferbench -drones 16 -batch 8 -window 60 -precision int8 -plan
//	inferbench -engine 10 -model yolov8n -precision int8 -cpuprofile cpu.out
//	inferbench -engine 10 -model yolov8n -plan   # 0 allocs/frame steady state
//	inferbench -serve                            # open-loop offered-load sweep
//	inferbench -serve -device o-agx -batch 4 -window 40
//
// -fps <= 0 and -frames < 0 are usage errors (exit 2). -serve is the
// ext-serve sweep of cmd/servebench with the device / batch / window /
// precision / engine overrides servebench does not have.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ocularone/internal/bench"
	"ocularone/internal/device"
	"ocularone/internal/metrics"
	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/pipeline"
	"ocularone/internal/rng"
	"ocularone/internal/serve"
	"ocularone/internal/tensor"
)

func main() {
	var (
		deviceFlag = flag.String("device", "all", "device: o-agx | nx | o-nano | rtx4090 | all")
		modelFlag  = flag.String("model", "all", "model name (e.g. yolov8m) or 'all'")
		frames     = flag.Int("frames", 1000, "timing frames per cell (paper: ~1,000)")
		seed       = flag.Uint64("seed", 42, "jitter seed")
		drones     = flag.Int("drones", 0, "fleet mode: N concurrent drone sessions sharing one device")
		fps        = flag.Float64("fps", 10, "fleet mode: per-drone analysed frame rate")
		batch      = flag.Int("batch", 0, "micro-batch size: roofline sweep standalone, BatchPolicy in fleet mode")
		window     = flag.Float64("window", 50, "fleet mode: micro-batching window in simulated ms")
		precFlag   = flag.String("precision", "fp32", "inference precision: fp32 | int8")
		planFlag   = flag.Bool("plan", false, "execute through compiled plans instead of the eager interpreter")
		engine     = flag.Int("engine", 0, "run N real engine forward passes (wall clock) instead of simulated sweeps")
		profile    = flag.Bool("profile", false, "with -engine -plan: print the per-op plan profile (by op kind, by conv route); -batch sets the batch width")
		serveFlag  = flag.Bool("serve", false, "open-loop serving mode: sweep offered load through internal/serve")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	prec, err := device.ParsePrecision(*precFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inferbench:", err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inferbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "inferbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inferbench:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "inferbench:", err)
		}
	}()

	eng := device.Interpreted
	if *planFlag {
		eng = device.Planned
	}

	if *profile && (*engine == 0 || !*planFlag) {
		fmt.Fprintln(os.Stderr, "inferbench: -profile needs -engine N -plan")
		os.Exit(1)
	}
	if *fps <= 0 || *frames < 0 {
		fmt.Fprintf(os.Stderr, "inferbench: need -fps > 0 and -frames >= 0, got -fps %v -frames %d\n", *fps, *frames)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*deviceFlag, *modelFlag, *frames, *seed, *drones, *fps, *batch, *window, *engine, *serveFlag, *profile, prec, eng); err != nil {
		fmt.Fprintln(os.Stderr, "inferbench:", err)
		os.Exit(1)
	}
}

// run dispatches to the selected mode; kept apart from main so the
// profiling defers always execute.
func run(deviceFlag, modelFlag string, frames int, seed uint64, drones int, fps float64, batch int, window float64, engine int, serveMode, profile bool, prec device.Precision, eng device.Engine) error {
	if engine > 0 {
		return engineMode(modelFlag, engine, seed, batch, profile, prec, eng)
	}
	if serveMode {
		return serveSweep(deviceFlag, seed, batch, window, prec, eng)
	}
	if drones > 0 {
		bp := pipeline.BatchPolicy{MaxBatch: batch, WindowMS: window}
		return fleetMode(drones, modelFlag, deviceFlag, frames, fps, seed, bp, prec, eng)
	}
	if batch > 1 {
		return batchSweep(modelFlag, deviceFlag, batch, prec, eng)
	}

	devs := device.AllIDs
	if deviceFlag != "all" {
		d, err := lookupDevice(deviceFlag)
		if err != nil {
			return err
		}
		devs = []device.ID{d}
	}
	mods := models.AllIDs
	if modelFlag != "all" {
		m, err := lookupModel(modelFlag)
		if err != nil {
			return err
		}
		mods = []models.ID{m}
	}

	fmt.Printf("precision: %s, engine: %s\n", prec, eng)
	fmt.Printf("%-12s %-10s %10s %10s %10s %10s %10s %10s\n",
		"model", "device", "median", "p25", "p75", "p95", "fps", "J/frame")
	for _, m := range mods {
		for _, d := range devs {
			s := metrics.SummarizeMS(device.Sample(m, d, prec, eng, frames, seed^uint64(m)<<8^uint64(d)))
			fmt.Printf("%-12s %-10s %9.1fms %9.1fms %9.1fms %9.1fms %10.1f %10.2f\n",
				m, d, s.MedianMS, s.P25MS, s.P75MS, s.P95MS,
				device.FPS(m, d, prec, eng), device.EnergyPerFrameJ(m, d, prec, eng))
		}
	}
	return nil
}

// engineMode runs the real pure-Go engine — the actual packed
// implicit-im2col conv kernels, fp32 or int8, interpreted or through
// the compiled plan — for n frames at a reduced input, printing
// wall-clock per-frame time and heap allocations per frame. This is the
// mode -cpuprofile/-memprofile exist for: a profile taken here lands
// directly in the GEMM drivers of tensor/pack.go and packq.go, their
// panel gathers and micro-kernels.
func engineMode(modelFlag string, n int, seed uint64, batch int, profile bool, prec device.Precision, eng device.Engine) error {
	m := models.V8Nano
	if modelFlag != "all" {
		mm, err := lookupModel(modelFlag)
		if err != nil {
			return err
		}
		m = mm
	}
	const h, w = 96, 96 // reduced input keeps all-models sweeps tractable on CPU
	// Acquire through the shared plan cache: repeated engine runs in one
	// process (and any concurrent tooling) compile each (model, shape,
	// precision) once and share the packed weights.
	var net *nn.Network
	var plan *nn.Plan
	if prec == device.INT8 {
		net, plan = models.AcquireSharedQuantized(m, 1, seed, 3, h, w)
	} else {
		net, plan = models.AcquireShared(m, 1, seed, h, w)
	}
	if eng == device.Planned {
		slots, arena := plan.Slots()
		fmt.Printf("plan: %d ops, %d arena slots (%d KB/sample)\n", plan.Ops(), slots, arena*4/1024)
	}
	r := rng.New(seed ^ 0xf00d)
	x := tensor.New(3, h, w)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	opts := nn.ExecOpts{}
	if prec == device.INT8 {
		opts.Precision = nn.INT8
	}
	xs := []*tensor.Tensor{x}
	if profile {
		// The profiled run is the planned batch: -batch frames an Execute.
		for len(xs) < batch {
			xs = append(xs, x)
		}
		opts.Profile = plan.NewProfile()
	}
	step := func() {
		switch {
		case eng == device.Planned:
			plan.Execute(xs, opts)
		case prec == device.INT8:
			net.ForwardQuantInterp(x)
		default:
			net.ForwardInterp(x)
		}
	}
	fmt.Printf("engine: %s, %s kernels, %s execution, %d frames at %dx%d\n", m, prec, eng, n, h, w)
	fmt.Printf("kernel tier: %s\n", tensor.KernelTierDesc())
	msFrame, allocsFrame := measureFrames(n, step)
	fmt.Printf("total %.2fs, %.1f ms/frame, %.0f allocs/frame\n",
		msFrame*float64(n)/1e3, msFrame/float64(len(xs)), allocsFrame/float64(len(xs)))
	if profile {
		printPlanProfile(opts.Profile, len(xs))
	}
	return nil
}

// measureFrames times n steady-state invocations of fn (after one
// warm-up call that binds plan instances and fills pools) and returns
// mean wall-clock ms per frame plus mean heap allocations per frame.
func measureFrames(n int, fn func()) (msFrame, allocsFrame float64) {
	fn() // warm: bind plan instances / fill pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed.Seconds() * 1e3 / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// printPlanProfile prints where the profiled Executes went: per op kind,
// for the convs per kernel route and the precision they ran at (an int8
// plan's unquantized convs run fp32 and get their own rows), and per
// conv GEMM shape; each row's ms per Execute — the floor (every step's
// fastest call) and the mean — its share of the floor and, for convs,
// the useful GFLOPS (GOPS at int8) the floor amounts to. The by-shape
// rows add the weights they hold (W MB) and the bandwidth the passes an
// Execute makes over them in the floor come to (GB/s; a pass a sample
// on the per-sample routes, one on the folded one): a row near what one
// core of the host reads from memory is bound by its weight stream, not
// its kernel.
func printPlanProfile(pp *nn.PlanProfile, batch int) {
	var wall time.Duration
	for i := range pp.Steps {
		wall += pp.Steps[i].Wall
	}
	calls, floor := float64(pp.Steps[0].Calls), pp.Floor()
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	print := func(title string, width int, weights bool, key func(*nn.StepProfile) string) {
		fmt.Printf("%-*s %5s %9s %9s %7s %8s", width, title, "steps", "floor ms", "mean ms", "share", "GFLOPS")
		if weights {
			fmt.Printf(" %7s %6s", "W MB", "GB/s")
		}
		fmt.Println()
		for _, r := range pp.GroupBy(key) {
			gf := "-"
			if r.Flops > 0 {
				gf = fmt.Sprintf("%.1f", r.Flops*float64(batch)/r.Floor.Seconds()/1e9)
			}
			fmt.Printf("%-*s %5d %9.3f %9.3f %6.1f%% %8s", width, r.Key, r.Steps, ms(r.Floor), ms(r.Wall)/calls, 100*float64(r.Floor)/float64(floor), gf)
			if weights {
				fmt.Printf(" %7.2f %6.2f", float64(r.WeightBytes)/1e6, float64(r.StreamedBytes)/r.Floor.Seconds()/1e9)
			}
			fmt.Println()
		}
	}
	fmt.Printf("plan profile: batch %d, %.0f executes, per execute: floor %.3f ms, mean %.3f ms\n", batch, calls, ms(floor), ms(wall)/calls)
	print("op kind", 14, false, func(s *nn.StepProfile) string { return s.Kind })
	convKey := func(format string) func(*nn.StepProfile) string {
		return func(s *nn.StepProfile) string {
			if s.Kind != "conv" {
				return ""
			}
			return fmt.Sprintf(format, s.M, s.K, s.N, s.Route, s.Precision)
		}
	}
	print("conv route", 14, false, convKey("%[4]s %[5]s"))
	print("conv m k n", 30, true, convKey("%4[1]d %5[2]d %5[3]d %-6[4]s %[5]s"))
}

// serveSweep is the open-loop counterpart of fleetMode: instead of N
// closed-loop drone sessions, a diurnal/bursty multi-tenant arrival
// process offers the full Table-2 model mix to one device at multiples
// of its full-batch capacity, and the admission/SLO policy layer in
// internal/serve decides what to shed, hold, and batch. -device picks
// the served device, -batch/-window override the micro-batch geometry,
// and -precision/-plan select the served execution path.
func serveSweep(deviceFlag string, seed uint64, batch int, window float64, prec device.Precision, eng device.Engine) error {
	cfg := serve.DefaultConfig(10_000, seed)
	if deviceFlag != "all" {
		d, err := lookupDevice(deviceFlag)
		if err != nil {
			return err
		}
		cfg.Device = d
	}
	if batch > 0 {
		cfg.Batch = device.BatchConfig{MaxBatch: batch, WindowMS: window}
	}
	cfg.Precision = prec
	cfg.Engine = eng
	fmt.Printf("serve: %s, precision %s, engine %s, batch %d within %.0f ms, %d tenants, capacity %.0f req/s\n",
		cfg.Device, prec, eng, cfg.Batch.MaxBatch, cfg.Batch.WindowMS,
		cfg.Traffic.Tenants, serve.Capacity(cfg))
	bench.WriteServeStudy(os.Stdout, serve.RunCurve(cfg, bench.ServeRhos))
	return nil
}

// batchSweep prints the batched roofline: per model×device, service
// time and effective per-frame latency/throughput at batch sizes
// 1, 2, 4, ... up to maxBatch.
func batchSweep(modelFlag, deviceFlag string, maxBatch int, prec device.Precision, eng device.Engine) error {
	devs := device.AllIDs
	if deviceFlag != "all" {
		d, err := lookupDevice(deviceFlag)
		if err != nil {
			return err
		}
		devs = []device.ID{d}
	}
	mods := models.AllIDs
	if modelFlag != "all" {
		m, err := lookupModel(modelFlag)
		if err != nil {
			return err
		}
		mods = []models.ID{m}
	}
	var sizes []int
	for n := 1; n < maxBatch; n *= 2 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, maxBatch)
	fmt.Printf("precision: %s, engine: %s\n", prec, eng)
	fmt.Printf("%-12s %-10s %6s %12s %12s %10s %9s\n",
		"model", "device", "batch", "service", "ms/frame", "fps", "speedup")
	for _, m := range mods {
		for _, d := range devs {
			base := device.BatchFPS(m, d, 1, prec, eng)
			for _, n := range sizes {
				svc := device.PredictBatchMSEng(m, d, n, prec, eng)
				fps := device.BatchFPS(m, d, n, prec, eng)
				fmt.Printf("%-12s %-10s %6d %10.1fms %10.2fms %10.1f %8.2fx\n",
					m, d, n, svc, svc/float64(n), fps, fps/base)
			}
		}
	}
	return nil
}

// lookupDevice resolves a device flag value (no "all" in fleet mode).
func lookupDevice(name string) (device.ID, error) {
	for _, d := range device.AllIDs {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown device %q", name)
}

// lookupModel resolves a model flag value (no "all" in fleet mode).
func lookupModel(name string) (models.ID, error) {
	for _, m := range models.AllIDs {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", name)
}

// fleetMode runs N timing-only drone sessions of the hybrid pipeline —
// the chosen detector on the chosen (shared) device, auxiliary models on
// per-drone Orin Nanos — and prints each session's latency summary plus
// the fleet aggregate. A batch policy with MaxBatch > 1 micro-batches
// compatible stage work across the fleet; INT8 precision applies to
// every stage of every drone (stage-mixed deployments are available
// through the pipeline.PrecisionPolicy API).
func fleetMode(drones int, modelFlag, deviceFlag string, frames int, fps float64, seed uint64, bp pipeline.BatchPolicy, prec device.Precision, eng device.Engine) error {
	det := models.V8XLarge
	if modelFlag != "all" {
		m, err := lookupModel(modelFlag)
		if err != nil {
			return err
		}
		det = m
	}
	shared := device.RTX4090
	if deviceFlag != "all" {
		d, err := lookupDevice(deviceFlag)
		if err != nil {
			return err
		}
		shared = d
	}
	if frames > 2000 {
		frames = 2000 // fleet mode is per-drone, keep the sweep bounded
	}
	place := pipeline.EdgePlacement(device.OrinNano, det)
	place[pipeline.StageDetect] = pipeline.Placement{Device: shared, Model: det}
	var pol pipeline.PrecisionPolicy
	if prec == device.INT8 {
		pol = pipeline.UniformPrecision(device.INT8, "detect", "pose", "depth")
	}
	var engPol pipeline.EnginePolicy
	if eng == device.Planned {
		engPol = pipeline.UniformEngine(device.Planned, "detect", "pose", "depth")
	}
	fleet := bench.StaggeredFleet(drones, frames, fps, seed, func(s *pipeline.Session) {
		s.EdgeRTTms = 25
		s.Policy = pipeline.DropPolicy{}
		s.Graph = pipeline.TimingVIPGraph(place)
		s.Precision, s.Engine = pol, engPol
	})
	fleet.Batch = bp
	results, err := fleet.Run()
	if err != nil {
		return err
	}
	// Edge devices are never shared: each drone flies its own Jetson,
	// so only a workstation placement actually contends.
	sharing := "one shared"
	if device.Registry(shared).IsEdge() {
		sharing = "a per-drone"
	}
	batching := "per-frame"
	if bp.Enabled() {
		batching = fmt.Sprintf("micro-batch %d within %.0f ms", bp.MaxBatch, bp.WindowMS)
	}
	fmt.Printf("fleet: %d drones @ %.0f FPS, detect=%s on %s %s (%s, %s, %s), aux on per-drone o-nano\n\n",
		drones, fps, det, sharing, shared, batching, prec, eng)
	fmt.Printf("%-8s %10s %10s %10s %11s %9s\n", "drone", "median", "p95", "max", "deadline%", "dropped%")
	for _, r := range results {
		droppedPct := 0.0
		if n := len(r.Frames) + r.Dropped; n > 0 {
			droppedPct = 100 * float64(r.Dropped) / float64(n)
		}
		fmt.Printf("%-8d %9.1fms %9.1fms %9.1fms %10.1f%% %8.1f%%\n",
			r.Session, r.E2E.MedianMS, r.E2E.P95MS, r.E2E.MaxMS, r.DeadlineOK*100, droppedPct)
	}
	agg := bench.SummarizeFleet(fleet, results)
	fmt.Printf("\nfleet aggregate: median %.1f ms, p95 %.1f ms, %d/%d frames dropped (%.1f%%)\n",
		agg.E2E.MedianMS, agg.E2E.P95MS, agg.Dropped, agg.Frames+agg.Dropped, agg.DroppedPct)
	return nil
}
