package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ocularone/internal/device"
	"ocularone/internal/metrics"
	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/pipeline"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// This file is the ext-plan study: the recorded evidence that compiled
// execution plans — not assertion — buy the speedup. It has two halves.
// The engine half runs the real pure-Go kernels, comparing the
// node-walking interpreter against Plan.Execute on wall clock and on
// heap allocations per frame (the planned steady state must measure 0).
// The serving half sweeps the discrete-event model over the Jetson
// profiles, comparing interpreted and planned engines on served
// throughput under the saturated medium VIP pipeline — including the
// one-time plan-compile charge each stage pays on its first frame.

// PlanEngineRow is one real-engine measurement: interpreter vs plan on
// the same network, input, and frame count.
type PlanEngineRow struct {
	Model models.ID
	// MSFrameInterp/MSFramePlan are wall-clock milliseconds per frame.
	MSFrameInterp float64
	MSFramePlan   float64
	Speedup       float64
	// AllocsInterp/AllocsPlan are heap allocations per steady-state
	// frame (the plan executor's must be zero).
	AllocsInterp float64
	AllocsPlan   float64
	// ArenaKB is the plan's activation arena per sample — all the
	// memory an instance binds per frame: the convs gather inside the
	// packed kernel and need no scratch of their own.
	ArenaKB float64
}

// planEngineFrames sizes the wall-clock loops: enough frames for a
// stable mean on the reduced input, small enough for CI.
const planEngineFrames = 8

// RunPlanEngineStudy measures the interpreter and the compiled plan on
// the real kernels at a reduced input.
func RunPlanEngineStudy(seed uint64) []PlanEngineRow {
	const h, w = 96, 96
	var out []PlanEngineRow
	for _, m := range []models.ID{models.V8Nano, models.V11Nano} {
		net, plan := models.BuildPlanned(m, 1, seed, h, w)
		r := rng.New(seed ^ 0xf00d)
		x := tensor.New(3, h, w)
		for i := range x.Data {
			x.Data[i] = r.Float32()
		}
		xs := []*tensor.Tensor{x}

		row := PlanEngineRow{Model: m}
		_, arena := plan.Slots()
		row.ArenaKB = float64(arena) * 4 / 1024
		row.MSFrameInterp, row.AllocsInterp = MeasureFrames(planEngineFrames, func() { net.ForwardInterp(x) })
		row.MSFramePlan, row.AllocsPlan = MeasureFrames(planEngineFrames, func() { plan.Execute(xs, nn.ExecOpts{}) })
		if row.MSFramePlan > 0 {
			row.Speedup = row.MSFrameInterp / row.MSFramePlan
		}
		out = append(out, row)
	}
	return out
}

// MeasureFrames times n steady-state invocations of fn (after one
// warm-up call that binds plan instances and fills pools) and returns
// mean wall-clock ms per frame plus mean heap allocations per frame.
// It is the one measurement methodology shared by the ext-plan study
// and cmd/inferbench's engine mode.
func MeasureFrames(n int, fn func()) (msFrame, allocsFrame float64) {
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

// WritePlanEngineStudy renders the real-engine half.
func WritePlanEngineStudy(w io.Writer, rows []PlanEngineRow) {
	divider(w, "Extension: compiled execution plans — real engine, interpreter vs Plan.Execute")
	fmt.Fprintf(w, "%-12s %14s %14s %9s %15s %13s %9s\n",
		"model", "interp ms/f", "plan ms/f", "speedup", "interp allocs/f", "plan allocs/f", "arena KB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %8.2fx %15.0f %13.0f %9.0f\n",
			r.Model, r.MSFrameInterp, r.MSFramePlan, r.Speedup, r.AllocsInterp, r.AllocsPlan, r.ArenaKB)
	}
}

// PlanRow summarises one engine policy on one Jetson device in the
// planned-serving sweep (same workload shape as the quant study: an
// all-edge medium deployment saturated at 10 FPS, so served throughput
// is capacity-limited and the engine gain shows up as frames served).
type PlanRow struct {
	Device device.ID
	Policy string
	// FPS is served throughput per drone over the makespan.
	FPS float64
	// Speedup is FPS relative to the device's interpreted row.
	Speedup      float64
	E2E          metrics.LatencySummary
	DeadlinePct  float64
	PlanCompiles int
}

// planStudyFrames sizes each session (as the quant study).
const planStudyFrames = 80

// RunPlanStudy sweeps interpreted vs planned execution over the three
// Jetson devices: 4 drones each serving the full medium VIP pipeline
// on their own accelerator under the queueing policy. Planned rows pay
// the one-time per-stage compile charge inside the measured makespan,
// so the speedup is net of compilation.
func RunPlanStudy(seed uint64) ([]PlanRow, error) {
	policies := []struct {
		label string
		eng   pipeline.EnginePolicy
	}{
		{"interp", nil},
		{"plan", pipeline.UniformEngine(device.Planned, "detect", "pose", "depth")},
	}
	var out []PlanRow
	for _, dev := range device.EdgeIDs {
		var base float64
		for _, pol := range policies {
			const drones = 4
			sessions := make([]*pipeline.Session, drones)
			for i := range sessions {
				sessions[i] = &pipeline.Session{
					ID: i, Frames: planStudyFrames, FrameFPS: 10,
					Policy:   pipeline.QueuePolicy{},
					Seed:     seed + uint64(i)*211,
					OffsetMS: float64(i) * 100 / drones,
					Graph:    pipeline.TimingVIPGraph(pipeline.EdgePlacement(dev, models.V8Medium)),
					Engine:   pol.eng,
				}
			}
			fleet := pipeline.Fleet{Sessions: sessions, SharedSeed: seed ^ 0x9e3779b9}
			results, err := fleet.Run()
			if err != nil {
				return nil, fmt.Errorf("bench: plan study %s/%s: %w", dev, pol.label, err)
			}
			var e2e []float64
			frames, deadlineHits, compiles := 0, 0, 0
			firstArrival, lastFinish := 1e18, 0.0
			for si, r := range results {
				sess := fleet.Sessions[si]
				offset, period := sess.OffsetMS, 1e3/sess.FrameFPS
				for _, f := range r.Frames {
					arrival := offset + float64(f.FrameIndex)*period
					if arrival < firstArrival {
						firstArrival = arrival
					}
					if fin := arrival + f.E2EMS; fin > lastFinish {
						lastFinish = fin
					}
					e2e = append(e2e, f.E2EMS)
					if f.Deadline {
						deadlineHits++
					}
				}
				frames += len(r.Frames)
				compiles += r.PlanCompiles
			}
			row := PlanRow{Device: dev, Policy: pol.label, E2E: metrics.SummarizeMS(e2e), PlanCompiles: compiles}
			if span := lastFinish - firstArrival; span > 0 {
				row.FPS = float64(frames) / span * 1e3 / drones
			}
			if frames > 0 {
				row.DeadlinePct = 100 * float64(deadlineHits) / float64(frames)
			}
			if pol.label == "interp" {
				base = row.FPS
			}
			if base > 0 {
				row.Speedup = row.FPS / base
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// WritePlanStudy renders the planned-serving sweep.
func WritePlanStudy(w io.Writer, rows []PlanRow) {
	divider(w, "Extension: planned serving on Jetson-class devices (medium VIP pipeline, 10 FPS offered)")
	fmt.Fprintf(w, "%-8s %-8s %9s %10s %10s %11s %9s %9s\n",
		"device", "engine", "fps/drone", "median", "p95", "deadline%", "compiles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-8s %9.1f %9.1fms %9.1fms %10.1f%% %9d %8.2fx\n",
			r.Device, r.Policy, r.FPS, r.E2E.MedianMS, r.E2E.P95MS, r.DeadlinePct, r.PlanCompiles, r.Speedup)
	}
}
