package device

import (
	"ocularone/internal/models"
)

// Engine selects the execution engine a simulated inference runs on.
// The zero value is Interpreted, so every path that never mentions an
// engine replays the pre-plan schedule bit-for-bit — the same
// zero-value contract Precision keeps.
type Engine int

// Supported execution engines.
const (
	// Interpreted is eager per-op execution — the calibrated baseline
	// every latency constant was fitted against.
	Interpreted Engine = iota
	// Planned is compiled-plan execution (internal/nn Plan): the graph
	// is lowered once into a fused op list over a preallocated arena, so
	// per-frame dispatch collapses to one launch and the conv epilogues
	// (BN + activation) fold into the GEMM.
	Planned
)

// String returns the short name used in flags and benchmark output.
func (e Engine) String() string {
	if e == Planned {
		return "plan"
	}
	return "interp"
}

// planLaunchFrac is the share of the per-frame dispatch overhead that
// survives plan execution: a compiled plan submits one captured graph
// instead of one kernel launch per op (CUDA-graph style), so the
// launch term — 12–18 ms on the Jetsons, whose CPU-side dispatch is
// the slowest part of eager serving — mostly disappears.
const planLaunchFrac = 0.3

// LaunchEngineMS returns the per-frame dispatch overhead at the given
// engine: the calibrated LaunchMS when interpreting, the captured-graph
// residue when planned.
func (d Device) LaunchEngineMS(e Engine) float64 {
	if e == Planned {
		return d.LaunchMS * planLaunchFrac
	}
	return d.LaunchMS
}

// EngineGain returns the compute-throughput multiplier of the engine:
// 1 for the interpreted baseline; the device's PlanGain for compiled
// plans, which models fused conv→BN→activation epilogues (fewer full
// activation sweeps through memory) and arena reuse (no allocator or
// cold-buffer traffic on the hot path). The gain is deliberately
// modest — the big win on dispatch-bound devices is the launch term.
func (d Device) EngineGain(e Engine) float64 {
	if e == Planned {
		return d.PlanGain
	}
	return 1
}

// PlanCompileMS returns the one-time cost of compiling a model's plan
// for a device: lowering plus a capture run of the graph (the arena
// binds while the first frame replays), modelled as two interpreted
// frames at the given precision. Schedulers charge it on the first
// planned inference of each (stage, placement) and on every
// re-placement — the "compile once, reuse across waves" contract
// pipeline sessions keep.
func PlanCompileMS(m models.ID, dev ID, prec Precision) float64 {
	return 2 * PredictMS(m, dev, prec, Interpreted)
}
