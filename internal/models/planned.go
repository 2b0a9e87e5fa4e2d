package models

import "ocularone/internal/nn"

// BuildPlanned builds a model and compiles its execution plan for the
// given input size, returning both: the network (weights, calibration
// hooks, the interpreter reference) and the plan that serves it. The
// plan is also cached on the network, so Forward* wrappers reuse the
// same compiled program — BuildPlanned just fronts the compile cost at
// build time instead of on the first frame, the way a deployment
// pipeline wants it.
func BuildPlanned(id ID, nc int, seed uint64, h, w int) (*nn.Network, *nn.Plan) {
	net := Build(id, nc, seed)
	return net, net.PlanFor(3, h, w)
}

// PlanFootprint is one model's compiled-plan memory geometry at a
// given input size: arena slots and floats per sample. Convolutions
// gather their receptive fields inside the packed kernel, so a plan
// binds no kernel scratch beside the arena. The per-PR trajectory of
// these figures is the frozen table in BENCHMARKS.md ("Pre-benchmark/
// harness").
type PlanFootprint struct {
	Model       string
	H, W        int
	Slots       int
	ArenaFloats int
}

// MeasurePlanFootprint compiles id for a 3×h×w input and reports the
// plan's memory geometry.
func MeasurePlanFootprint(id ID, h, w int) PlanFootprint {
	net := Build(id, 1, 1)
	slots, arena := net.PlanFor(3, h, w).Slots()
	return PlanFootprint{Model: id.String(), H: h, W: w, Slots: slots, ArenaFloats: arena}
}
