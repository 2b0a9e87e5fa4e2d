package models

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
