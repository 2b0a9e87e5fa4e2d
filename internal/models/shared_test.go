package models

import "testing"

// TestSharedPlanDedup: N acquisitions of one (model, shape, seed) key
// must hold one resident artifact whose footprint matches an
// independently measured per-session plan — the memory N fleet
// sessions no longer pay N times.
func TestSharedPlanDedup(t *testing.T) {
	ResetShared()
	defer ResetShared()

	const n = 4
	net0, plan0 := AcquireShared(V8Nano, 1, 7, 96, 96)
	for i := 1; i < n; i++ {
		net, plan := AcquireShared(V8Nano, 1, 7, 96, 96)
		if net != net0 || plan != plan0 {
			t.Fatalf("acquisition %d returned distinct artifacts: sharing broken", i)
		}
	}

	st := SharedStats()
	if st.Entries != 1 || st.Acquires != n {
		t.Fatalf("stats = %+v, want 1 entry, %d acquires", st, n)
	}

	// The resident footprint must equal ONE per-session plan's weights +
	// arena, independently measured; demand is n of them.
	fp := MeasurePlanFootprint(V8Nano, 96, 96)
	wantPer := net0.Params() + int64(fp.ArenaFloats)
	if st.ResidentFloats != wantPer {
		t.Fatalf("resident %d floats, want one plan's %d", st.ResidentFloats, wantPer)
	}
	if st.DemandFloats != n*wantPer {
		t.Fatalf("demand %d floats, want %d", st.DemandFloats, n*wantPer)
	}
	if got := st.SharedFloats(); got != (n-1)*wantPer {
		t.Fatalf("deduped %d floats, want %d", got, (n-1)*wantPer)
	}
}

// TestSharedPlanKeying: a different shape or seed is a different
// artifact, and quantized builds never alias fp32 ones.
func TestSharedPlanKeying(t *testing.T) {
	ResetShared()
	defer ResetShared()

	_, p1 := AcquireShared(V8Nano, 1, 7, 96, 96)
	_, p2 := AcquireShared(V8Nano, 1, 7, 64, 64)
	if p1 == p2 {
		t.Fatal("distinct shapes shared one plan")
	}
	n3, _ := AcquireShared(V8Nano, 1, 8, 96, 96)
	n1, _ := AcquireShared(V8Nano, 1, 7, 96, 96)
	if n3 == n1 {
		t.Fatal("distinct seeds shared one network")
	}
	nq, pq := AcquireSharedQuantized(V8Nano, 1, 7, 2, 96, 96)
	if nq == n1 || pq == p1 {
		t.Fatal("quantized build aliased the fp32 artifact")
	}
	if st := SharedStats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4 distinct artifacts", st.Entries)
	}
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

// SharedFloats reports how many floats the cache deduplicated.
func (s SharedPlanStats) SharedFloats() int64 { return s.DemandFloats - s.ResidentFloats }
