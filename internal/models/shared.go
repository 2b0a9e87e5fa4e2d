package models

import (
	"sync"

	"ocularone/internal/nn"
)

// sharedKey identifies one deployable compiled artifact: model, head
// class count, weight seed, compiled input shape, and the quantization
// recipe (calib = calibration frame count, 0 for fp32).
type sharedKey struct {
	id    ID
	nc    int
	seed  uint64
	h, w  int
	calib int
}

// sharedEntry is one cached build: the network (packed weights) and its
// compiled plan, plus the dedup accounting the footprint tests assert.
type sharedEntry struct {
	net      *nn.Network
	plan     *nn.Plan
	acquires int
	params   int64 // weight floats resident once, shared by every acquirer
	arena    int   // plan arena floats per sample
}

var (
	sharedMu    sync.Mutex
	sharedPlans = map[sharedKey]*sharedEntry{}
)

// AcquireShared returns the process-wide compiled (network, plan) for
// (id, nc, seed) at input 3×h×w, building and compiling on first use.
// Every later acquisition with the same key returns the same pointers:
// N fleet sessions serving the same model share one copy of the packed
// plan weights and one compiled program instead of N.
//
// The shared network/plan are not safe for concurrent forward passes —
// the repo's serving and fleet replays are single-threaded by design —
// but Acquire itself may be called from any goroutine.
func AcquireShared(id ID, nc int, seed uint64, h, w int) (*nn.Network, *nn.Plan) {
	return acquireShared(sharedKey{id, nc, seed, h, w, 0}, func() *nn.Network {
		return Build(id, nc, seed)
	})
}

// AcquireSharedQuantized is AcquireShared over the post-training
// quantization recipe (calibrate on `frames` frames, quantize,
// compile). Distinct calibration depths are distinct artifacts.
func AcquireSharedQuantized(id ID, nc int, seed uint64, frames, h, w int) (*nn.Network, *nn.Plan) {
	return acquireShared(sharedKey{id, nc, seed, h, w, frames}, func() *nn.Network {
		return BuildQuantized(id, nc, seed, frames, h, w)
	})
}

func acquireShared(k sharedKey, build func() *nn.Network) (*nn.Network, *nn.Plan) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	e, ok := sharedPlans[k]
	if !ok {
		net := build()
		plan := net.PlanFor(3, k.h, k.w)
		_, arena := plan.Slots()
		e = &sharedEntry{net: net, plan: plan, params: net.Params(), arena: arena}
		sharedPlans[k] = e
	}
	e.acquires++
	return e.net, e.plan
}

// SharedPlanStats is the dedup ledger of the shared plan cache.
type SharedPlanStats struct {
	// Entries is the number of distinct compiled artifacts resident.
	Entries int
	// Acquires counts every acquisition, hits included.
	Acquires int
	// ResidentFloats is the weight + arena floats actually held.
	ResidentFloats int64
	// DemandFloats is what per-acquirer compilation would have held —
	// the footprint per-session plans used to cost before the cache.
	DemandFloats int64
}

// SharedStats snapshots the cache's dedup accounting.
func SharedStats() SharedPlanStats {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	var st SharedPlanStats
	st.Entries = len(sharedPlans)
	for _, e := range sharedPlans {
		per := e.params + int64(e.arena)
		st.Acquires += e.acquires
		st.ResidentFloats += per
		st.DemandFloats += per * int64(e.acquires)
	}
	return st
}

// ResetShared drops every cached artifact (tests and long-lived tools
// switching scenarios).
func ResetShared() {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	sharedPlans = map[sharedKey]*sharedEntry{}
}
