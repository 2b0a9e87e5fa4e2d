// Package track adds temporal consistency on top of per-frame vest
// detections: a single-target tracker with a constant-velocity motion
// model, exponential box smoothing, and coast-through-dropout behaviour.
//
// The paper benchmarks per-frame models; a deployed Ocularone pipeline
// must bridge the frames where the detector misses (blur, occlusion,
// low light) without losing the VIP. The tracker turns a detector with
// per-frame recall r into a stream with effective recall well above r,
// and its confidence decay gives the pipeline a principled "VIP lost"
// signal instead of a single-frame alarm.
//
// Since PR 10 the tracker is also the bottom rung of the temporal
// degradation ladder (internal/temporal, ARCHITECTURE.md §Temporal
// resilience): under overload or an outage the serving tiers answer
// frames from a live track's motion-model prediction instead of
// shedding them. The contracts that embedding leans on are explicit
// here: a coasting track extrapolates its motion model for up to
// MaxCoastFrames misses, and MultiTracker's IDs are a pure function of
// the detection stream, so identities stay deterministic across
// detection gaps (the chaos-gap battery in gap_test.go pins ID
// stability and bounded coasting drift through occlusion and night
// dropout bursts).
package track
