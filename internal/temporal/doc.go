// Package temporal is the cross-frame graceful-degradation ladder: a
// deterministic policy that decides, per frame, how much inference the
// serving and pipeline tiers should actually run when deadline
// pressure, faults, or thermal throttling squeeze the device.
//
// The ladder has four rungs, ordered by cost and accuracy:
//
//	L0 FullFrame — nominal full-frame detect
//	L1 ROI       — ROI-cropped re-inference around live tracks, on a
//	               plan compiled at crop shape (models.AcquireShared)
//	L2 EarlyExit — confidence-based early exit in the detect head
//	L3 Bridge    — no inference: track.MultiTracker predictions stand
//	               in for the skipped frame
//
// Policy composes a windowed adaptive.Controller over the rung
// spectrum (the slow trend, on adaptive.ServingEpoch) with immediate
// pressure overrides computed from device.Executor signals (queue delay
// vs deadline slack, outage state, thermal throttle) and a hard
// staleness budget: at most MaxBridged consecutive bridged frames per
// anchored track, and a forced full-frame refresh after 8 consecutive
// frames below full regardless of pressure. A Track is one stream's
// share of that budget: Policy.Bridge spends it, Track.Anchor restores
// it after a real inference. The budget and the rungs' costs are
// constants; Layer only switches the ladder on in an embedding tier
// (serve.Config.Temporal, pipeline.Session.Temporal).
//
// The policy draws no randomness and allocates nothing on its decision
// path, so embedding it is fingerprint-inert until enabled: the serve
// tier's disabled configuration replays the PR-9 golden fingerprints
// bit for bit (see internal/chaos TestPR9ZeroKnobParity).
package temporal
