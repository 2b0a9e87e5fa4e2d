// Package serve is the open-loop serving front end of the Ocularone
// benchmark: it offers traffic to a device the way a deployed fleet
// would — arrivals keep coming whether or not the device keeps up —
// and measures what the closed-loop pipeline studies cannot: goodput,
// tail latency, and shed rate as functions of offered load.
//
// The package is built in layers:
//
//   - Traffic generation (traffic.go): per-tenant nonhomogeneous
//     Poisson arrivals sampled exactly by thinning (the sine is
//     evaluated only between the rate's bounds over a burst state and
//     diurnal window; FuzzArrivalTrace holds the traces to the
//     sine-every-time loop bit for bit), modulated by a
//     diurnal sinusoid and a two-state Markov burst process, with
//     Zipf-skewed tenant shares. Each request draws one of the eight
//     Table-2 models and one of three priority classes from fixed
//     weights that no config sets (modelWeights: nano detectors
//     dominate, x-large and the auxiliary models trail; classWeights:
//     25 : 60 : 15 interactive : standard : background). Every draw
//     derives from internal/rng split streams: one seed, one trace,
//     bit for bit.
//
//   - Event core (event.go, hist.go): a binary min-heap of
//     value-type events in one reused slice, ordered by time and then
//     push order, plus fixed-size log-scaled latency histograms. The
//     server holds one pending arrival per tenant and a few other
//     events, so the heap stays a few dozen deep. Steady-state
//     simulation allocates nothing, which is what sustains more than
//     a million simulated requests per wall-clock second on one core.
//
//   - Policy (server.go): fixed admission control (a queue cap split
//     into per-tenant quotas, plus shed-if-doomed deadline prediction
//     using the executor's queue-aware AdmissionDelayMS),
//     strict-priority SLO classes with lazy dispatch-time expiry,
//     least-attained-service fairness across tenants, and windowed
//     same-model micro-batch formation dispatched through
//     device.Executor — the same simulator, jitter model, and thermal
//     throttle every other study in the repo uses.
//
//   - Faults (faults.go): an explicit fault surface — FailDevice
//     (fail-stop at batch boundaries: the in-flight batch completes,
//     nothing new dispatches until the restore), RecoverDevice, SetThermalStress, SetLink — driven by any
//     Disruption implementation whose fault schedule runs as ordinary
//     events in the event queue (internal/chaos provides the
//     seeded Markov-modulated one). AdaptConfig enables managed
//     degradation: a windowed deadline-miss monitor steering
//     adaptive.Controller between degraded and nominal precision
//     arms. The server accounts fault episodes and per-episode
//     recovery time (fault clear until the backlog drains, never
//     before the clear); a nil Disruption is bit-for-bit identical to
//     the fault-free server.
//
//   - Integrity (integrity.go): end-to-end silent-error recovery.
//     SetSDC drives a silent-data-corruption process (modelling the
//     escape rate of the compute tier's ABFT checksums and guard
//     sentinels as detectCoverage); detected corruptions are retried
//     under a bounded, budget-capped RetryPolicy whose re-executions
//     are ordinary queued events and whose pending work is visible
//     to the admission predictor, or flagged and dropped when retries
//     are off or exhausted. HedgePolicy duplicates predicted-doomed
//     arrivals onto a second executor — first result wins, budget
//     capped — converting shed-if-doomed decisions into hedged
//     admissions under stragglers (SetStraggle). The zero-value
//     IntegrityConfig replays every prior fingerprint bit for bit,
//     and the whole layer keeps steady state at 0 allocs/op.
//
//   - Temporal ladder (temporal.go): the serving embedding of
//     internal/temporal, configured by a temporal.Layer. Dispatched
//     batches run at a full-frame, ROI or early-exit rung chosen from
//     the admission predictor's queue-drain estimate, and would-be
//     sheds are answered from the tenant's temporal.Track — a
//     tracker-bridged response inside the staleness budget. The zero
//     value replays every pre-ladder fingerprint bit for bit.
//
// Every response (served, hedge-won, bridged, or flagged) is recorded
// by one answer, every refusal at admission goes through one shed, and
// the run-wide counters are kept in a Result under their Result names.
//
// Run executes one horizon-and-drain study; Server.Finish is the same
// run with its invariants checked, percentiles and fingerprint attached
// (an Outcome); RunCurve sweeps offered load against Capacity to
// produce the goodput/p99/shed-rate curves reported by cmd/servebench
// and the ext-serve bench study. Results
// satisfy conservation invariants (offered = admitted + shed,
// admitted = completed + expired) and expose a Fingerprint so CI can
// assert bit-for-bit reproducibility.
package serve
