// Package device models the four evaluation platforms of the paper —
// three NVIDIA Jetson edge accelerators (Table 3) and the RTX 4090
// workstation — and predicts per-frame inference latency for each
// benchmark model with a calibrated roofline model.
//
// The paper measures wall-clock inference times of PyTorch 2.0 models;
// we have no GPU hardware, so latency is *simulated*: each device's
// sustained throughput is derived from its CUDA core count, clock and
// architecture efficiency, with a fixed per-inference launch overhead
// and a utilisation factor for memory-bound (decoder-heavy) models. The
// calibration constants are documented inline and validated against the
// ranges the paper reports (ARCHITECTURE.md §Latency model).
//
// Beyond single frames, the package models batched serving: BatchEff
// gives the efficiency a batch of n concurrent samples sustains (batch
// 1 is the eager baseline, marginal frames run at the BatchEffCap
// ceiling), PredictBatchMS charges one launch and one weight pass per
// batch (PredictMS is that formula at n = 1), Executor.RunBatch serves
// a coalesced batch on the simulated stream (Run serves each job as a
// batch of one), and MicroBatcher queues compatible jobs until a batch
// fills or the scheduler driving it closes the batching window. The
// discrete-event Executor serves FIFO (deadlines and priorities stay
// with the schedulers that choose what to submit) and adds calibrated
// jitter and thermal throttling; Cluster pools executors under a
// stable per-device seed derivation so shared-workstation contention
// studies are reproducible.
//
// The roofline is precision-aware: Precision (FP32/INT8) threads
// through PredictMS, PredictBatchMS, Sample, FPS, and EnergyPerFrameJ.
// Each device carries an Int8Gain effective-throughput multiplier (the
// Jetsons' rated TOPS are predominantly int8 figures) and int8 weight
// streaming moves half the bytes; Job.Precision routes through
// Executor and MicroBatcher, which only coalesces same-model,
// same-precision work.
//
// It is also engine-aware: Engine (Interpreted/Planned) models compiled
// execution plans. Planned inference submits one captured graph instead
// of per-op launches (LaunchEngineMS keeps only a residue of the
// calibrated dispatch overhead — the dominant cost on the Jetsons) and
// earns a modest per-device PlanGain on compute from fused epilogues
// and arena reuse; PlanCompileMS charges the one-time per-placement
// compilation schedulers attach to a plan's first job. Each cost
// function takes the engine explicitly (PredictBatchMS is the one
// interpreter shorthand), Job.Engine and Job.CompileMS thread it
// through Executor and MicroBatcher, and the zero value replays the
// interpreted schedule bit-for-bit.
//
// Faults act on an Executor directly: HoldUntil models a fail-stop
// outage (the stream idles until the restore), SetSlowdown a straggler
// and SetThermalStress a thermal storm. A fault reaches schedulers only
// through the timing it imposes (BusyUntilMS, AdmissionDelayMS).
package device
