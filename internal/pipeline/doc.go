// Package pipeline composes drone video analytics into composable stage
// graphs — vest detection, body-pose analysis with fall classification,
// depth estimation, and any user-defined stage — with each stage placed
// on a (simulated) edge or workstation device.
//
// This is the application the paper's benchmark numbers serve: §4.2.4
// motivates hosting large accurate models on the workstation and small
// ones on the edge. The package has four layers:
//
//   - Stage/Graph (graph.go): a validated DAG of analytics stages with
//     per-stage placements and pluggable back-pressure policies.
//   - Session/Fleet (session.go): one drone feed per session; a fleet
//     runs N sessions concurrently against shared workstation executors,
//     modeling the multi-client contention of the paper's future work,
//     with a PlacementPolicy hook for live mid-stream re-placement. One
//     replay loop schedules both: Session.Run is its one-session case,
//     with no shared cluster and analytics inline at flush time.
//   - BatchPolicy (batch.go): micro-batched scheduling — frames arriving
//     within a window coalesce, and per-stage jobs sharing an executor
//     and model are charged one batched inference, so fleet sessions
//     sharing a workstation coalesce naturally. MaxBatch <= 1 replays
//     the per-frame path bit-for-bit.
//   - PrecisionPolicy (precision.go): per-stage fp32/int8 selection,
//     composing orthogonally with BatchPolicy (batches group by
//     executor, model, precision, and engine). An unset or all-FP32
//     policy replays the pre-quantization schedule bit-for-bit.
//   - Session.Engine: interpreted or planned execution for the whole
//     session. A planned session compiles each stage once per placement
//     — the one-time device.PlanCompileMS surcharge rides on the first
//     job, the plan is reused across every later frame and batch wave,
//     and a live re-placement recompiles on the new device. The zero
//     value (Interpreted) replays the pre-plan schedule bit-for-bit.
//   - Placement helpers (pipeline.go, stages.go): EdgePlacement and
//     HybridPlacement produce the StageID-keyed maps VIPGraph and
//     TimingVIPGraph assemble the classic three-stage graph from.
//
// Analytics are real (rendered pixels in, alerts out); per-frame timing
// is simulated with the device latency model (plus network round trips
// for off-edge stages). See ARCHITECTURE.md for the package map.
package pipeline
