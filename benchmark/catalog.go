package main

// The catalog is the single list of workload and metric names. The
// BENCHMARK.json manifest is printed from it (-manifest), the golden
// test holds the committed manifest to it, and every result line is
// checked against it before it is printed.

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the manifest's run_seconds and the default of -seconds.
const runSeconds = 18

type workloadDef struct {
	Name  string
	Procs int // GOMAXPROCS the workload pins
	// Gated workloads are the ones BENCHMARK.json lists: the driver runs
	// them and holds their end-to-end metrics to the bounds. The others
	// run under this program's own suite mode only (README.md says why).
	Gated bool
	Why   string
	setup func(seed uint64) (*instance, error)
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

var workloads = []workloadDef{
	{"engine_fp32", 1, true, "tensor+nn do all the work: single-core zero-alloc fp32 plans of the three chained VIP networks at 96x96; every kernel or plan change must move it", setupEngineFP32},
	{"engine_fp32_p2", 2, false, "same op at GOMAXPROCS=2, so parallel.For replaces the serial twins; a gain here must not cost engine_fp32, and the reverse", setupEngineFP32},
	{"engine_int8_b4", 1, true, "same networks quantised, batch 4: quantising gather, int8 GEMM, requant epilogue, batch arenas; an fp32-only change predicts no move", setupEngineINT8},
	{"serve_plain", 1, false, "serve event core + device.Executor at 900 req/s with every optional layer off; no tensor work, so engine changes predict no move", setupServePlain},
	{"serve_layered", 1, true, "same traffic with chaos, adapt, temporal, retry and hedge on: every layer branch is taken; the difference from serve_plain is the layer tax", setupServeLayered},
	{"fleet_timing", 1, false, "pipeline wave scheduler, groupRunner and MicroBatcher with no pixels: 24 timing-only drones just under the shared-GPU knee", setupFleetTiming},
	{"vip_fleet", 1, true, "the paper's application end to end on real frames: render, vest detect+track, pose, depth, alerts; carries the accuracy half of the trade", setupVIPFleet},
}

// endToEnd is printed by every workload with -trace 0. Bounds were set
// from the seed-to-seed spreads recorded in README.md.
var endToEnd = []metricDef{
	{"op_ms_floor", "ms", lower, 0.25},          // wall time of one operation: per ring slot the sum of its parts' fastest replays, median over the slots
	{"cpu_ms_floor", "ms", lower, 0.25},         // process user+system CPU time of one operation, same estimator
	{"allocs_per_op", "count", lower, 0.12},     // runtime.MemStats.Mallocs delta over the timed ops / ops
	{"alloc_kb_per_op", "KB", lower, 0.25},      // runtime.MemStats.TotalAlloc delta over the timed ops / ops
	{"peak_rss_mb", "MB", lower, 0.10},          // VmHWM of the process after the timed ops
	{"setup_s", "s", lower, 0.25},               // user CPU time of the process from start to ready: build, calibrate, quantise, compile, train, reference outputs and their checks
	{"ok_share", "share", higher, 0.001},        // 1 - failed/attempted timed ops
	{"sim_goodput_per_s", "1/s", higher, 0.12},  // useful answers per simulated second of the modelled deployment
	{"sim_p99_ms", "ms", lower, 0.25},           // p99 simulated latency of the modelled deployment
	{"sim_served_share", "share", higher, 0.10}, // 1 - (shed + expired + dropped + skipped) / offered, in simulated work
}

// perLayer is printed by every workload with -trace 1; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// tensor: probes, 30 calls each, median, in the engine_* workloads.
	{"tensor.gemm_f32_512_ms", "ms", lower, 0},           // MatMulInto 512x512x512
	{"tensor.gemm_f32_512_gflops", "GFLOP/s", higher, 0}, // 2*512^3 / tensor.gemm_f32_512_ms
	{"tensor.gemm_f32_yolo_ms", "ms", lower, 0},          // MatMulInto [128,576]x[576,1600]
	{"tensor.gemm_int8_yolo_ms", "ms", lower, 0},         // MatMulInt8Into [128,576]x[576,1600]
	{"tensor.conv_f32_ms", "ms", lower, 0},               // Conv2D 64->128 3x3 on 64x40x40
	{"tensor.conv_int8_ms", "ms", lower, 0},              // Conv2DQ 64->128 3x3 on 64x40x40
	{"tensor.probe_allocs_per_call", "count", lower, 0},  // mallocs per probe call over all tensor probes
	// nn: one span per Plan.Execute, set-up timings, counts.
	{"nn.exec_ms.yolov8n", "ms", lower, 0},         // Plan.Execute span, floor estimator
	{"nn.exec_ms.bodypose", "ms", lower, 0},        // Plan.Execute span, floor estimator
	{"nn.exec_ms.monodepth2", "ms", lower, 0},      // Plan.Execute span, floor estimator
	{"nn.gflops.yolov8n", "GFLOP/s", higher, 0},    // Network.Cost FLOPs x batch / exec time
	{"nn.gflops.bodypose", "GFLOP/s", higher, 0},   // Network.Cost FLOPs x batch / exec time
	{"nn.gflops.monodepth2", "GFLOP/s", higher, 0}, // Network.Cost FLOPs x batch / exec time
	{"nn.compile_ms", "ms", lower, 0},              // PlanFor over the three networks at set-up
	{"nn.bind_ms", "ms", lower, 0},                 // first Execute minus nn.exec_ms, summed over the networks
	{"nn.plan_ops", "count", lower, 0},             // Plan.Ops summed over the networks
	{"nn.arena_floats", "count", lower, 0},         // Plan.Slots floats per sample x batch, summed
	{"nn.allocs_per_exec", "count", lower, 0},      // mallocs per Plan.Execute over the untraced ops
	{"nn.wrapper_ms.yolov8n", "ms", lower, 0},      // Network.Forward / ForwardBatchQuant minus Plan.Execute
	{"nn.interp_ms.yolov8n", "ms", lower, 0},       // ForwardInterp / ForwardQuantInterp reference, per frame
	{"nn.int8_drift_max", "abs", lower, 0},         // largest |int8 plan - fp32 interpreter| output element
	// models: set-up timings in engine_*.
	{"models.build_ms.yolov8n", "ms", lower, 0},     // models.Build / BuildQuantized
	{"models.build_ms.bodypose", "ms", lower, 0},    // models.Build / BuildQuantized
	{"models.build_ms.monodepth2", "ms", lower, 0},  // models.Build / BuildQuantized
	{"models.quantize_ms", "ms", lower, 0},          // BuildQuantized minus Build, yolov8n
	{"models.shared_hit_share", "share", higher, 0}, // SharedStats hits / acquisitions over two AcquireShared rounds of yolov8n
	// parallel
	{"parallel.for_overhead_us", "us", lower, 0},       // parallel.For(64, no-op), median of 1000
	{"parallel.cpu_per_wall", "ratio", higher, 0},      // process CPU / wall over the untraced ops: cores kept busy
	{"parallel.engine_p2_ms", "ms", lower, 0},          // engine_fp32 only: op floor of a stretch at GOMAXPROCS=2 in the same process
	{"parallel.engine_p2_speedup", "ratio", higher, 0}, // engine_fp32 only: op_ms_floor at GOMAXPROCS=1 / parallel.engine_p2_ms
	// video, detect, pose, depth, track: spans from stage and source wrappers in vip_fleet.
	{"video.extract_ms_per_frame", "ms", lower, 0},   // FrameSource.Extract spans of an op / frames, floor estimator
	{"detect.analyze_ms_per_frame", "ms", lower, 0},  // detect stage Analyze spans of an op / frames, floor estimator
	{"pose.analyze_ms_per_frame", "ms", lower, 0},    // pose stage Analyze spans of an op / frames, floor estimator
	{"depth.analyze_ms_per_frame", "ms", lower, 0},   // depth stage Analyze spans of an op / frames, floor estimator
	{"detect.hit_share", "share", higher, 0},         // processed frames with VIPFound / processed frames
	{"pose.declined_share", "share", lower, 0},       // pose Analyze calls that declined the frame / calls
	{"pipeline.alerts_per_frame", "count", lower, 0}, // delivered alerts / processed frames
	// pipeline
	{"pipeline.fleet_run_self_us_per_frame", "us", lower, 0}, // Fleet.Run span minus the union of its children / offered frames
	{"pipeline.allocs_per_frame", "count", lower, 0},         // mallocs per offered frame over the untraced ops
	{"pipeline.sim_deadline_ok_share", "share", higher, 0},   // processed frames meeting the period / processed frames
	{"pipeline.sim_stage_skip_share", "share", lower, 0},     // StageSkips / (3 x offered frames)
	{"pipeline.sim_dropped_share", "share", lower, 0},        // Dropped / offered frames
	{"pipeline.sim_e2e_p50_ms", "ms", lower, 0},              // median FrameStat.E2EMS
	{"pipeline.plan_compiles", "count", lower, 0},            // StreamResult.PlanCompiles summed over the ring
	// device: probes in serve_plain and fleet_timing.
	{"device.executor_run_ns_per_job", "ns", lower, 0},   // Executor.Run(PeriodicJobs(V8Medium, 10000, 100)) / jobs
	{"device.run_batch_ns_per_job", "ns", lower, 0},      // RunBatchInto in groups of 8 / jobs
	{"device.microbatcher_ns_per_offer", "ns", lower, 0}, // MicroBatcher.Offer, MaxBatch 8
	{"device.predict_ns", "ns", lower, 0},                // PredictBatchMS call
	// serve: spans, probes, Result counts.
	{"serve.new_server_us", "us", lower, 0},           // NewServer span, floor estimator
	{"serve.advance_ns_per_event", "ns", lower, 0},    // AdvanceTo span / Result.Events
	{"serve.drain_us", "us", lower, 0},                // Drain span, floor estimator
	{"serve.result_us", "us", lower, 0},               // Result+CheckInvariants+Fingerprint span, floor estimator
	{"serve.host_ns_per_req", "ns", lower, 0},         // op wall / offered requests, floor estimator
	{"serve.allocs_per_req", "count", lower, 0},       // mallocs per offered request over the untraced ops
	{"serve.calqueue_ns_per_op", "ns", lower, 0},      // CalQueue hold pattern, 1e6 push+pop
	{"serve.traffic_ns_per_arrival", "ns", lower, 0},  // Traffic.ArrivalTrace / arrivals
	{"serve.sim_events_per_req", "count", lower, 0},   // Result.Events / Offered
	{"serve.sim_mean_batch", "count", higher, 0},      // Result.MeanBatch, mean over seeds
	{"serve.sim_utilization", "share", higher, 0},     // Result.Utilization, mean over seeds
	{"serve.sim_expired_share", "share", lower, 0},    // Expired / Offered
	{"serve.sim_p50_ms", "ms", lower, 0},              // LatencyQuantileMS(0.5), mean over seeds
	{"serve.sim_p99_ms.interactive", "ms", lower, 0},  // ClassStats.P99MS, mean over seeds
	{"serve.sim_p99_ms.standard", "ms", lower, 0},     // ClassStats.P99MS, mean over seeds
	{"serve.sim_p99_ms.background", "ms", lower, 0},   // ClassStats.P99MS, mean over seeds
	{"serve.sim_tenant_fairness", "ratio", higher, 0}, // min / max of TenantCompleted, mean over seeds
	// chaos, temporal, adaptive, integrity: Result counts on serve_layered.
	{"chaos.sim_fault_episodes", "count", lower, 0},       // Result.FaultEpisodes summed over seeds
	{"chaos.sim_recovered_share", "share", higher, 0},     // Recovered / FaultEpisodes
	{"chaos.sim_mean_recovery_ms", "ms", lower, 0},        // MeanRecoveryMS, mean over seeds
	{"chaos.sim_lost_share", "share", lower, 0},           // Lost / Offered
	{"temporal.sim_bridged_share", "share", lower, 0},     // BridgedReqs / Completed
	{"temporal.sim_roi_share", "share", lower, 0},         // ROIReqs / Completed
	{"temporal.sim_early_exit_share", "share", lower, 0},  // EarlyExitReqs / Completed
	{"temporal.sim_stale_p50_ms", "ms", lower, 0},         // StaleP50MS, mean over seeds
	{"temporal.sim_forced_refreshes", "count", lower, 0},  // ForcedRefreshes summed over seeds
	{"temporal.select_ns", "ns", lower, 0},                // temporal.Policy.Select call
	{"serve.sim_retries_per_kreq", "count", lower, 0},     // 1000 x Retries / Admitted
	{"serve.sim_hedge_win_share", "share", higher, 0},     // HedgeWins / Hedges
	{"serve.sim_corrupt_served_share", "share", lower, 0}, // CorruptServed / Completed
	{"serve.sim_detect_coverage", "share", higher, 0},     // CorruptDetected / SDCInjected
	{"serve.sim_degraded_share", "share", lower, 0},       // DegradedReqs / Completed
	{"adaptive.sim_switches", "count", lower, 0},          // Adaptations + RungSwitches summed over seeds
	{"serve.layer_tax_ns_per_req", "ns", lower, 0},        // serve_layered minus serve_plain host ns per request, same seeds, same process
	// harness: how far to trust the run.
	{"harness.trace_overhead_share", "share", lower, 0},     // traced op_ms_floor / untraced - 1, same process
	{"harness.trace_unattributed_share", "share", lower, 0}, // largest share of an op span not covered by its child spans
	{"harness.op_ms_p50", "ms", lower, 0},                   // median wall time over the untraced timed ops, interference included
	{"harness.op_ms_tail", "ms", lower, 0},                  // highest percentile of op wall time with at least 10 samples beyond it
	{"harness.op_tail_pct", "pct", higher, 0},               // which percentile harness.op_ms_tail is
	{"harness.op_count", "count", higher, 0},                // untraced timed ops
	{"harness.segment_spread", "ratio", lower, 0},           // max / min of the five segment medians
	{"harness.steal_share", "share", lower, 0},              // /proc/stat steal / total jiffies over the timed ops
}

// gated is the workloads BENCHMARK.json lists.
func gated() []workloadDef {
	var g []workloadDef
	for _, w := range workloads {
		if w.Gated {
			g = append(g, w)
		}
	}
	return g
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
