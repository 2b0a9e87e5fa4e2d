// Package nn is a pure-Go neural-network inference engine: the layers and
// composite blocks of the YOLOv8/YOLOv11 families (Conv-BN-SiLU, C2f,
// C3k2, SPPF, C2PSA, detect head with DFL), plus ResNet-18 blocks for the
// trt_pose and Monodepth2 substrates.
//
// The engine serves three roles in the reproduction:
//   - Parameter and model-size accounting for Table 2 of the paper.
//   - FLOP accounting that feeds the device latency model (Figs. 5-6).
//   - Real forward passes, used by the repository's testing.B benchmarks
//     to measure genuine CPU inference cost.
//
// Execution is compiled, not interpreted: Compile lowers a Network once
// per input shape into a Plan — a topologically ordered list of fused
// primitive ops (conv+BN+activation with the epilogue applied inside
// the GEMM loop, residual adds, pooling, attention cores, detect
// assembly) over virtual values — runs activation-lifetime analysis,
// and assigns every intermediate to a preallocated arena slot
// (size-classed with tensor.Pool's power-of-two math). One
// Plan.Execute(xs, ExecOpts{Batch, Precision}) call subsumes what used
// to be four separate code paths: single-frame, batched, fp32, and
// int8, and every conv in them has one lowering — the packed
// implicit-im2col GEMM, per group and sample (a batch of small int8
// planes as one GEMM). In steady state Execute performs zero heap
// allocations per frame.
//
// Network.Forward, ForwardBatch, ForwardQuant, and ForwardBatchQuant
// are thin wrappers over the cached plan. The original node-walking
// interpreter survives as ForwardInterp/ForwardQuantInterp — the
// reference the plan parity suite pins against (bit-exact for fp32,
// bit-exact against the interpreted int8 path for int8) and the pass
// Calibrate observes activations on.
//
// The package also carries the post-training-quantization recipe:
// Calibrate records per-conv activation ranges, Quantize snapshots
// symmetric per-channel int8 weights (range-sensitive tails — detect
// heads, attention, sigmoid feeders — stay fp32), and Plan.Execute at
// INT8 precision routes quantized convs through the fused int8 kernels
// with tested drift bounds against fp32.
//
// Weights are deterministically initialised (He-style) from a seed; no
// training happens in this package.
package nn
