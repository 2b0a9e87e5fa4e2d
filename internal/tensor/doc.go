// Package tensor implements dense float32 tensors and the numerical
// kernels used by the neural-network inference engine: a packed,
// register-blocked GEMM core with implicit-im2col convolution
// (single-frame and batched), pooling, and elementwise activations.
//
// The design goal is a small, allocation-conscious engine fast enough
// to run scaled-down YOLO-style networks on CPU for the repository's
// benchmarks, not a general autograd framework. Every kernel is one
// serial loop on the calling goroutine, whatever GOMAXPROCS is: one
// inference stream per core, as the paper times them, so the zero-alloc
// and bit-identity contracts hold at every width. Concurrent callers are
// safe as long as each owns its tensors; the scratch pools they share
// are synchronised.
//
// The matrix-multiply core (pack.go, packq.go, the assembly kernels)
// is a BLIS-style packed GEMM: the left operand packs into MR-row
// micro-panels (once at plan-compile time for conv weights —
// PackWeights/PackWeightsQ), the right operand packs one KC×NR panel
// at a time into L1-resident 64-byte-aligned scratch, and a
// register-blocked micro-kernel streams the panels. The kernel pair
// and its blocking geometry are a dispatch tier, selected at init by
// CPUID feature detection (dispatch.go) and forceable via
// SetKernelTier or the OCULARONE_KERNEL_TIER environment variable:
// pure-Go 4×8 tiles (generic, every GOARCH), SSE2 assembly 4×8 tiles
// (sse2, the amd64 baseline), an AVX2/FMA 4×24 fp32 tile with a 4×16
// VPMADDWD int8 tile (avx2fma), and an AVX-512 4×48 fp32 tile with a
// 4×32 VPDPBUSD int8 tile (avx512vnni: AVX-512 F, BW, DQ, VL and VNNI —
// DQ and VL for the scene renderer's kernels, which this tier also
// binds); the FMA tiers also bind a
// narrow fp32 tile for GEMMs of at most 36 columns — 8×12 in YMM,
// 16×12 in ZMM — which prefetches the weight panels it streams. The
// two FMA tiers' fp32 results are the same bits. The int8 operand
// layout is the tier's — int16 weight pairs on the first three, int8
// weight quads against offset-byte activations on avx512vnni — so a
// PackedQ is good for the
// tiers of its k-group and int8 weights are repacked after a switch
// across that line; PackedA is good for all. KernelTier/KernelTierDesc
// report the selection for benchmark headers. For convolutions the panel pack IS im2col
// (ConvPackedInto/ConvPackedQBatchInto gather receptive fields run by
// run from a copy of the group's input planes made once per call with
// the conv's zero border, so the gather reads padding instead of
// testing for it — fp32 from a float copy, or the input itself when
// the conv reads no padding; the int8 path from a copy
// quantized on the way and stored channel-group-interleaved, the
// k-group's channels of a pixel adjacent, with the GEMM depth ordered
// (c/qK, ky, kx, c%qK) to match, so a sliver's k-group is a run of the
// copy), so the k×n cols matrix never materialises,
// and an int8 batch of small planes is one GEMM that streams the
// weights once. That is the one conv lowering: every group of every
// conv takes it, whatever its shape (Conv2D/Conv2DQ pack the weights
// per call, the plan once), and ragged rows, depths and planes ride
// zero-padded panels. The materialised im2col + reference GEMM
// (Im2ColInto/Im2ColQInto, MatMulRefEpilogueInto/
// MatMulInt8RefEpilogueInto) is not a route: it is what an
// ABFT-checked conv re-executes through after a checksum mismatch —
// deliberately a different code path from the one that failed — and
// the oracle of the conv tests (conv2DRef/conv2DQRef). Only the plain
// matrix entry points, which pack A on every call, still keep small
// shapes on the reference loop (usePackedGEMM). The reference kernels
// are also the golden parity baseline: int8 and non-FMA fp32 paths
// accumulate each output element with the reference's exact
// ascending-k multiply-then-add chain and are bit-identical to it,
// while the FMA tiers fuse each multiply-add rounding and are
// drift-bounded instead (KernelTierFMA gates the comparison; pinned
// per tier in pack_test.go, tier_test.go and everyshape_test.go at
// adversarial shapes).
//
// Three further mechanisms serve the inference hot path:
//
//   - Fused epilogues (fused.go): the conv drivers finish each GEMM
//     stripe with the folded BatchNorm affine (or conv bias) and the
//     activation (Epilogue) while it is cache-hot, eliminating the
//     separate full-tensor BN and activation sweeps. The float32 op
//     sequence replicates the unfused kernels exactly, so fused
//     results are bit-identical. The Into variants of pooling /
//     upsampling / concat / transpose write into caller-owned buffers
//     — the forms the plan executor (internal/nn Plan) binds against
//     its arena.
//   - Row kernels (rowops.go, rowops_amd64.s), five of them: every
//     per-element loop outside the GEMM — the epilogue's affine, bias,
//     ReLU, SiLU and sigmoid (on an int8 conv in the same pass as the
//     requantization of its accumulator tile), Tensor.Add and the
//     in-place activations, the running max of MaxPool2DInto, the
//     quantizing copy of an int8 conv's input and, under both conv
//     packs, the im2col gather of a B panel — has one Go form and, on
//     the AVX2 tiers, a vector form
//     that yields the same bits. The gather moves dwords (an fp32
//     element, or the channel quad of an int8 pixel) and computes
//     nothing, so its parity is == by construction. Affine, bias, ReLU,
//     add and max are single IEEE operations per lane. SiLU and sigmoid are
//     a definition: a float32 routine (logisticDenom) whose every
//     multiply and add rounds separately, executed without FMA by
//     both forms and compared on all 2³² inputs, within 2 units of
//     2⁻²³ of the math.Exp expressions it replaced. Activations are
//     therefore tier-independent: the FMA drift regime above covers
//     GEMM accumulation and nothing after it.
//   - Pool (and the package-level Scratch pool) recycles backing
//     slices by power-of-two class (SizeClass — the same math the plan
//     arena rounds its slots with) and guarantees 64-byte-aligned
//     starts, so packed-panel loads never split a cache line.
//     GetRaw/PutRaw hand out bare slices without Tensor headers for
//     the GEMM drivers' panel scratch; conv scratch, batched outputs,
//     and nn intermediates cycle through the same pool, so
//     steady-state inference allocates nothing even off the compiled
//     path.
//
// Beside the fp32 plane sits an INT8 quantized one: QTensor carries
// int8 data with per-channel scales, MatMulInt8Into routes large
// shapes through the packed int8 kernel (reference 4-row tiles
// retained for small ones) with int32 accumulation and a fused
// requantization epilogue, Conv2DQ lowers every quantized convolution
// through the implicit quantizing im2col, and ScratchB (a BytePool,
// same alignment guarantee) recycles the int8 scratch.
package tensor
