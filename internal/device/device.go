package device

import "fmt"

// Arch is a GPU micro-architecture generation.
type Arch int

// Architectures of the benchmark devices.
const (
	Volta Arch = iota
	Ampere
)

// String returns the architecture name.
func (a Arch) String() string {
	if a == Volta {
		return "Volta"
	}
	return "Ampere"
}

// ID names one benchmark device.
type ID int

// Benchmark devices (Table 3 plus the workstation).
const (
	OrinAGX ID = iota
	XavierNX
	OrinNano
	RTX4090
)

// String returns the short device name used in figures ("o-agx", "nx",
// "o-nano" in the paper's §4.2.3).
func (id ID) String() string {
	switch id {
	case OrinAGX:
		return "o-agx"
	case XavierNX:
		return "nx"
	case OrinNano:
		return "o-nano"
	case RTX4090:
		return "rtx4090"
	default:
		return fmt.Sprintf("device(%d)", int(id))
	}
}

// EdgeIDs lists the three Jetson devices in Table 3 column order.
var EdgeIDs = []ID{OrinAGX, XavierNX, OrinNano}

// AllIDs lists every device.
var AllIDs = []ID{OrinAGX, XavierNX, OrinNano, RTX4090}

// Device is the full specification of one platform, mirroring Table 3.
type Device struct {
	ID          ID
	Name        string
	Arch        Arch
	CUDACores   int
	TensorCores int
	RAMGB       int
	Jetpack     string
	CUDAVersion string
	PeakPowerW  float64
	FormFactor  string // mm
	WeightG     float64
	PriceUSD    float64

	ClockGHz float64 // sustained GPU clock
	MemBWGBs float64 // memory bandwidth

	// Calibration constants for the latency model (see latency.go).
	// SustainedEff is the fraction of peak FP32 throughput a batch-1
	// PyTorch eager workload sustains; LaunchMS is the fixed per-frame
	// dispatch overhead. BatchEffCap is the efficiency ceiling batched
	// inference approaches as concurrent samples fill the SMs: large
	// GPUs that idle most of their cores at batch 1 (low SustainedEff)
	// have the most headroom, small edge GPUs that already saturate
	// have little. Int8Gain is the effective-throughput multiplier of
	// INT8 post-training-quantized inference over the fp32 baseline:
	// Jetsons route int8 through the tensor cores that carry most of
	// their rated TOPS, while the workstation GPU reaches int8 via
	// DP4A-class instructions at a smaller multiple. PlanGain is the
	// compute multiplier of compiled-plan execution (see Engine): fused
	// conv epilogues and arena reuse cut memory sweeps, which pays most
	// on the bandwidth-starved Jetsons and least on the workstation —
	// the launch-overhead collapse is modelled separately by
	// LaunchEngineMS.
	SustainedEff float64
	LaunchMS     float64
	BatchEffCap  float64
	Int8Gain     float64
	PlanGain     float64
}

// Registry returns the specification of a device.
func Registry(id ID) Device {
	switch id {
	case OrinAGX:
		return Device{
			ID: id, Name: "Jetson Orin AGX", Arch: Ampere,
			CUDACores: 2048, TensorCores: 64, RAMGB: 32,
			Jetpack: "6.1", CUDAVersion: "12.6", PeakPowerW: 60,
			FormFactor: "110x110x72", WeightG: 872.5, PriceUSD: 2370,
			ClockGHz: 1.30, MemBWGBs: 204.8,
			// Large GPU, batch-1 eager execution: most SMs idle.
			SustainedEff: 0.105, LaunchMS: 12, BatchEffCap: 0.42,
			// 64 Ampere tensor cores: INT8 is the headline TOPS figure.
			Int8Gain: 2.9,
			PlanGain: 1.15,
		}
	case XavierNX:
		return Device{
			ID: id, Name: "Jetson Xavier NX", Arch: Volta,
			CUDACores: 384, TensorCores: 48, RAMGB: 8,
			Jetpack: "5.0.2", CUDAVersion: "11.4", PeakPowerW: 15,
			FormFactor: "103x90x35", WeightG: 174, PriceUSD: 460,
			ClockGHz: 1.10, MemBWGBs: 59.7,
			// Small GPU saturates better, but Volta lacks Ampere's
			// scheduling improvements.
			SustainedEff: 0.31, LaunchMS: 18, BatchEffCap: 0.48,
			// Volta tensor cores lack Ampere's int8 sparsity paths.
			Int8Gain: 2.4,
			// 59.7 GB/s memory: eliminating the separate BN + activation
			// sweeps pays the most here.
			PlanGain: 1.18,
		}
	case OrinNano:
		return Device{
			ID: id, Name: "Jetson Orin Nano", Arch: Ampere,
			CUDACores: 1024, TensorCores: 32, RAMGB: 8,
			Jetpack: "5.1.1", CUDAVersion: "11.4", PeakPowerW: 15,
			FormFactor: "100x79x21", WeightG: 176, PriceUSD: 630,
			ClockGHz: 0.625, MemBWGBs: 68,
			SustainedEff: 0.335, LaunchMS: 15, BatchEffCap: 0.50,
			Int8Gain: 2.7,
			PlanGain: 1.16,
		}
	case RTX4090:
		return Device{
			// The paper describes the workstation GPU as Ampere-class
			// with 16,384 CUDA cores and 512 tensor cores; we follow its
			// Table/§4.1 description.
			ID: id, Name: "RTX 4090 workstation", Arch: Ampere,
			CUDACores: 16384, TensorCores: 512, RAMGB: 24,
			Jetpack: "-", CUDAVersion: "12.x", PeakPowerW: 450,
			FormFactor: "workstation", WeightG: 0, PriceUSD: 1599,
			ClockGHz: 2.52, MemBWGBs: 1008,
			SustainedEff: 0.195, LaunchMS: 1.5, BatchEffCap: 0.62,
			// DP4A-class int8: solid but not the Jetson-style 3x headline.
			Int8Gain: 1.7,
			// 1 TB/s of bandwidth: epilogue fusion barely registers.
			PlanGain: 1.06,
		}
	default:
		panic(fmt.Sprintf("device: unknown id %d", int(id)))
	}
}

// PeakGFLOPS returns the theoretical FP32 peak (2 FLOPs per core-cycle).
func (d Device) PeakGFLOPS() float64 {
	return float64(d.CUDACores) * d.ClockGHz * 2
}

// IsEdge reports whether the device is a Jetson edge accelerator.
func (d Device) IsEdge() bool { return d.ID != RTX4090 }
