package device

import (
	"fmt"

	"ocularone/internal/nn"
)

// Precision selects the numeric format a simulated inference executes
// in: the engine's own nn.Precision, so a job's precision is the one
// its plan executes at. The zero value is FP32, so every existing path
// that never mentions precision keeps its exact pre-quantization
// behaviour.
type Precision = nn.Precision

// Supported inference precisions.
const (
	// FP32 is the eager fp32 baseline every calibration constant was
	// fitted against.
	FP32 = nn.FP32
	// INT8 is post-training-quantized inference: int8 weights and
	// activations with int32 accumulation (see internal/nn Quantize).
	INT8 = nn.INT8
)

// ParsePrecision resolves a flag value ("fp32" or "int8").
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp32", "":
		return FP32, nil
	case "int8":
		return INT8, nil
	default:
		return FP32, fmt.Errorf("unknown precision %q (want fp32 or int8)", s)
	}
}

// weightBytes returns the bytes one weight parameter streams per
// inference at precision p: fp16 deployment weights for FP32 execution
// (the TensorRT default the paper's numbers reflect), one byte for
// INT8.
func weightBytes(p Precision) int64 {
	if p == INT8 {
		return 1
	}
	return 2
}

// Gain returns the device's effective-throughput multiplier at the
// given precision: 1 for FP32 (the calibrated baseline), Int8Gain for
// INT8. Every Jetson in Table 3 owes most of its rated TOPS to INT8
// tensor-core paths, so the edge devices gain the most; the RTX 4090
// runs int8 through DP4A-class instructions at a more modest multiple.
func (d Device) Gain(p Precision) float64 {
	if p == INT8 {
		return d.Int8Gain
	}
	return 1
}
