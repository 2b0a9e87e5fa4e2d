package device

import (
	"math"

	"ocularone/internal/models"
	"ocularone/internal/rng"
)

// utilization returns the fraction of a device's sustained throughput a
// model achieves. Dense single-stream convolutional stacks (YOLO) define
// 1.0; decoder-heavy architectures spend much of their time in
// memory-bound upsampling and skip-connection traffic, and sustain only
// a fraction — less on Volta, whose memory subsystem (59.7 GB/s on
// Xavier NX) is the bottleneck.
func utilization(id models.ID, d Device) float64 {
	info := models.Catalog(id)
	switch info.Category {
	case "Pose Detection":
		// 224×224 input: activations fit on-chip, only the decoder's
		// upsampling is memory-bound.
		return 0.55
	case "Depth Estimation":
		base := 0.35
		if d.Arch == Volta {
			// 640×192 skip connections stream through Xavier NX's
			// 59.7 GB/s memory; Volta takes the full penalty.
			base *= 0.70
		}
		return base
	default:
		return 1.0
	}
}

// PredictMS returns the modelled per-frame inference latency in
// milliseconds for a model on a device at the given precision and
// engine, served as a batch of one:
//
//	t = launch(eng) + FLOPs / (sustained × gain(prec) × planGain(eng) × utilisation) + weightTraffic / BW
//
// The weight-traffic term streams the model's deployment weights once
// per frame (batch-1 inference cannot amortise them) — fp16 bytes for
// FP32 execution, one byte per parameter for INT8 — which is what
// separates x-large models on the bandwidth-starved Xavier NX. FP32 has
// gain 1 and reproduces the calibrated baseline bit-for-bit; INT8
// applies the device's Int8Gain throughput cap, so the Jetsons (whose
// rated TOPS are mostly int8 tensor-core figures) gain the most. The
// Planned engine pays the captured-graph launch residue instead of the
// full per-frame dispatch and gains the device's plan fusion multiple
// on the compute term (weight traffic is engine-independent — the
// weights stream either way).
func PredictMS(m models.ID, dev ID, prec Precision, eng Engine) float64 {
	return PredictBatchMSEng(m, dev, 1, prec, eng)
}

// BatchEff returns the sustained-efficiency fraction a batch of n
// concurrent samples achieves on the device:
//
//	eff(n) = n·eff1·cap / (cap + (n-1)·eff1)
//
// Batch 1 is the calibrated eager baseline; each marginal frame runs at
// the BatchEffCap ceiling, so efficiency saturates toward cap while
// total batch service stays monotone in n (a bigger batch can never
// finish sooner than a smaller one) and per-frame latency strictly
// improves — the two properties real batched serving exhibits.
func (d Device) BatchEff(n int) float64 {
	if n <= 1 {
		return d.SustainedEff
	}
	eff1, cap := d.SustainedEff, d.BatchEffCap
	return float64(n) * eff1 * cap / (cap + float64(n-1)*eff1)
}

// PredictBatchMSEng returns the modelled service time for one batched
// inference of n frames (n < 1 counts as 1) at the given precision and
// engine:
//
//	t = launch(eng) + n × FLOPs / (peak × batchEff(n) × gain(prec) × planGain(eng) × utilisation) + weightTraffic / BW
//
// One launch and one pass over the weights cover the whole batch — the
// two overheads batch-1 inference pays per frame — while the compute
// term scales with n at the improved batched efficiency. The precision
// and plan gains compose multiplicatively with batching: they are
// independent levers (int8 raises the per-SM rate, a plan cuts launch
// and epilogue traffic, batching raises occupancy). At n = 1 it is
// PredictMS, since peak × batchEff(1) is the sustained throughput.
func PredictBatchMSEng(m models.ID, dev ID, n int, prec Precision, eng Engine) float64 {
	if n < 1 {
		n = 1
	}
	d := Registry(dev)
	stats := models.ComputeStats(m)
	sustained := d.PeakGFLOPS() * d.BatchEff(n)
	computeMS := float64(n) * stats.GFLOPs / (sustained * d.Gain(prec) * d.EngineGain(eng) * utilization(m, d)) * 1e3
	weightMS := float64(stats.Params*weightBytes(prec)) / (d.MemBWGBs * 1e9) * 1e3
	return d.LaunchEngineMS(eng) + computeMS + weightMS
}

// PredictBatchMS is PredictBatchMSEng on the interpreter; the
// repository benchmark's device probe calls it by this name.
func PredictBatchMS(m models.ID, dev ID, n int, prec Precision) float64 {
	return PredictBatchMSEng(m, dev, n, prec, Interpreted)
}

// BatchFPS returns the modelled per-frame throughput when frames are
// served in batches of n at the given precision and engine.
func BatchFPS(m models.ID, dev ID, n int, prec Precision, eng Engine) float64 {
	if n < 1 {
		n = 1
	}
	return float64(n) * 1e3 / PredictBatchMSEng(m, dev, n, prec, eng)
}

// Sample draws n per-frame latency observations around the modelled
// value at the given precision and engine: log-normal execution jitter
// plus an occasional straggler frame (page faults, DVFS transitions),
// matching the spread of the paper's box plots. Deterministic for a
// given seed; the jitter stream depends only on the seed, so precision
// and engine sweeps stay paired.
func Sample(m models.ID, dev ID, prec Precision, eng Engine, n int, seed uint64) []float64 {
	base := PredictMS(m, dev, prec, eng)
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		v := base * math.Exp(r.NormRange(0, 0.06))
		if r.Bool(0.03) {
			v *= r.Range(1.3, 1.9) // straggler
		}
		out[i] = v
	}
	return out
}

// EnergyPerFrameJ estimates the energy one inference consumes: the
// device draws idle power plus a utilisation-proportional dynamic
// component for the duration of the frame. Shorter int8 or planned
// frames draw the same power profile for less time, so energy scales
// with the latency.
func EnergyPerFrameJ(m models.ID, dev ID, prec Precision, eng Engine) float64 {
	d := Registry(dev)
	sec := PredictMS(m, dev, prec, eng) / 1e3
	util := utilization(m, d)
	watts := d.PeakPowerW * (0.25 + 0.65*util)
	return watts * sec
}

// FPS returns the modelled sustained throughput in frames per second at
// the given precision and engine.
func FPS(m models.ID, dev ID, prec Precision, eng Engine) float64 {
	return 1e3 / PredictMS(m, dev, prec, eng)
}
