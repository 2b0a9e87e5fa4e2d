package bench

import (
	"fmt"
	"io"

	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/device"
	"ocularone/internal/models"
)

// AblationResult compares a full configuration against one with a single
// design choice removed (ARCHITECTURE.md §Ablations).
type AblationResult struct {
	Name           string
	Metric         string
	Full, Ablated  float64
	HigherIsBetter bool
}

// Regression reports how much the ablated variant loses (positive =
// the design choice helps).
func (a AblationResult) Regression() float64 {
	if a.HigherIsBetter {
		return a.Full - a.Ablated
	}
	return a.Ablated - a.Full
}

// RunAblationContrastNorm disables local contrast normalisation on the
// medium tier and measures adversarial accuracy (design choice 1: the
// robustness stages are what carry low-light performance).
func RunAblationContrastNorm(sc Scale) AblationResult {
	ds := dataset.Build(dataset.Config{Scale: sc.Data, W: sc.W, H: sc.H, Seed: sc.Seed})
	sp := ds.StratifiedSplit(sc.TrainFrac)
	adv := sp.Test.Adversarial()

	tier := detect.TierFor(models.YOLOv8, models.Medium)
	full := detect.TrainDataset(tier, sp.Train)
	tierOff := tier
	tierOff.ContrastNorm = false
	ablated := detect.TrainDataset(tierOff, sp.Train)

	return AblationResult{
		Name:           "contrast-normalisation (v8m)",
		Metric:         "adversarial accuracy %",
		Full:           detect.EvaluateDataset(full, adv).Accuracy(),
		Ablated:        detect.EvaluateDataset(ablated, adv).Accuracy(),
		HigherIsBetter: true,
	}
}

// RunAblationStripeCheck disables reflective-stripe verification on the
// x-large tier and measures spurious boxes on the adversarial set
// (design choice 4: the zero-false-positive regime).
func RunAblationStripeCheck(sc Scale) AblationResult {
	ds := dataset.Build(dataset.Config{Scale: sc.Data, W: sc.W, H: sc.H, Seed: sc.Seed})
	sp := ds.StratifiedSplit(sc.TrainFrac)
	adv := sp.Test.Adversarial()

	tier := detect.TierFor(models.YOLOv11, models.XLarge)
	full := detect.TrainDataset(tier, sp.Train)
	tierOff := tier
	tierOff.StripeCheck = false
	ablated := detect.TrainDataset(tierOff, sp.Train)

	return AblationResult{
		Name:           "stripe verification (v11x)",
		Metric:         "spurious boxes on adversarial set",
		Full:           float64(detect.EvaluateDataset(full, adv).SpuriousBoxes),
		Ablated:        float64(detect.EvaluateDataset(ablated, adv).SpuriousBoxes),
		HigherIsBetter: false,
	}
}

// RunAblationMemoryTerm removes the weight-streaming term from the
// latency model and reports the worst relative change across
// model×device pairs (design choice 2: the roofline needs its memory
// term to separate x-large models on bandwidth-starved devices).
func RunAblationMemoryTerm() AblationResult {
	worstShift := 0.0
	for _, m := range models.AllIDs {
		for _, d := range device.AllIDs {
			full := device.PredictMS(m, d, device.FP32, device.Interpreted)
			dev := device.Registry(d)
			st := models.ComputeStats(m)
			weightMS := float64(st.Params*2) / (dev.MemBWGBs * 1e9) * 1e3
			ablated := full - weightMS
			shift := (full - ablated) / full * 100
			if shift > worstShift {
				worstShift = shift
			}
		}
	}
	return AblationResult{
		Name:           "weight-streaming term (roofline)",
		Metric:         "max latency shift % when removed",
		Full:           worstShift,
		Ablated:        0,
		HigherIsBetter: true,
	}
}

// WriteAblations renders a set of ablation results.
func WriteAblations(w io.Writer, results []AblationResult) {
	divider(w, "Ablations (design choices, ARCHITECTURE.md)")
	for _, a := range results {
		fmt.Fprintf(w, "%-38s %-36s full=%8.2f ablated=%8.2f regression=%8.2f\n",
			a.Name, a.Metric, a.Full, a.Ablated, a.Regression())
	}
}
