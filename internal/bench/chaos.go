package bench

import (
	"fmt"
	"io"

	"ocularone/internal/chaos"
	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/models"
	"ocularone/internal/scene"
)

// ChaosRegimes returns the ext-chaos sweep: the fault-free baseline
// plus the three single-fault regimes of internal/chaos with the
// precision controller live. Each is paired with the scene condition
// the study degrades the detection corpus with — dropouts strike while
// the VIP is occluded, thermal storms at night, link degradation in
// rain — so the study reports the compound story: what the system
// serves *and* what the detector still sees.
func ChaosRegimes(seed uint64) []KneeRegime {
	return []KneeRegime{
		{Name: "baseline", Chaos: chaos.Baseline(seed), Condition: scene.Clear},
		{Name: "dropout", Chaos: chaos.DropoutRegime(seed), Adapt: true, Condition: scene.Occlusion},
		{Name: "thermal-storm", Chaos: chaos.StormRegime(seed), Adapt: true, Condition: scene.Night},
		{Name: "link-degraded", Chaos: chaos.LinkRegime(seed), Adapt: true, Condition: scene.Rain},
	}
}

// ChaosStudy is the full ext-chaos result: the serving curve plus the
// detection accuracy under each paired scene condition.
type ChaosStudy struct {
	Points []KneePoint
	// AccPct is one detector's accuracy per scene condition on the same
	// test items; a regime's delta against AccPct[scene.Clear] is the
	// pure cost of its environmental degradation.
	AccPct map[scene.Condition]float64
	// TrainN/TestN are the clean-split sizes behind the detection half.
	TrainN, TestN int
}

// RunChaosStudy runs the full study at the suite's scale: the serving
// curve at horizon 10 s, then one nano-tier detector trained on the
// clean stratified split and evaluated on the diverse test split under
// each regime's paired scene condition.
func RunChaosStudy(sc Scale) *ChaosStudy {
	st := &ChaosStudy{
		Points: RunKnee(ChaosRegimes(sc.Seed), sc.Seed, 10_000),
		AccPct: map[scene.Condition]float64{},
	}
	ds := dataset.Build(dataset.Config{Scale: sc.Data, W: sc.W, H: sc.H, Seed: sc.Seed})
	sp := ds.StratifiedSplit(sc.TrainFrac)
	test := sp.Test.Diverse()
	st.TrainN, st.TestN = sp.Train.Len(), test.Len()
	det := detect.TrainDataset(detect.TierFor(models.YOLOv8, models.Nano), sp.Train)
	for _, p := range st.Points {
		if _, ok := st.AccPct[p.Condition]; !ok {
			st.AccPct[p.Condition] = detect.EvaluateDataset(det, test.WithCondition(p.Condition)).Accuracy()
		}
	}
	return st
}

// WriteChaosCurve renders the serving half of the chaos study.
func WriteChaosCurve(w io.Writer, pts []KneePoint) {
	divider(w, "Extension: chaos injection at the capacity knee (goodput / recovery per fault regime)")
	fmt.Fprintf(w, "%-14s %-10s %11s %9s %10s %6s %6s %5s %5s %9s %9s %6s %7s\n",
		"regime", "condition", "goodput/s", "p50", "p99", "shed%", "lost%",
		"epis", "recov", "mean-rec", "max-rec", "adapt", "degr")
	for _, p := range pts {
		fmt.Fprintf(w, "%-14s %-10s %11.0f %8.1fms %9.1fms %5.1f%% %5.1f%% %5d %5d %8.0fms %8.0fms %6d %7d\n",
			p.Name, p.Condition, p.GoodputPerSec, p.P50MS, p.P99MS,
			pct(p.Shed, p.Offered), pct(p.Lost, p.Offered), p.FaultEpisodes, p.Recovered,
			p.MeanRecoveryMS, p.MaxRecoveryMS, p.Adaptations, p.DegradedReqs)
	}
}

// WriteChaosStudy renders the full study including detection deltas.
func WriteChaosStudy(w io.Writer, st *ChaosStudy) {
	WriteChaosCurve(w, st.Points)
	fmt.Fprintf(w, "detection under paired conditions (nano tier, train n=%d, test n=%d):\n",
		st.TrainN, st.TestN)
	for _, p := range st.Points {
		acc := st.AccPct[p.Condition]
		fmt.Fprintf(w, "  %-14s %-10s acc %5.1f%%  delta %+5.1f%%\n",
			p.Name, p.Condition, acc, acc-st.AccPct[scene.Clear])
	}
}
