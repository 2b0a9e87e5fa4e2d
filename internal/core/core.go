package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ocularone/internal/bench"
	"ocularone/internal/dataset"
	"ocularone/internal/depth"
	"ocularone/internal/detect"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
	"ocularone/internal/pose"
	"ocularone/internal/scene"
)

// Suite runs Ocularone-Bench experiments.
type Suite struct {
	Scale bench.Scale
}

// New returns a suite at the given scale. Use bench.CIScale for a
// seconds-scale run and bench.FullScale for the paper-scale protocol.
func New(sc bench.Scale) *Suite {
	return &Suite{Scale: sc}
}

// Experiment is a named, runnable reproduction target.
type Experiment struct {
	Name string
	Desc string
	Run  func(s *Suite, w io.Writer) error
}

// experiments maps experiment IDs to runners. Keys match the paper's
// table/figure numbering.
var experiments = map[string]Experiment{
	"table1": {
		Name: "table1", Desc: "Dataset summary (Table 1)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteTable1(w, bench.Table1(s.Scale))
			return nil
		},
	},
	"table2": {
		Name: "table2", Desc: "DNN model specifications (Table 2)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteTable2(w, bench.Table2())
			return nil
		},
	},
	"table3": {
		Name: "table3", Desc: "Edge device specifications (Table 3)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteTable3(w, bench.Table3())
			return nil
		},
	},
	"fig1": {
		Name: "fig1", Desc: "Curation study: random vs curated training data (Fig. 1)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteFig1(w, bench.RunFig1(s.Scale))
			return nil
		},
	},
	"fig3": {
		Name: "fig3", Desc: "RT YOLO accuracy on diverse dataset (Fig. 3)",
		Run: func(s *Suite, w io.Writer) error {
			bench.RunAccuracyStudy(s.Scale).WriteFig3(w)
			return nil
		},
	},
	"fig4": {
		Name: "fig4", Desc: "RT YOLO accuracy on adversarial dataset (Fig. 4)",
		Run: func(s *Suite, w io.Writer) error {
			bench.RunAccuracyStudy(s.Scale).WriteFig4(w)
			return nil
		},
	},
	"fig3+4": {
		Name: "fig3+4", Desc: "Both accuracy figures from one training pass",
		Run: func(s *Suite, w io.Writer) error {
			st := bench.RunAccuracyStudy(s.Scale)
			st.WriteFig3(w)
			st.WriteFig4(w)
			return nil
		},
	},
	"fig5": {
		Name: "fig5", Desc: "Inference times on Jetson edge devices (Fig. 5)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteFig5(w, bench.RunFig5(s.Scale))
			return nil
		},
	},
	"fig6": {
		Name: "fig6", Desc: "Inference times on RTX 4090 workstation (Fig. 6)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteFig6(w, bench.RunFig6(s.Scale))
			return nil
		},
	},
	"ablations": {
		Name: "ablations", Desc: "Design-choice ablations (ARCHITECTURE.md §Ablations)",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteAblations(w, []bench.AblationResult{
				bench.RunAblationContrastNorm(s.Scale),
				bench.RunAblationStripeCheck(s.Scale),
				bench.RunAblationMemoryTerm(),
			})
			return nil
		},
	},
	"ext-adaptive": {
		Name: "ext-adaptive", Desc: "Future work: accuracy-aware adaptive edge-cloud deployment",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteAdaptiveStudy(w, bench.RunAdaptiveStudy(s.Scale.Seed))
			return nil
		},
	},
	"ext-batch": {
		Name: "ext-batch", Desc: "Extension: micro-batched serving of a saturated fleet on one workstation",
		Run: func(s *Suite, w io.Writer) error {
			rows, err := bench.RunBatchStudy(s.Scale.Seed)
			if err != nil {
				return err
			}
			bench.WriteBatchStudy(w, rows)
			return nil
		},
	},
	"ext-efficiency": {
		Name: "ext-efficiency", Desc: "Extension: throughput per dollar / per watt across devices",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteEfficiency(w, bench.RunEfficiency())
			return nil
		},
	},
	"ext-plan": {
		Name: "ext-plan", Desc: "Extension: compiled execution plans vs the interpreter (Jetson serving)",
		Run: func(s *Suite, w io.Writer) error {
			rows, err := bench.RunPlanStudy(s.Scale.Seed)
			if err != nil {
				return err
			}
			bench.WritePlanStudy(w, rows)
			return nil
		},
	},
	"ext-quant": {
		Name: "ext-quant", Desc: "Extension: INT8 quantized serving gain on Jetson-class devices",
		Run: func(s *Suite, w io.Writer) error {
			rows, err := bench.RunQuantStudy(s.Scale.Seed)
			if err != nil {
				return err
			}
			bench.WriteQuantStudy(w, rows)
			return nil
		},
	},
	"ext-fleet": {
		Name: "ext-fleet", Desc: "Extension: multi-drone fleet contention on a shared workstation",
		Run: func(s *Suite, w io.Writer) error {
			rows, err := bench.RunFleetStudy(s.Scale.Seed)
			if err != nil {
				return err
			}
			bench.WriteFleetStudy(w, rows)
			return nil
		},
	},
	"ext-serve": {
		Name: "ext-serve", Desc: "Extension: open-loop serving — admission control and SLO scheduling under offered load",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteServeStudy(w, bench.RunServeStudy(s.Scale.Seed))
			return nil
		},
	},
	"ext-chaos": {
		Name: "ext-chaos", Desc: "Extension: fault injection with managed recovery — goodput and detection quality per chaos regime",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteChaosStudy(w, bench.RunChaosStudy(s.Scale))
			return nil
		},
	},
	"ext-integrity": {
		Name: "ext-integrity", Desc: "Extension: end-to-end integrity — SDC detection coverage, retry/hedge overhead, goodput under corruption",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteIntegrityCurve(w, bench.RunKnee(bench.IntegrityRegimes(s.Scale.Seed), s.Scale.Seed, 10_000))
			return nil
		},
	},
	"ext-temporal": {
		Name: "ext-temporal", Desc: "Extension: temporal degradation ladder — bridged/ROI/early-exit goodput vs shed-only, drift vs full-frame tracking",
		Run: func(s *Suite, w io.Writer) error {
			bench.WriteTemporalStudy(w, bench.RunTemporalStudy(s.Scale))
			return nil
		},
	},
}

// ExperimentNames lists the available experiment IDs in a stable order.
func ExperimentNames() []string {
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of an experiment.
func Describe(name string) (string, bool) {
	e, ok := experiments[name]
	return e.Desc, ok
}

// Run executes one named experiment, writing its rows to w.
func (s *Suite) Run(name string, w io.Writer) error {
	e, ok := experiments[name]
	if !ok {
		return fmt.Errorf("core: unknown experiment %q (available: %v)", name, ExperimentNames())
	}
	return e.Run(s, w)
}

// runAllOrder derives RunAll's execution order from the experiments
// registry — tables, then figures, then ablations and extensions — with
// the combined fig3+4 runner replacing its fig3/fig4 components so the
// training pass is shared. Deriving from the registry (instead of a
// hardcoded list) means newly registered experiments are picked up
// automatically and the order can never drift to unknown names.
func runAllOrder() []string {
	_, combined := experiments["fig3+4"]
	rank := func(n string) int {
		switch {
		case strings.HasPrefix(n, "table"):
			return 0
		case strings.HasPrefix(n, "fig"):
			return 1
		case n == "ablations":
			return 2
		default:
			return 3
		}
	}
	var out []string
	for _, n := range ExperimentNames() {
		if combined && (n == "fig3" || n == "fig4") {
			continue
		}
		out = append(out, n)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if ra, rb := rank(out[a]), rank(out[b]); ra != rb {
			return ra < rb
		}
		return out[a] < out[b]
	})
	return out
}

// RunAll executes every registered experiment (with fig3+4 collapsing
// its two component figures), erroring on the first failure.
func (s *Suite) RunAll(w io.Writer) error {
	for _, name := range runAllOrder() {
		if err := s.Run(name, w); err != nil {
			return fmt.Errorf("core: experiment %s: %w", name, err)
		}
	}
	return nil
}

// Stack is the assembled VIP-assistance analytics stack.
type Stack struct {
	Detector *detect.Detector
	Fall     *pose.FallClassifier
	Depth    *depth.Estimator
	Split    dataset.Split
}

// Graph assembles the stack into the classic detect→{pose,depth}
// pipeline graph with the given placements (typically from
// pipeline.EdgePlacement or pipeline.HybridPlacement). Run it as
// pipeline.Session{Graph: g, ...} — sessions are the only entry point —
// after chaining any further stages onto it with Add.
func (st *Stack) Graph(place map[pipeline.StageID]pipeline.Placement, obstacleAlertM float64, useTracker bool) *pipeline.Graph {
	return pipeline.VIPGraph(st.Detector, st.Fall, st.Depth, place, obstacleAlertM, useTracker)
}

// BuildStack trains a full analytics stack at the suite's scale: a vest
// detector of the requested variant, a fall classifier over rendered
// poses, and a calibrated depth estimator.
func (s *Suite) BuildStack(family models.Family, size models.Size) (*Stack, error) {
	ds := dataset.Build(dataset.Config{Scale: s.Scale.Data, W: s.Scale.W, H: s.Scale.H, Seed: s.Scale.Seed})
	sp := ds.StratifiedSplit(s.Scale.TrainFrac)
	st := &Stack{Split: sp}
	st.Detector = detect.TrainDataset(detect.TierFor(family, size), sp.Train)

	// Fall classifier: rendered standing/walking/fallen poses.
	var ests []pose.Estimate
	var labels []bool
	cam := scene.DefaultCamera(s.Scale.W, s.Scale.H, 1.6)
	for i := 0; i < 60; i++ {
		p := scene.Walking
		fallen := i%2 == 0
		if fallen {
			p = scene.Fallen
		}
		sc := &scene.Scene{
			Background: scene.Background(i % 3), Lighting: 1.0, CamHeightM: 1.6,
			Seed: s.Scale.Seed + uint64(i)*31,
			Entities: []scene.Entity{{
				Kind: scene.VIP, X: 0, Depth: 4 + float64(i%5), HeightM: 1.7, Pose: p,
				Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
			}},
		}
		im, gt := scene.Render(sc, cam)
		box := gt.PersonBox
		box.X0 -= 6
		box.Y0 -= 6
		box.X1 += 6
		box.Y1 += 6
		if est, ok := pose.Analyze(im, box); ok {
			ests = append(ests, est)
			labels = append(labels, fallen)
		}
	}
	if len(ests) < 10 {
		return nil, fmt.Errorf("core: only %d pose estimates for fall training", len(ests))
	}
	st.Fall = pose.TrainFall(ests, labels, s.Scale.Seed)

	// Depth calibration from training frames.
	var frames []depth.CalibrationFrame
	n := sp.Train.Len()
	if n > 5 {
		n = 5
	}
	for i := 0; i < n; i++ {
		r := sp.Train.Render(sp.Train.Items[i])
		frames = append(frames, depth.CalibrationFrame{Image: r.Image, Truth: r.Truth})
	}
	var est depth.Estimator
	if err := est.Fit(frames); err != nil {
		return nil, fmt.Errorf("core: depth calibration: %w", err)
	}
	st.Depth = &est
	return st, nil
}
