// Quickstart: build a small synthetic Ocularone dataset, retrain a vest
// detector, and evaluate it on diverse and adversarial conditions — the
// core loop of the benchmark in under a minute.
package main

import (
	"fmt"

	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

func main() {
	// 1. Build a 1%-scale dataset (≈307 images) with the exact Table-1
	//    category mix of the paper.
	ds := dataset.Build(dataset.Config{Scale: 0.01, W: 320, H: 240, Seed: 42})
	fmt.Printf("dataset: %d annotated images across %d categories\n",
		ds.Len(), len(dataset.Taxonomy))

	// 2. Stratified split: ≈12.6%% of each category for training, the
	//    rest for test — the paper's §3.1 protocol.
	sp := ds.StratifiedSplit(0.126)
	fmt.Printf("split: train=%d val=%d test=%d\n", sp.Train.Len(), sp.Val.Len(), sp.Test.Len())

	// 3. Retrain the YOLOv8-medium vest detector.
	tier := detect.TierFor(models.YOLOv8, models.Medium)
	det := detect.TrainDataset(tier, sp.Train)
	fmt.Printf("trained: %s\n", det)

	// 4. Evaluate on the diverse and adversarial test subsets.
	div := detect.EvaluateDataset(det, sp.Test.Diverse())
	adv := detect.EvaluateDataset(det, sp.Test.Adversarial())
	fmt.Printf("diverse test:     accuracy %.2f%% (%d imgs, %d spurious boxes)\n",
		div.Accuracy(), div.Confusion.Total(), div.SpuriousBoxes)
	fmt.Printf("adversarial test: accuracy %.2f%% (%d imgs)\n",
		adv.Accuracy(), adv.Confusion.Total())
	for kind, c := range adv.PerAttack {
		fmt.Printf("  %-16s %.1f%%\n", kind, c.Accuracy())
	}

	// 5. Run one frame end to end.
	r := ds.Render(sp.Test.Items[0])
	boxes := det.Detect(r.Image)
	fmt.Printf("frame %s: %d detection(s)", dataset.ItemID(sp.Test.Items[0]), len(boxes))
	if len(boxes) > 0 {
		fmt.Printf(", best box %+v IoU=%.2f vs truth",
			boxes[0].Rect, boxes[0].Rect.IoU(r.Truth.VestBox))
	}
	fmt.Println()

	// 6. Checkpoint the trained model and restore it — the workflow a
	//    downstream deployment uses.
	ckpt, err := det.Marshal()
	if err != nil {
		panic(err)
	}
	restored, err := detect.Unmarshal(ckpt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("checkpoint: %d bytes, restored %s\n", len(ckpt), restored)

	// 7. Deploy the restored detector as a stage graph on a short drone
	//    clip — the composable pipeline API the full examples build on.
	v := video.New(video.Spec{
		ID: 1, DurationSec: 1, FPS: 30, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 1.0, Seed: 5,
	})
	g := pipeline.NewGraph().AddOn(pipeline.NewDetectStage(restored, models.V8Medium, false), device.OrinAGX)
	res, err := (&pipeline.Session{Source: v, Graph: g, FrameFPS: 10, Seed: 2}).Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("deployed on o-agx: %d frames, detection %.0f%%, e2e %s\n",
		len(res.Frames), res.DetectionRate*100, res.E2E)
}
