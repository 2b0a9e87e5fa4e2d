package detect

import (
	"sync"

	"ocularone/internal/dataset"
	"ocularone/internal/imgproc"
	"ocularone/internal/metrics"
	"ocularone/internal/parallel"
)

// EvalIoU is the IoU threshold for counting a detection as correct at
// evaluation time.
const EvalIoU = 0.5

// Result aggregates an evaluation run.
type Result struct {
	Confusion metrics.Confusion
	// PerAttack breaks the confusion down by adversarial condition.
	PerAttack map[string]*metrics.Confusion
	// SpuriousBoxes counts detections that matched nothing on frames that
	// did contain a vest. The paper reports zero false positives; this
	// counter is the evidence for that claim in our reproduction.
	SpuriousBoxes int
}

// Accuracy returns the image-level accuracy percentage.
func (r Result) Accuracy() float64 { return r.Confusion.Accuracy() }

// EvaluateDataset renders every item of ds, runs the detector, and
// scores it against ground truth. Items render and evaluate in parallel;
// the result is deterministic because scoring is order-independent.
func EvaluateDataset(d *Detector, ds *dataset.Dataset) Result {
	res := Result{PerAttack: map[string]*metrics.Confusion{}}
	var mu sync.Mutex
	parallel.For(ds.Len(), func(i int) {
		it := ds.Items[i]
		r := ds.Render(it)
		c, spurious := ScoreFrame(d, r.Image, r.Truth.HasVIP, r.Truth.VestBox)
		mu.Lock()
		res.Confusion.Add(c)
		res.SpuriousBoxes += spurious
		key := it.Attack.Kind.String()
		pc := res.PerAttack[key]
		if pc == nil {
			pc = &metrics.Confusion{}
			res.PerAttack[key] = pc
		}
		pc.Add(c)
		mu.Unlock()
	})
	return res
}

// ScoreFrame scores one frame with the paper's one-verdict-per-image
// protocol: with a vest present, some detection must overlap it at
// EvalIoU (TP, else FN). Without a vest, any detection is an FP, silence
// a TN. The returned spurious count tracks boxes that matched nothing on
// a vest frame.
func ScoreFrame(d *Detector, im *imgproc.Image, hasVest bool, gt imgproc.Rect) (metrics.Confusion, int) {
	boxes := d.Detect(im)
	var c metrics.Confusion
	if hasVest && !gt.Empty() {
		hit := false
		spurious := 0
		for _, b := range boxes {
			if b.Rect.IoU(gt) >= EvalIoU {
				hit = true
			} else {
				spurious++
			}
		}
		if hit {
			c.TP = 1
		} else {
			c.FN = 1
		}
		return c, spurious
	}
	if len(boxes) > 0 {
		c.FP = 1
	} else {
		c.TN = 1
	}
	return c, 0
}
