package device

import "ocularone/internal/models"

// BatchConfig parameterises micro-batched execution: up to MaxBatch
// compatible requests (same model, same executor) are coalesced into
// one batched inference, and WindowMS bounds how long the oldest
// pending request should wait for the batch to fill. The window
// belongs to the scheduler that drives the batcher
// (pipeline.BatchPolicy's flush groups, serve's batch hold), which
// dispatches the open batch when it expires. MaxBatch <= 1 disables
// coalescing entirely — every consumer of a BatchConfig must degrade
// to the exact per-frame path in that case.
type BatchConfig struct {
	// MaxBatch is the largest coalesced batch (<= 1 disables batching).
	MaxBatch int
	// WindowMS bounds how long the oldest pending request may wait for
	// the batch to fill before the driving scheduler dispatches it.
	WindowMS float64
}

// Enabled reports whether the configuration actually batches.
func (c BatchConfig) Enabled() bool { return c.MaxBatch > 1 }

// MicroBatcher coalesces jobs bound for one executor into batched
// inferences. Offer enqueues a job, flushing automatically when the
// batch fills or an incompatible (different-model) job arrives; Flush
// dispatches whatever is pending. The batcher has no clock: the
// scheduler driving it decides when simulated time forces a flush (its
// BatchConfig window), so it keeps full control of its deterministic
// replay order.
type MicroBatcher struct {
	Ex  *Executor
	Cfg BatchConfig

	pending []Job
	model   models.ID
	prec    Precision
	eng     Engine
	cost    float64
}

// NewMicroBatcher wraps an executor with a coalescing queue.
func NewMicroBatcher(ex *Executor, cfg BatchConfig) *MicroBatcher {
	return &MicroBatcher{Ex: ex, Cfg: cfg}
}

// Offer enqueues a job for coalescing. It returns the completions of
// any batch this offer forced out: a pending batch of a different
// model, precision, engine, or cost scale flushes first (coalesced
// inferences are one kernel — one model, one precision, one compiled
// program at one degradation rung), and a batch that reaches MaxBatch
// (including the new job) dispatches immediately. With batching
// disabled the job executes immediately on the per-frame path.
func (b *MicroBatcher) Offer(j Job) []Completion {
	if !b.Cfg.Enabled() {
		return b.Ex.Run([]Job{j})
	}
	var out []Completion
	if len(b.pending) > 0 && (b.model != j.Model || b.prec != j.Precision ||
		b.eng != j.Engine || b.cost != j.costScale()) {
		out = b.Flush()
	}
	b.model = j.Model
	b.prec = j.Precision
	b.eng = j.Engine
	b.cost = j.costScale()
	b.pending = append(b.pending, j)
	if len(b.pending) >= b.Cfg.MaxBatch {
		out = append(out, b.Flush()...)
	}
	return out
}

// Flush dispatches the open batch (if any) as one coalesced inference.
func (b *MicroBatcher) Flush() []Completion {
	if len(b.pending) == 0 {
		return nil
	}
	out := b.Ex.RunBatch(b.pending)
	b.pending = b.pending[:0]
	return out
}
