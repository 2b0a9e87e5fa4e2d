package bench

import (
	"fmt"
	"io"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
)

// BatchRow summarises one batching policy on the saturated fleet
// serving workload: N drones' detectors contending for one shared
// workstation, queueing (not dropping) so served throughput is
// capacity-limited.
type BatchRow struct {
	Policy   string
	MaxBatch int
	FleetSummary
	// Speedup is FPS relative to the per-frame row.
	Speedup float64
}

// batchStudyDrones/Frames size the ext-batch workload: 16 drones at
// 10 FPS offer 160 frames/sec — ~2.8x the per-frame capacity of the
// x-large detector on the RTX 4090 — so the per-frame path saturates
// and the batched rows show true serving capacity.
const (
	batchStudyDrones = 16
	batchStudyFrames = 100
)

// batchFleet builds the study fleet: detect-only sessions (the shared
// hot path, isolated from per-drone edge queueing) against one shared
// RTX 4090.
func batchFleet(seed uint64, policy pipeline.BatchPolicy) *pipeline.Fleet {
	fleet := StaggeredFleet(batchStudyDrones, batchStudyFrames, 10, seed, func(s *pipeline.Session) {
		s.Policy = pipeline.QueuePolicy{}
		s.Graph = pipeline.NewGraph().Add(
			pipeline.NewTimingStage("detect", models.V8XLarge, nil),
			pipeline.Placement{Device: device.RTX4090, Model: models.V8XLarge})
	})
	fleet.Batch = policy
	return fleet
}

// RunBatchStudy sweeps micro-batch sizes over the saturated fleet
// workload and measures served throughput against the per-frame
// baseline — the recorded evidence that batching, not assertion, buys
// the speedup (numbers in BENCHMARKS.md).
func RunBatchStudy(seed uint64) ([]BatchRow, error) {
	sweeps := []struct {
		label  string
		policy pipeline.BatchPolicy
	}{
		{"per-frame", pipeline.BatchPolicy{}},
		{"batch-2", pipeline.BatchPolicy{MaxBatch: 2, WindowMS: 60}},
		{"batch-4", pipeline.BatchPolicy{MaxBatch: 4, WindowMS: 60}},
		{"batch-8", pipeline.BatchPolicy{MaxBatch: 8, WindowMS: 60}},
	}
	var out []BatchRow
	for _, sw := range sweeps {
		fleet := batchFleet(seed, sw.policy)
		results, err := fleet.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: batch study %s: %w", sw.label, err)
		}
		out = append(out, BatchRow{Policy: sw.label, MaxBatch: sw.policy.MaxBatch,
			FleetSummary: SummarizeFleet(fleet, results)})
	}
	base := out[0].FPS
	for i := range out {
		if base > 0 {
			out[i].Speedup = out[i].FPS / base
		}
	}
	return out, nil
}

// WriteBatchStudy renders the batched-serving sweep.
func WriteBatchStudy(w io.Writer, rows []BatchRow) {
	divider(w, fmt.Sprintf(
		"Extension: micro-batched serving (%d drones @ 10 FPS, yolov8x on one shared RTX 4090)",
		batchStudyDrones))
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %11s %9s\n",
		"policy", "fps", "median", "p95", "max", "deadline%", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.1f %9.1fms %9.1fms %9.1fms %10.1f%% %8.2fx\n",
			r.Policy, r.FPS, r.E2E.MedianMS, r.E2E.P95MS, r.E2E.MaxMS, r.DeadlinePct, r.Speedup)
	}
}
