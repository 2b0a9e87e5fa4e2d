package bench

import (
	"fmt"
	"io"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
)

// EdgeRow summarises one deployment policy on one Jetson device in the
// saturated all-edge studies (ext-quant, ext-plan): a medium deployment
// (detect, pose, depth sharing the drone's own accelerator) offered
// 10 FPS, so served throughput is capacity-limited and the policy's
// gain shows up directly as frames served.
type EdgeRow struct {
	Device device.ID
	Policy string
	// FleetSummary's FPS is per drone here: drones are independent (no
	// shared executor), so the per-drone figure is the
	// deployment-relevant one.
	FleetSummary
	// Speedup is FPS relative to the device's first policy row.
	Speedup float64
}

// edgePolicy is one swept deployment; the zero value is the fp32 /
// interpreted default.
type edgePolicy struct {
	label     string
	precision pipeline.PrecisionPolicy
	engine    device.Engine
}

// edgeStudyDrones/Frames size the workload; at ~2.6x overload on the
// slowest device the queue shape stabilises well within this horizon.
const (
	edgeStudyDrones = 4
	edgeStudyFrames = 80
)

// runEdgeStudy sweeps the policies over the three Jetson devices — the
// paper's deployment targets. Each run is a 4-drone fleet where every
// drone serves the full medium VIP pipeline on its own accelerator
// (edge executors are per-session, so this isolates the policy's gain
// from cross-drone contention), with the queueing policy so throughput
// measures capacity rather than drop rate. The first policy is each
// device's speedup base.
func runEdgeStudy(study string, seed uint64, policies []edgePolicy) ([]EdgeRow, error) {
	var out []EdgeRow
	for _, dev := range device.EdgeIDs {
		var base float64
		for pi, pol := range policies {
			fleet := StaggeredFleet(edgeStudyDrones, edgeStudyFrames, 10, seed, func(s *pipeline.Session) {
				s.Policy = pipeline.QueuePolicy{}
				s.Graph = pipeline.TimingVIPGraph(pipeline.EdgePlacement(dev, models.V8Medium))
				s.Precision, s.Engine = pol.precision, pol.engine
			})
			results, err := fleet.Run()
			if err != nil {
				return nil, fmt.Errorf("bench: %s study %s/%s: %w", study, dev, pol.label, err)
			}
			row := EdgeRow{Device: dev, Policy: pol.label, FleetSummary: SummarizeFleet(fleet, results)}
			row.FPS /= edgeStudyDrones
			if pi == 0 {
				base = row.FPS
			}
			if base > 0 {
				row.Speedup = row.FPS / base
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// RunQuantStudy compares three precision deployments on the Jetsons,
// whose rated TOPS are predominantly INT8 figures: everything fp32,
// only the heavy YOLO backbone int8 (pose and depth heads fp32 — the
// accuracy-conservative deployment), and everything int8.
func RunQuantStudy(seed uint64) ([]EdgeRow, error) {
	return runEdgeStudy("quant", seed, []edgePolicy{
		{label: "fp32"},
		{label: "int8-detect", precision: pipeline.PrecisionPolicy{"detect": device.INT8}},
		{label: "int8-all", precision: pipeline.UniformPrecision(device.INT8, "detect", "pose", "depth")},
	})
}

// WriteQuantStudy renders the quantized-serving sweep.
func WriteQuantStudy(w io.Writer, rows []EdgeRow) {
	divider(w, "Extension: INT8 quantized serving on Jetson-class devices (medium VIP pipeline, 10 FPS offered)")
	fmt.Fprintf(w, "%-8s %-12s %9s %10s %10s %11s %9s\n",
		"device", "precision", "fps/drone", "median", "p95", "deadline%", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-12s %9.1f %9.1fms %9.1fms %10.1f%% %8.2fx\n",
			r.Device, r.Policy, r.FPS, r.E2E.MedianMS, r.E2E.P95MS, r.DeadlinePct, r.Speedup)
	}
}
