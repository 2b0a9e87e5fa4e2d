package bench

import (
	"fmt"
	"io"

	"ocularone/internal/device"
)

// RunPlanStudy is the ext-plan study: interpreted vs planned execution
// in the discrete-event model over the three Jetson devices, on the
// same saturated workload as the quant study. Planned rows pay the
// one-time per-stage compile charge inside the measured makespan, so
// the speedup is net of compilation. (What plans buy on the real
// engine — wall clock and allocations per frame, against an oracle —
// is benchmark/'s nn.exec_ms.* / nn.interp_ms.yolov8n /
// nn.allocs_per_exec.)
func RunPlanStudy(seed uint64) ([]EdgeRow, error) {
	return runEdgeStudy("plan", seed, []edgePolicy{
		{label: "interp"},
		{label: "plan", engine: device.Planned},
	})
}

// WritePlanStudy renders the planned-serving sweep.
func WritePlanStudy(w io.Writer, rows []EdgeRow) {
	divider(w, "Extension: planned serving on Jetson-class devices (medium VIP pipeline, 10 FPS offered)")
	fmt.Fprintf(w, "%-8s %-8s %9s %10s %10s %11s %9s %9s\n",
		"device", "engine", "fps/drone", "median", "p95", "deadline%", "compiles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-8s %9.1f %9.1fms %9.1fms %10.1f%% %9d %8.2fx\n",
			r.Device, r.Policy, r.FPS, r.E2E.MedianMS, r.E2E.P95MS, r.DeadlinePct, r.PlanCompiles, r.Speedup)
	}
}
