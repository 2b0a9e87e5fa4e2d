package bench

import (
	"fmt"
	"io"

	"ocularone/internal/serve"
)

// ServeRhos is the offered-load sweep of the ext-serve study, as
// multiples of the device's full-batch capacity: two points below the
// knee, the knee itself, and three overload points where admission
// control earns its keep.
var ServeRhos = []float64{0.5, 0.8, 1.0, 1.2, 1.5, 2.0}

// RunServeStudy sweeps open-loop offered load against the shared
// workstation: 16 bursty diurnal tenants, the eight-model Table-2 mix,
// three SLO classes, micro-batch 8. Each point runs a full
// horizon-and-drain simulation through internal/serve and reports the
// goodput / tail latency / shed-rate trade the serving front end
// makes as load crosses capacity.
func RunServeStudy(seed uint64) []serve.CurvePoint {
	cfg := serve.DefaultConfig(10_000, seed)
	return serve.RunCurve(cfg, ServeRhos)
}

// WriteServeStudy renders the offered-load sweep.
func WriteServeStudy(w io.Writer, pts []serve.CurvePoint) {
	divider(w, "Extension: open-loop serving under offered load (goodput / p99 / shed)")
	fmt.Fprintf(w, "%-6s %11s %11s %9s %10s %7s %7s %7s %6s\n",
		"rho", "offered/s", "goodput/s", "p50", "p99", "shed%", "expir%", "batch", "util")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6.2f %11.0f %11.0f %8.1fms %9.1fms %6.1f%% %6.1f%% %7.2f %6.2f\n",
			p.Rho, p.OfferedPerSec, p.GoodputPerSec, p.P50MS, p.P99MS,
			pct(p.Shed, p.Offered), pct(p.Expired, p.Offered), p.MeanBatch, p.Utilization)
	}
}
