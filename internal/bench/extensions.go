package bench

import (
	"fmt"
	"io"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
)

// EfficiencyRow extends the paper's Fig. 5/6 study with the economics
// Table 3 implies: throughput per dollar and per watt for each
// model×device pair — the numbers a deployment planner actually needs.
type EfficiencyRow struct {
	Model        models.ID
	Device       device.ID
	FPS          float64
	FPSPerDollar float64 // ×1000 (FPS per k$)
	FPSPerWatt   float64
	JoulesFrame  float64
}

// RunEfficiency computes the efficiency table.
func RunEfficiency() []EfficiencyRow {
	var out []EfficiencyRow
	for _, m := range models.AllIDs {
		for _, d := range device.AllIDs {
			dev := device.Registry(d)
			fps := device.FPS(m, d, device.FP32, device.Interpreted)
			out = append(out, EfficiencyRow{
				Model: m, Device: d,
				FPS:          fps,
				FPSPerDollar: fps / dev.PriceUSD * 1000,
				FPSPerWatt:   fps / dev.PeakPowerW,
				JoulesFrame:  device.EnergyPerFrameJ(m, d, device.FP32, device.Interpreted),
			})
		}
	}
	return out
}

// WriteEfficiency renders the efficiency study.
func WriteEfficiency(w io.Writer, rows []EfficiencyRow) {
	divider(w, "Extension: deployment efficiency (throughput per dollar / per watt)")
	fmt.Fprintf(w, "%-12s %-10s %10s %14s %12s %10s\n",
		"model", "device", "fps", "fps/k$", "fps/W", "J/frame")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %10.1f %14.2f %12.3f %10.2f\n",
			r.Model, r.Device, r.FPS, r.FPSPerDollar, r.FPSPerWatt, r.JoulesFrame)
	}
}

// FleetRow summarises one fleet size of the multi-drone contention
// study: N drones each running the hybrid deployment (x-large detector
// on the shared workstation, auxiliary models on their own Orin Nano)
// at 10 FPS with the drop-when-busy policy.
type FleetRow struct {
	Drones int
	FleetSummary
}

// RunFleetStudy sweeps fleet sizes against one shared RTX 4090 — the
// multi-client serving question the paper's §5 future work raises. The
// sweep is timing-only (no pixel analytics), so it isolates the queueing
// behaviour of the shared workstation executor: at ~18 ms per x-large
// inference, six 10 FPS drones saturate it and the drop rate takes off.
func RunFleetStudy(seed uint64) ([]FleetRow, error) {
	var out []FleetRow
	for _, drones := range []int{1, 2, 4, 8} {
		fleet := StaggeredFleet(drones, 150, 10, seed, func(s *pipeline.Session) {
			s.EdgeRTTms = 25
			s.Policy = pipeline.DropPolicy{}
			s.Graph = pipeline.TimingVIPGraph(pipeline.HybridPlacement(device.OrinNano, models.V8XLarge))
		})
		results, err := fleet.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: fleet of %d: %w", drones, err)
		}
		out = append(out, FleetRow{Drones: drones, FleetSummary: SummarizeFleet(fleet, results)})
	}
	return out, nil
}

// WriteFleetStudy renders the fleet contention sweep.
func WriteFleetStudy(w io.Writer, rows []FleetRow) {
	divider(w, "Extension: multi-drone fleet contention on one shared RTX 4090")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %11s %10s\n",
		"drones", "median", "p95", "max", "deadline%", "dropped%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %9.1fms %9.1fms %9.1fms %10.1f%% %9.1f%%\n",
			r.Drones, r.E2E.MedianMS, r.E2E.P95MS, r.E2E.MaxMS, r.DeadlinePct, r.DroppedPct)
	}
}

// RunAdaptiveStudy executes the future-work adaptive-deployment scenario
// and returns the static arms plus the adaptive policy.
func RunAdaptiveStudy(seed uint64) []adaptive.Outcome {
	scenario := adaptive.Scenario{
		Frames: 600, FrameFPS: 4,
		DuskFrom: 200, DuskTo: 400,
		OutageFrom: 450, OutageTo: 550, OutagePenaltyMS: 400,
		Seed: seed,
	}
	arms := adaptive.DefaultArms(device.OrinNano, 25)
	out := make([]adaptive.Outcome, 0, len(arms)+1)
	for _, a := range arms {
		out = append(out, adaptive.RunStatic(scenario, a))
	}
	out = append(out, adaptive.RunAdaptive(scenario, arms, 0, adaptive.Config{Window: 10, FailHi: 0.05}))
	return out
}

// WriteAdaptiveStudy renders the adaptive-deployment comparison.
func WriteAdaptiveStudy(w io.Writer, outcomes []adaptive.Outcome) {
	divider(w, "Extension: accuracy-aware adaptive deployment (paper §5 future work)")
	fmt.Fprintf(w, "%-24s %10s %11s %12s %9s %8s\n",
		"policy", "detect%", "deadline%", "mean-lat", "switches", "reward")
	for _, o := range outcomes {
		fmt.Fprintf(w, "%-24s %9.1f%% %10.1f%% %10.0fms %9d %8.3f\n",
			o.Policy, o.DetectionRate*100, o.DeadlineRate*100, o.MeanLatencyMS, o.Switches, o.Reward)
	}
}
