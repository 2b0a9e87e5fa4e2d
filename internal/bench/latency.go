package bench

import (
	"fmt"
	"io"

	"ocularone/internal/device"
	"ocularone/internal/metrics"
	"ocularone/internal/models"
)

// LatencyCell is one model×device latency distribution.
type LatencyCell struct {
	Model   models.ID
	Device  device.ID
	Summary metrics.LatencySummary
}

// RunFig5 samples per-frame inference times for every Table-2 model on
// the three Jetson edge devices — the study behind Fig. 5 (a)–(d).
func RunFig5(sc Scale) []LatencyCell {
	var out []LatencyCell
	for _, m := range models.AllIDs {
		for _, d := range device.EdgeIDs {
			samples := device.Sample(m, d, device.FP32, device.Interpreted, sc.TimingFrames, sc.Seed^uint64(m)<<8^uint64(d))
			out = append(out, LatencyCell{Model: m, Device: d, Summary: metrics.SummarizeMS(samples)})
		}
	}
	return out
}

// RunFig6 samples inference times on the RTX 4090 workstation (Fig. 6).
func RunFig6(sc Scale) []LatencyCell {
	var out []LatencyCell
	for _, m := range models.AllIDs {
		samples := device.Sample(m, device.RTX4090, device.FP32, device.Interpreted, sc.TimingFrames, sc.Seed^uint64(m)<<8)
		out = append(out, LatencyCell{Model: m, Device: device.RTX4090, Summary: metrics.SummarizeMS(samples)})
	}
	return out
}

// WriteFig5 renders the edge latency study grouped per sub-figure.
func WriteFig5(w io.Writer, cells []LatencyCell) {
	divider(w, "Fig. 5: Inference times on Jetson edge accelerators (ms/frame)")
	groups := []struct {
		title string
		ids   []models.ID
	}{
		{"(a) YOLOv8", []models.ID{models.V8Nano, models.V8Medium, models.V8XLarge}},
		{"(b) YOLOv11", []models.ID{models.V11Nano, models.V11Medium, models.V11XLarge}},
		{"(c) Bodypose", []models.ID{models.Bodypose}},
		{"(d) Monodepth2", []models.ID{models.Monodepth2}},
	}
	for _, g := range groups {
		fmt.Fprintf(w, "%s\n", g.title)
		fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "model", "o-agx", "o-nano", "nx")
		for _, id := range g.ids {
			fmt.Fprintf(w, "  %-12s", id)
			for _, d := range []device.ID{device.OrinAGX, device.OrinNano, device.XavierNX} {
				fmt.Fprintf(w, " %9.1f ", findCell(cells, id, d).Summary.MedianMS)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteFig6 renders the workstation latency study.
func WriteFig6(w io.Writer, cells []LatencyCell) {
	divider(w, "Fig. 6: Inference times on RTX 4090 workstation (ms/frame)")
	fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "model", "median", "p25", "p75")
	for _, c := range cells {
		fmt.Fprintf(w, "  %-12s %10.2f %10.2f %10.2f\n", c.Model, c.Summary.MedianMS, c.Summary.P25MS, c.Summary.P75MS)
	}
}

// findCell locates a cell by model and device; it panics when absent
// (programming error in the harness).
func findCell(cells []LatencyCell, m models.ID, d device.ID) LatencyCell {
	for _, c := range cells {
		if c.Model == m && c.Device == d {
			return c
		}
	}
	panic(fmt.Sprintf("bench: missing cell %s/%s", m, d))
}
