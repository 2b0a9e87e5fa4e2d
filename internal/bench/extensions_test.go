package bench

import (
	"strings"
	"testing"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/scene"
)

func TestEfficiencyRows(t *testing.T) {
	rows := RunEfficiency()
	if len(rows) != len(models.AllIDs)*len(device.AllIDs) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.FPS <= 0 || r.FPSPerDollar <= 0 || r.FPSPerWatt <= 0 || r.JoulesFrame <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	// The cheap Jetsons beat the workstation on fps/$ for the nano model
	// (edge economics), while the workstation wins raw fps.
	var nxRow, rtxRow EfficiencyRow
	for _, r := range rows {
		if r.Model == models.V8Nano && r.Device == device.XavierNX {
			nxRow = r
		}
		if r.Model == models.V8Nano && r.Device == device.RTX4090 {
			rtxRow = r
		}
	}
	if rtxRow.FPS <= nxRow.FPS {
		t.Fatal("workstation not faster in raw fps")
	}
	if nxRow.FPSPerWatt <= rtxRow.FPSPerWatt {
		t.Fatalf("edge not more power-efficient: nx %.2f vs rtx %.2f fps/W",
			nxRow.FPSPerWatt, rtxRow.FPSPerWatt)
	}
	var sb strings.Builder
	WriteEfficiency(&sb, rows)
	if !strings.Contains(sb.String(), "fps/k$") {
		t.Fatal("render incomplete")
	}
}

func TestAdaptiveStudyOutcomes(t *testing.T) {
	outcomes := RunAdaptiveStudy(42)
	if len(outcomes) != 4 {
		t.Fatalf("outcomes %d", len(outcomes))
	}
	adaptiveOut := outcomes[len(outcomes)-1]
	if adaptiveOut.Policy != "adaptive" {
		t.Fatalf("last outcome %q", adaptiveOut.Policy)
	}
	// The adaptive policy at least matches the best static reward.
	bestStatic := 0.0
	for _, o := range outcomes[:3] {
		if o.Reward > bestStatic {
			bestStatic = o.Reward
		}
	}
	if adaptiveOut.Reward < bestStatic-0.01 {
		t.Fatalf("adaptive reward %.3f below best static %.3f", adaptiveOut.Reward, bestStatic)
	}
	var sb strings.Builder
	WriteAdaptiveStudy(&sb, outcomes)
	if !strings.Contains(sb.String(), "adaptive") {
		t.Fatal("render incomplete")
	}
}

// TestAdaptiveStudyGolden pins the adaptive-deployment study at seed 42
// exactly: the three static arms and the controller, every rate, mean
// latency, switch count and reward to the last bit.
func TestAdaptiveStudyGolden(t *testing.T) {
	want := []adaptive.Outcome{
		{Policy: "static:nano@o-nano", DetectionRate: 0.9283333333333333, DeadlineRate: 1, MeanLatencyMS: 35.67847030895892, Switches: 0, Reward: 0.9283333333333333},
		{Policy: "static:medium@o-nano", DetectionRate: 0.9566666666666667, DeadlineRate: 1, MeanLatencyMS: 200.91481018016603, Switches: 0, Reward: 0.9566666666666667},
		{Policy: "static:xlarge@rtx4090", DetectionRate: 0.9916666666666667, DeadlineRate: 0.8333333333333334, MeanLatencyMS: 109.53307934895199, Switches: 0, Reward: 0.826388888888889},
		{Policy: "adaptive", DetectionRate: 0.9883333333333333, DeadlineRate: 0.9666666666666667, MeanLatencyMS: 123.44116087010332, Switches: 5, Reward: 0.9553888888888888},
	}
	got := RunAdaptiveStudy(42)
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("outcome %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFleetStudyContentionGrows(t *testing.T) {
	rows, err := RunFleetStudy(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Drones != 1 || rows[3].Drones != 8 {
		t.Fatalf("rows %+v", rows)
	}
	// A lone drone keeps the deadline comfortably on the hybrid
	// deployment; eight drones oversubscribe the shared workstation
	// (~140% utilisation) and must shed a visible share of frames.
	if rows[0].DroppedPct > 20 {
		t.Fatalf("solo drone dropped %.1f%%", rows[0].DroppedPct)
	}
	if rows[3].DroppedPct <= rows[0].DroppedPct {
		t.Fatalf("contention invisible: 1 drone %.1f%%, 8 drones %.1f%% dropped",
			rows[0].DroppedPct, rows[3].DroppedPct)
	}
	for _, r := range rows {
		if r.E2E.N == 0 || r.E2E.MedianMS <= 0 {
			t.Fatalf("degenerate summary for %d drones", r.Drones)
		}
	}
	var sb strings.Builder
	WriteFleetStudy(&sb, rows)
	if !strings.Contains(sb.String(), "drones") {
		t.Fatal("fleet study output incomplete")
	}
}

func TestChaosStudy(t *testing.T) {
	sc := Scale{Data: 0.003, TimingFrames: 10, W: 320, H: 240, Seed: 42, TrainFrac: 0.25}
	st := RunChaosStudy(sc)
	if len(st.Points) != 4 {
		t.Fatalf("chaos study has %d regimes, want 4", len(st.Points))
	}
	base := st.Points[0]
	if base.Name != "baseline" || base.FaultEpisodes != 0 || base.Adaptations != 0 {
		t.Fatalf("baseline regime carries fault accounting: %+v", base)
	}
	if base.Condition != scene.Clear {
		t.Fatalf("baseline paired with %s, want the clear condition (delta 0)", base.Condition)
	}
	clearAcc := st.AccPct[scene.Clear]
	for _, p := range st.Points[1:] {
		if p.FaultEpisodes == 0 {
			t.Fatalf("%s regime injected no fault episodes", p.Name)
		}
		if p.GoodputPerSec >= base.GoodputPerSec {
			t.Fatalf("%s goodput %.0f not below baseline %.0f", p.Name, p.GoodputPerSec, base.GoodputPerSec)
		}
		if delta := st.AccPct[p.Condition] - clearAcc; delta > 0 {
			t.Fatalf("%s condition %s improved detection by %.1f%%", p.Name, p.Condition, delta)
		}
		if p.Fingerprint == base.Fingerprint {
			t.Fatalf("%s regime fingerprint identical to baseline", p.Name)
		}
	}
	// The degraded conditions must actually cost detection accuracy
	// somewhere in the sweep.
	worst := 0.0
	for _, acc := range st.AccPct {
		if acc-clearAcc < worst {
			worst = acc - clearAcc
		}
	}
	if worst == 0 {
		t.Fatal("no paired condition degraded detection accuracy")
	}
}
