package adaptive

import (
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
)

// testSeed is the seed the adaptive study runs at by default.
const testSeed = 42

func TestArmLatency(t *testing.T) {
	arms := DefaultArms()
	// Edge arm pays no RTT; workstation arm does.
	edgeLat := arms[0].LatencyMS()
	if edgeLat != device.PredictMS(models.V8Nano, device.OrinNano, device.FP32, device.Interpreted) {
		t.Fatalf("edge arm latency %v includes RTT", edgeLat)
	}
	cloud := arms[2]
	if cloud.LatencyMS() <= device.PredictMS(models.V8XLarge, device.RTX4090, device.FP32, device.Interpreted) {
		t.Fatal("cloud arm does not pay RTT")
	}
}

func TestControllerDownshiftsUnderLatencyPressure(t *testing.T) {
	arms := DefaultArms()
	ctl := NewController(arms, 1, Config{Window: 10})
	// Persistent deadline misses → move toward the fast arm.
	for i := 0; i < 10; i++ {
		ctl.Observe(true, false)
	}
	if ctl.ArmIndex() != 0 {
		t.Fatalf("no downshift: arm %d", ctl.ArmIndex())
	}
	// At the fast end, further misses leave it pinned.
	for i := 0; i < 10; i++ {
		ctl.Observe(true, false)
	}
	if ctl.ArmIndex() != 0 {
		t.Fatal("downshifted past the fastest arm")
	}
}

func TestControllerUpshiftsUnderAccuracyPressure(t *testing.T) {
	arms := DefaultArms()
	ctl := NewController(arms, 0, Config{Window: 10})
	// Deadlines fine, detections failing → move toward accuracy.
	for i := 0; i < 10; i++ {
		ctl.Observe(false, i%3 == 0) // 30% failure
	}
	if ctl.ArmIndex() != 1 {
		t.Fatalf("no upshift: arm %d", ctl.ArmIndex())
	}
}

func TestControllerHoldsWhenHealthy(t *testing.T) {
	arms := DefaultArms()
	ctl := NewController(arms, 1, Config{Window: 10})
	for i := 0; i < 50; i++ {
		ctl.Observe(false, false)
	}
	if ctl.ArmIndex() != 1 || ctl.Switches() != 0 {
		t.Fatalf("healthy stream caused switches: arm %d, %d switches", ctl.ArmIndex(), ctl.Switches())
	}
}

func TestControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty arms")
		}
	}()
	NewController(nil, 0, Config{})
}

func TestAdaptiveBeatsStaticArms(t *testing.T) {
	arms := DefaultArms()
	adaptive := RunAdaptive(testSeed, arms, 0, Config{Window: 10, FailHi: 0.05})
	if adaptive.Switches == 0 {
		t.Fatal("scenario did not exercise adaptation")
	}
	for _, a := range arms {
		st := RunStatic(testSeed, a)
		if adaptive.Reward < st.Reward-0.01 {
			t.Errorf("adaptive reward %.3f below static %s (%.3f)", adaptive.Reward, a.Name, st.Reward)
		}
	}
}

func TestStaticTradeoffsExist(t *testing.T) {
	// The scenario must actually create the trade-off the controller
	// navigates: the accurate arm suffers deadlines during the outage,
	// the fast arm suffers detections at dusk.
	arms := DefaultArms()
	fast := RunStatic(testSeed, arms[0])
	accurate := RunStatic(testSeed, arms[2])
	if fast.DetectionRate >= accurate.DetectionRate {
		t.Fatalf("fast arm (%.3f) not less accurate than cloud arm (%.3f)",
			fast.DetectionRate, accurate.DetectionRate)
	}
	if accurate.DeadlineRate >= fast.DeadlineRate {
		t.Fatalf("cloud arm (%.3f) not worse on deadlines than fast arm (%.3f)",
			accurate.DeadlineRate, fast.DeadlineRate)
	}
}

func TestOutcomeDeterministic(t *testing.T) {
	arms := DefaultArms()
	a := RunAdaptive(testSeed, arms, 1, Config{Window: 20})
	b := RunAdaptive(testSeed, arms, 1, Config{Window: 20})
	if a != b {
		t.Fatalf("adaptive run not deterministic: %+v vs %+v", a, b)
	}
}

func TestPrecisionArms(t *testing.T) {
	arms := PrecisionArms(device.OrinNano, device.FP32)
	if len(arms) != 2 {
		t.Fatalf("precision spectrum has %d arms, want 2", len(arms))
	}
	// Fastest → most accurate, as Controller requires: int8 degraded
	// arm first, nominal precision second.
	if arms[0].Precision != device.INT8 || arms[1].Precision != device.FP32 {
		t.Fatalf("arm precisions %v, %v: want int8 then nominal", arms[0].Precision, arms[1].Precision)
	}
	if arms[0].Dev != device.OrinNano || arms[1].Dev != device.OrinNano {
		t.Fatal("precision arms must stay on the serving device")
	}
	if arms[0].Accuracy >= arms[1].Accuracy || arms[0].RobustAccuracy >= arms[1].RobustAccuracy {
		t.Fatal("degraded arm must trade accuracy for speed")
	}
	if arms[0].Model != arms[1].Model {
		t.Fatal("precision arms must not change the model")
	}
}
