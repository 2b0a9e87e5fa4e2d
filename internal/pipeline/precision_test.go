package pipeline

import (
	"reflect"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
)

// precisionStudySession builds a saturated timing-only session: the
// all-edge medium deployment on one Orin AGX serialises detect, pose,
// and depth on a single executor (~264 ms fp32 vs ~115 ms int8 per
// frame), so at 5 FPS the fp32 run misses every 200 ms deadline while
// int8 holds them.
func precisionStudySession(prec PrecisionPolicy, batch BatchPolicy) *Session {
	place := EdgePlacement(device.OrinAGX, models.V8Medium)
	return &Session{
		ID: 0, Frames: 60, FrameFPS: 5, EdgeRTTms: 25,
		Policy: QueuePolicy{}, Seed: 42,
		Graph:     TimingVIPGraph(place),
		Batch:     batch,
		Precision: prec,
	}
}

// TestPrecisionAllFP32BitIdentical is the replay guarantee of the
// precision plane: a session with no policy, a nil-map policy, and an
// explicit all-FP32 policy must produce byte-for-byte identical
// results — same latencies, same jitter draws, same skip accounting.
func TestPrecisionAllFP32BitIdentical(t *testing.T) {
	base, err := precisionStudySession(nil, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	graphStages := precisionStudySession(nil, BatchPolicy{}).Graph.Stages()
	for name, pol := range map[string]PrecisionPolicy{
		"empty-map":      {},
		"explicit-fp32":  UniformPrecision(device.FP32, graphStages...),
		"unknown-stages": {"no-such-stage": device.INT8},
	} {
		got, err := precisionStudySession(pol, BatchPolicy{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%s policy diverged from the unset-precision run", name)
		}
	}
}

// TestPrecisionInt8ImprovesServing asserts the int8 policy turns the
// saturated fp32 session into one that holds its deadlines: median E2E
// drops and the deadline rate rises.
func TestPrecisionInt8ImprovesServing(t *testing.T) {
	fp, err := precisionStudySession(nil, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	q8, err := precisionStudySession(UniformPrecision(device.INT8, "detect", "pose", "depth"), BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if q8.E2E.MedianMS >= fp.E2E.MedianMS {
		t.Fatalf("int8 median %.1f ms not below fp32 %.1f ms", q8.E2E.MedianMS, fp.E2E.MedianMS)
	}
	if q8.DeadlineOK <= fp.DeadlineOK {
		t.Fatalf("int8 deadline rate %.2f not above fp32 %.2f", q8.DeadlineOK, fp.DeadlineOK)
	}
}

// TestPrecisionBackboneInt8HeadsFP32 exercises the motivating mixed
// deployment — heavy detect backbone int8, light pose/depth heads
// fp32 — and checks only the chosen stage speeds up.
func TestPrecisionBackboneInt8HeadsFP32(t *testing.T) {
	fp, err := precisionStudySession(nil, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := precisionStudySession(PrecisionPolicy{"detect": device.INT8}, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.Frames) == 0 || len(fp.Frames) == 0 {
		t.Fatal("no frames processed")
	}
	// Detect gets faster; pose keeps its fp32 service-time distribution
	// (its stage latency may still shift via queueing, so compare the
	// detect deltas instead of exact pose equality).
	fpDet := fp.Frames[0].StageMS["detect"]
	mxDet := mixed.Frames[0].StageMS["detect"]
	if mxDet >= fpDet {
		t.Fatalf("first-frame detect %.1f ms not below fp32 %.1f ms", mxDet, fpDet)
	}
}

// TestFleetPrecisionComposesWithBatching runs the 4-drone shared-
// workstation fleet with micro-batching at both precisions: int8
// batches must still coalesce (throughput above fp32 batched serving).
func TestFleetPrecisionComposesWithBatching(t *testing.T) {
	run := func(prec PrecisionPolicy) []StreamResult {
		sessions := make([]*Session, 4)
		for i := range sessions {
			place := EdgePlacement(device.OrinNano, models.V8XLarge)
			place[StageDetect] = Placement{Device: device.RTX4090, Model: models.V8XLarge}
			sessions[i] = &Session{
				ID: i, Frames: 40, FrameFPS: 10, EdgeRTTms: 25,
				Policy: QueuePolicy{}, Seed: 42 + uint64(i)*211,
				OffsetMS:  float64(i) * 2,
				Graph:     TimingVIPGraph(place),
				Precision: prec,
			}
		}
		fleet := &Fleet{Sessions: sessions, SharedSeed: 99, Batch: BatchPolicy{MaxBatch: 4, WindowMS: 60}}
		res, err := fleet.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	med := func(rs []StreamResult) float64 {
		var s float64
		for _, r := range rs {
			s += r.E2E.MedianMS
		}
		return s / float64(len(rs))
	}
	fp := run(nil)
	q8 := run(PrecisionPolicy{"detect": device.INT8})
	if med(q8) >= med(fp) {
		t.Fatalf("batched int8 fleet median %.1f ms not below fp32 %.1f ms", med(q8), med(fp))
	}
}
