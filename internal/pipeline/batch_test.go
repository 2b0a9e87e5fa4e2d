package pipeline

import (
	"reflect"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
)

// batchTestFleet builds a saturating fleet: every drone runs the full
// hybrid graph with its x-large detector on the shared workstation,
// queueing policy so served throughput is capacity-limited rather than
// drop-limited.
func batchTestFleet(drones int, batch BatchPolicy) *Fleet {
	sessions := make([]*Session, drones)
	for i := range sessions {
		place := HybridPlacement(device.OrinNano, models.V8XLarge)
		sessions[i] = &Session{
			ID: i, Frames: 30, FrameFPS: 10, EdgeRTTms: 25,
			Policy: QueuePolicy{}, Seed: 301 + uint64(i)*19,
			OffsetMS: float64(i) * 100 / float64(drones),
			Graph:    TimingVIPGraph(place),
		}
	}
	return &Fleet{Sessions: sessions, SharedSeed: 0xfeed, Batch: batch}
}

// detectOnlyFleet isolates the shared hot path: each session is a
// single detect stage on the shared workstation, so E2E measures
// exactly the contended executor the batching targets (the per-drone
// aux stages of the hybrid graph would otherwise dominate the tail with
// their own, un-batchable edge queueing).
func detectOnlyFleet(drones int, batch BatchPolicy) *Fleet {
	sessions := make([]*Session, drones)
	for i := range sessions {
		sessions[i] = &Session{
			ID: i, Frames: 30, FrameFPS: 10,
			Policy: QueuePolicy{}, Seed: 501 + uint64(i)*23,
			OffsetMS: float64(i) * 100 / float64(drones),
			Graph: NewGraph().Add(NewTimingStage("detect", models.V8XLarge, nil),
				Placement{Device: device.RTX4090, Model: models.V8XLarge}),
		}
	}
	return &Fleet{Sessions: sessions, SharedSeed: 0xfeed, Batch: batch}
}

// TestFleetBatchOneMatchesUnbatched asserts the structural parity
// guarantee: MaxBatch=1 micro-batching replays the per-frame scheduler
// bit-for-bit, across policies.
func TestFleetBatchOneMatchesUnbatched(t *testing.T) {
	off, err := batchTestFleet(4, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	on, err := batchTestFleet(4, BatchPolicy{MaxBatch: 1, WindowMS: 50}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatal("MaxBatch=1 fleet diverges from unbatched fleet")
	}
}

// TestFleetBatchedDeterministic asserts batched replays are reproducible
// under a fixed seed.
func TestFleetBatchedDeterministic(t *testing.T) {
	p := BatchPolicy{MaxBatch: 8, WindowMS: 40}
	a, err := batchTestFleet(8, p).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchTestFleet(8, p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("batched fleet results differ across identical seeded runs")
	}
}

// TestFleetBatchingRelievesSaturation asserts the point of the feature:
// on a fleet that saturates the shared detector, micro-batching lifts
// served throughput (horizon shrinks) and tail latency collapses.
func TestFleetBatchingRelievesSaturation(t *testing.T) {
	summarise := func(rs []StreamResult) (frames int, worst, p95 float64) {
		for _, r := range rs {
			frames += len(r.Frames)
			if r.E2E.P95MS > p95 {
				p95 = r.E2E.P95MS
			}
			if r.E2E.MaxMS > worst {
				worst = r.E2E.MaxMS
			}
		}
		return frames, worst, p95
	}
	off, err := detectOnlyFleet(12, BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	on, err := detectOnlyFleet(12, BatchPolicy{MaxBatch: 8, WindowMS: 60}).Run()
	if err != nil {
		t.Fatal(err)
	}
	offFrames, offWorst, offP95 := summarise(off)
	onFrames, onWorst, onP95 := summarise(on)
	if offFrames != onFrames {
		t.Fatalf("processed counts differ: %d vs %d (QueuePolicy should drop nothing)", offFrames, onFrames)
	}
	// Worst E2E proxies queue depth: the saturated per-frame path must
	// queue far deeper than the batched path.
	if onWorst*2 > offWorst {
		t.Fatalf("batching did not relieve saturation: worst E2E %.0fms batched vs %.0fms per-frame", onWorst, offWorst)
	}
	if onP95*2 > offP95 {
		t.Fatalf("batching did not cut tail latency: p95 %.0fms batched vs %.0fms per-frame", onP95, offP95)
	}
}

// TestSessionBatchWindow asserts a standalone session can batch its own
// feed when the window spans multiple frame periods, and that batching
// never changes the processed-frame accounting.
func TestSessionBatchWindow(t *testing.T) {
	mk := func(batch BatchPolicy) *Session {
		return &Session{
			Frames: 20, FrameFPS: 10, Policy: QueuePolicy{}, Seed: 9,
			Graph: TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8XLarge)),
			Batch: batch,
		}
	}
	plain, err := mk(BatchPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	batched, err := mk(BatchPolicy{MaxBatch: 4, WindowMS: 400}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Frames) != len(plain.Frames) {
		t.Fatalf("batched session processed %d frames, plain %d", len(batched.Frames), len(plain.Frames))
	}
	if batched.Dropped != plain.Dropped {
		t.Fatalf("batched drops %d != plain %d", batched.Dropped, plain.Dropped)
	}
}
