package pipeline

import (
	"reflect"
	"runtime"
	"testing"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

// --- Graph validation ---

func TestGraphValidateTopoOrder(t *testing.T) {
	g := TimingVIPGraph(EdgePlacement(device.OrinAGX, models.V8Medium))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"detect", "pose", "depth"}
	if !reflect.DeepEqual(g.Stages(), want) {
		t.Fatalf("schedule order %v, want %v", g.Stages(), want)
	}
}

func TestGraphRejectsCycle(t *testing.T) {
	g := NewGraph().
		AddOn(NewTimingStage("a", models.V8Nano, []string{"b"}), device.OrinAGX).
		AddOn(NewTimingStage("b", models.V8Nano, []string{"a"}), device.OrinAGX)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestGraphRejectsUnknownDep(t *testing.T) {
	g := NewGraph().AddOn(NewTimingStage("a", models.V8Nano, []string{"ghost"}), device.OrinAGX)
	if err := g.Validate(); err == nil {
		t.Fatal("unknown dependency accepted")
	}
}

func TestGraphRejectsDuplicateAndSelfDep(t *testing.T) {
	g := NewGraph().
		AddOn(NewTimingStage("a", models.V8Nano, nil), device.OrinAGX).
		AddOn(NewTimingStage("a", models.V8Nano, nil), device.OrinAGX)
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate stage name accepted")
	}
	g2 := NewGraph().AddOn(NewTimingStage("a", models.V8Nano, []string{"a"}), device.OrinAGX)
	if err := g2.Validate(); err == nil {
		t.Fatal("self-dependency accepted")
	}
}

func TestGraphRejectsEmpty(t *testing.T) {
	if err := NewGraph().Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// --- Back-pressure policies ---

// overloadedSession runs a timing-only feed whose detector placement
// (x-large on Xavier NX, ~1 s service) can never keep a 100 ms period.
func overloadedSession(pol Policy) *Session {
	return &Session{
		Frames: 30, FrameFPS: 10, Seed: 9, Policy: pol,
		Graph: TimingVIPGraph(EdgePlacement(device.XavierNX, models.V8XLarge)),
	}
}

func TestDropPolicyAccounting(t *testing.T) {
	res, err := overloadedSession(DropPolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("overloaded drop-when-busy session dropped nothing")
	}
	if res.Dropped+len(res.Frames) != 30 {
		t.Fatalf("drop accounting: %d dropped + %d processed != 30", res.Dropped, len(res.Frames))
	}
	// Dropped frames must not exceed the feed and processed frames never
	// queue: each processed frame's detect latency ≈ one service time.
	if res.E2E.P95MS > 3000 {
		t.Fatalf("drop policy let a queue build: p95 %.0f ms", res.E2E.P95MS)
	}
}

func TestQueuePolicyBudgetAccounting(t *testing.T) {
	unbounded, err := overloadedSession(QueuePolicy{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Dropped != 0 || len(unbounded.Frames) != 30 {
		t.Fatalf("unbounded queue dropped %d frames", unbounded.Dropped)
	}
	// An overloaded unbounded queue grows without bound: the p95 latency
	// must dwarf a single ~1 s service time.
	if unbounded.E2E.P95MS < 3000 {
		t.Fatalf("unbounded queue did not build: p95 %.0f ms", unbounded.E2E.P95MS)
	}

	budget, err := overloadedSession(QueuePolicy{BudgetMS: 500}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if budget.Dropped == 0 {
		t.Fatal("budgeted queue shed nothing under overload")
	}
	if budget.Dropped+len(budget.Frames) != 30 {
		t.Fatalf("budget accounting: %d + %d != 30", budget.Dropped, len(budget.Frames))
	}
	if budget.Dropped <= 0 || budget.Dropped >= unbounded.Dropped+30 {
		t.Fatalf("budget drops out of range: %d", budget.Dropped)
	}
}

func TestStaleSkipPolicyAccounting(t *testing.T) {
	// Fast root (x-large on the workstation keeps a 100 ms period), slow
	// auxiliaries (x-large-class load on an Orin Nano cannot), so the
	// stale-skip policy admits every frame and sheds downstream work.
	place := map[StageID]Placement{
		StageDetect: {Device: device.RTX4090, Model: models.V8XLarge},
		StagePose:   {Device: device.OrinNano, Model: models.V8XLarge},
		StageDepth:  {Device: device.OrinNano, Model: models.Monodepth2},
	}
	s := &Session{
		Frames: 30, FrameFPS: 10, Seed: 9, Policy: StaleSkipPolicy{},
		Graph: TimingVIPGraph(place), EdgeRTTms: 20,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("stale-skip dropped %d whole frames", res.Dropped)
	}
	if len(res.Frames) != 30 {
		t.Fatalf("processed %d frames", len(res.Frames))
	}
	if res.StageSkips["pose"] == 0 {
		t.Fatalf("no pose skips under aux overload: %v", res.StageSkips)
	}
	// Skips plus runs must account for every admitted frame.
	ran := 0
	for _, f := range res.Frames {
		if _, ok := f.StageMS["pose"]; ok {
			ran++
		}
	}
	if ran+res.StageSkips["pose"] != 30 {
		t.Fatalf("pose accounting: %d ran + %d skipped != 30", ran, res.StageSkips["pose"])
	}
}

// --- Fleet ---

func testFleet(drones int, sharedSeed uint64) *Fleet {
	sessions := make([]*Session, drones)
	for i := range sessions {
		place := HybridPlacement(device.OrinNano, models.V8XLarge)
		sessions[i] = &Session{
			ID: i, Frames: 40, FrameFPS: 10, EdgeRTTms: 25,
			Policy: DropPolicy{}, Seed: 101 + uint64(i)*17, OffsetMS: float64(i) * 3,
			Graph: TimingVIPGraph(place),
		}
	}
	return &Fleet{Sessions: sessions, SharedSeed: sharedSeed}
}

func TestFleetDeterministicUnderFixedSeed(t *testing.T) {
	a, err := testFleet(3, 77).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testFleet(3, 77).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fleet results differ across identical seeded runs")
	}
}

// TestFleetAnalyticsFanOutMatchesSerial runs four real-frame sessions
// (one trained stack, each session its own graph and tracker) with the
// analytics phase on two workers and on one: the results must be
// deep-equal, and under -race the run is the proof that sessions share
// only what is synchronised.
func TestFleetAnalyticsFanOutMatchesSerial(t *testing.T) {
	det, fall, est := buildStack(t)
	run := func(procs int) []StreamResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sessions := make([]*Session, 4)
		for i := range sessions {
			clip := video.New(video.Spec{
				ID: i + 1, DurationSec: 2, FPS: 30, W: 320, H: 240,
				Background: scene.Background(i % 3), Lighting: 1.0, Seed: 60 + uint64(i), Pedestrians: i % 3,
			})
			place := EdgePlacement(device.OrinAGX, models.V8Medium)
			sessions[i] = &Session{
				ID: i, Source: clip, Graph: VIPGraph(det, fall, est, place, 4, true),
				FrameFPS: 10, MaxFrames: 6, Seed: 101 + uint64(i)*17, OffsetMS: float64(i) * 3,
			}
		}
		res, err := (&Fleet{Sessions: sessions, SharedSeed: 77}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, fanned := run(1), run(2)
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("fleet results at two analytics workers differ from the serial run")
	}
	if serial[0].DetectionRate == 0 {
		t.Fatal("real-frame fleet detected nothing: the comparison is vacuous")
	}
}

func TestFleetContentionOnSharedWorkstation(t *testing.T) {
	solo, err := testFleet(1, 77).Run()
	if err != nil {
		t.Fatal(err)
	}
	packed, err := testFleet(8, 77).Run()
	if err != nil {
		t.Fatal(err)
	}
	// 8 drones × 10 FPS against one ~18 ms/frame workstation detector is
	// >140% utilisation: contention must shed frames that a solo drone
	// keeps.
	soloDropped, packedDropped := solo[0].Dropped, 0
	for _, r := range packed {
		packedDropped += r.Dropped
	}
	if packedDropped <= soloDropped*8 {
		t.Fatalf("no contention signal: solo dropped %d, fleet of 8 dropped %d", soloDropped, packedDropped)
	}
	for _, r := range packed {
		if len(r.Frames)+r.Dropped != 40 {
			t.Fatalf("session %d accounting: %d + %d != 40", r.Session, len(r.Frames), r.Dropped)
		}
	}
}

func TestFleetRejectsInvalidGraphAndEmpty(t *testing.T) {
	if _, err := (&Fleet{}).Run(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	bad := &Session{Frames: 5, Graph: NewGraph().AddOn(NewTimingStage("a", models.V8Nano, []string{"a"}), device.OrinAGX)}
	if _, err := (&Fleet{Sessions: []*Session{bad}}).Run(); err == nil {
		t.Fatal("fleet with cyclic session graph accepted")
	}
}

// --- Live re-placement ---

// swapAt re-places one stage with a fixed new placement after n frames.
type swapAt struct {
	after   int
	stage   string
	to      Placement
	seen    int
	applied bool
}

func (p *swapAt) Rebind(stat FrameStat) map[string]Placement {
	p.seen++
	if p.seen >= p.after && !p.applied {
		p.applied = true
		return map[string]Placement{p.stage: p.to}
	}
	return nil
}

func TestMidStreamPlacementSwapPreservesFrameStats(t *testing.T) {
	// Start with the detector drowning on a Xavier NX (~1 s service per
	// 100 ms period), swap it to the workstation after 10 frames.
	placer := &swapAt{after: 10, stage: "detect", to: Placement{Device: device.RTX4090, Model: models.V8XLarge}}
	s := &Session{
		Frames: 30, FrameFPS: 10, Seed: 5, EdgeRTTms: 25,
		Policy: QueuePolicy{}, Placer: placer,
		Graph: TimingVIPGraph(EdgePlacement(device.XavierNX, models.V8XLarge)),
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 30 {
		t.Fatalf("swap lost frames: %d", len(res.Frames))
	}
	if res.Rebinds != 1 {
		t.Fatalf("rebinds %d, want 1", res.Rebinds)
	}
	for i, f := range res.Frames {
		if f.StageMS == nil || f.StageMS["detect"] <= 0 {
			t.Fatalf("frame %d missing detect stat after swap: %+v", i, f)
		}
	}
	// After the swap the detector runs in ~18 ms (+25 ms RTT) instead of
	// ~1 s: the tail frames must be far faster than the head frames.
	head, tail := res.Frames[5].StageMS["detect"], res.Frames[29].StageMS["detect"]
	if tail >= head {
		t.Fatalf("swap did not speed up detection: head %.0f ms, tail %.0f ms", head, tail)
	}
	if tail > 200 {
		t.Fatalf("post-swap detect latency %.0f ms still edge-bound", tail)
	}
}

func TestAdaptivePlacementRebindsOnLatencyPressure(t *testing.T) {
	// Two arms, fast→accurate; start on the slow accurate arm. Every
	// frame misses the deadline, so the controller must downshift at its
	// first window boundary and the placer must re-place the detector.
	arms := []adaptive.Arm{
		{Name: "nano@o-nano", Model: models.V8Nano, Dev: device.OrinNano, Accuracy: 0.99, RobustAccuracy: 0.8},
		{Name: "xlarge@nx", Model: models.V8XLarge, Dev: device.XavierNX, Accuracy: 0.999, RobustAccuracy: 0.99},
	}
	ctl := adaptive.NewController(arms, 1, adaptive.Config{Window: 10})
	s := &Session{
		Frames: 60, FrameFPS: 10, Seed: 6,
		Policy: DropPolicy{}, Placer: &AdaptivePlacement{Stage: "detect", Ctl: ctl},
		Graph: TimingVIPGraph(EdgePlacement(device.XavierNX, models.V8XLarge)),
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebinds == 0 || ctl.ArmIndex() != 0 {
		t.Fatalf("controller did not downshift: rebinds=%d arm=%d", res.Rebinds, ctl.ArmIndex())
	}
	// Post-swap the nano-on-nano detector (~36 ms) meets the period.
	last := res.Frames[len(res.Frames)-1]
	if last.StageMS["detect"] > 100 {
		t.Fatalf("post-adaptation detect latency %.0f ms", last.StageMS["detect"])
	}
}

// --- User-defined fourth stage, end to end ---

// crowdStage is a user-defined fourth stage: it counts bystanders near
// the VIP from the frame's annotated distractor boxes and raises an
// obstacle-style alert when the scene is crowded.
type crowdStage struct {
	threshold int
	ran       int
}

func (c *crowdStage) Name() string     { return "crowd" }
func (c *crowdStage) Model() models.ID { return models.V8Nano }
func (c *crowdStage) Deps() []string   { return []string{"detect"} }
func (c *crowdStage) Analyze(fc *FrameCtx) bool {
	if fc.Image == nil {
		return true
	}
	c.ran++
	n := len(fc.Truth.DistractorBoxes)
	fc.Values["crowd"] = float64(n)
	if n >= c.threshold {
		fc.Alert(AlertObstacle, "crowded scene")
	}
	return true
}

func TestUserDefinedFourthStageEndToEnd(t *testing.T) {
	det, fall, est := buildStack(t)
	v := video.New(video.Spec{
		ID: 9, DurationSec: 2, FPS: 30, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 1.0, Seed: 31, Pedestrians: 2, ParkedCars: 1,
	})
	crowd := &crowdStage{threshold: 1}
	place := EdgePlacement(device.OrinAGX, models.V8Medium)
	g := VIPGraph(det, fall, est, place, 4, false).
		Add(crowd, Placement{Device: device.OrinAGX, Model: models.V8Nano})
	s := &Session{Source: v, Graph: g, FrameFPS: 10, MaxFrames: 10, Seed: 8}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 10 {
		t.Fatalf("processed %d frames", len(res.Frames))
	}
	if crowd.ran != 10 {
		t.Fatalf("fourth stage ran %d times", crowd.ran)
	}
	for i, f := range res.Frames {
		if _, ok := f.StageMS["crowd"]; !ok {
			t.Fatalf("frame %d missing crowd stage latency", i)
		}
		if f.E2EMS < f.StageMS["crowd"] {
			t.Fatalf("e2e %.1f below crowd stage %.1f", f.E2EMS, f.StageMS["crowd"])
		}
	}
	if res.DetectionRate < 0.8 {
		t.Fatalf("detection rate %.2f with fourth stage attached", res.DetectionRate)
	}
}

func TestSessionRerunStartsFromFreshExecutors(t *testing.T) {
	// A reused session must not inherit the previous run's executor busy
	// horizons: with a stateless (timing-only) graph, two runs are
	// byte-identical.
	s := overloadedSession(DropPolicy{})
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun diverged: %d/%d processed then %d/%d",
			len(a.Frames), a.Dropped, len(b.Frames), b.Dropped)
	}
}
