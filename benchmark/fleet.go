package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"ocularone/internal/bench"
	"ocularone/internal/core"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

// Both fleet workloads run one pipeline.Fleet.Run per operation with
// every stage on the shared RTX 4090. Sessions and graphs hold live
// state, so each operation builds its own.

// ringSeed derives ring slot k's seed so that two -seed values share no
// ring input (the largest ring is the 64 traffic seeds of serve_*).
func ringSeed(seed uint64, k int) uint64 { return seed*64 + uint64(k) }

var workstationPlacement = map[pipeline.StageID]pipeline.Placement{
	pipeline.StageDetect: {Device: device.RTX4090, Model: models.V8Medium},
	pipeline.StagePose:   {Device: device.RTX4090, Model: models.Bodypose},
	pipeline.StageDepth:  {Device: device.RTX4090, Model: models.Monodepth2},
}

var fleetModels = []models.ID{models.V8Medium, models.Bodypose, models.Monodepth2}

// fleetTally is what one Fleet.Run delivered. fp folds every frame's
// simulated timing and outcome, so two runs of one ring slot can be
// compared in one word.
type fleetTally struct {
	fp                                             uint64
	offered, processed, dropped, skips, deadlineOK int
	found, useful, alerts, compiles                int
	e2e                                            []float64 // reference tallies only
	bad                                            error
}

// tally folds the stream results and checks frame conservation:
// processed + dropped = offered, per session. A useful frame met the
// period and, on real frames, found the VIP (timing-only frames carry no
// detection). keep also collects the per-frame latencies (set-up only;
// the timed ops allocate nothing here).
func tally(rs []pipeline.StreamResult, offeredPerSession int, realFrames, keep bool) fleetTally {
	t := fleetTally{fp: fnvOffset}
	for _, r := range rs {
		if len(r.Frames)+r.Dropped != offeredPerSession && t.bad == nil {
			t.bad = fmt.Errorf("session %d: %d processed + %d dropped != %d offered",
				r.Session, len(r.Frames), r.Dropped, offeredPerSession)
		}
		t.offered += offeredPerSession
		t.processed += len(r.Frames)
		t.dropped += r.Dropped
		t.alerts += len(r.Alerts)
		t.compiles += r.PlanCompiles
		for _, name := range [...]string{"detect", "pose", "depth"} {
			t.skips += r.StageSkips[name]
		}
		t.fp = mix(mix(mix(t.fp, uint64(len(r.Frames))), uint64(r.Dropped)), uint64(len(r.Alerts)))
		for i := range r.Frames {
			f := &r.Frames[i]
			flags := uint64(f.FrameIndex) << 2
			if f.Deadline {
				t.deadlineOK++
				flags |= 1
			}
			if f.VIPFound {
				t.found++
				flags |= 2
			}
			if f.Deadline && (f.VIPFound || !realFrames) {
				t.useful++
			}
			t.fp = mix(mix(t.fp, flags), math.Float64bits(f.E2EMS))
			if keep {
				t.e2e = append(t.e2e, f.E2EMS)
			}
		}
	}
	return t
}

// fleetSim pools the ring's reference tallies into the simulated trio.
// A useful answer met the frame period and, on real frames, found the
// VIP; a stage skip loses a third of a frame of the three-stage graph.
func fleetSim(refs []fleetTally, simSecondsPerOp float64) simStats {
	var useful, offered, lost float64
	var e2e []float64
	for _, r := range refs {
		useful += float64(r.useful)
		offered += float64(r.offered)
		lost += float64(r.dropped) + float64(r.skips)/3
		e2e = append(e2e, r.e2e...)
	}
	return simStats{
		goodputPerS: useful / (simSecondsPerOp * float64(len(refs))),
		p99MS:       quantile(sorted(e2e), 0.99),
		servedShare: 1 - lost/offered,
	}
}

// spanCtx is what the stage and source wrappers record under: the op's
// laps, its tracer (both nil at set-up), and the Fleet.Run span, which
// opens after the fleet is built.
type spanCtx struct {
	tr        *tracer
	lp        *laps
	opID, run int32
}

// fleetBuilder assembles a ring slot's fleet.
type fleetBuilder func(slot int, sc *spanCtx) *pipeline.Fleet

// fleetInstance runs build+Run+tally per op and holds the reference
// tally of each of the ring's fleets, from which the simulated trio is
// pooled. The timed ops replay the first replay of them; with oneSlot
// the fleets cost the same and share one slot of floors.
func fleetInstance(build fleetBuilder, ring, replay, framesPerSession int, realFrames, oneSlot bool) (*instance, []fleetTally, error) {
	refs := make([]fleetTally, ring)
	sessions := 0
	for slot := range refs {
		f := build(slot, &spanCtx{})
		sessions = len(f.Sessions)
		rs, err := f.Run()
		if err != nil {
			return nil, nil, err
		}
		refs[slot] = tally(rs, framesPerSession, realFrames, true)
	}
	inst := &instance{
		itemsPerOp: float64(sessions * framesPerSession),
		ring:       replay,
		sim:        fleetSim(refs, float64(framesPerSession)/fleetFPS),
	}
	if oneSlot {
		inst.ring = 1
	}
	// sc is reused by every op, so that the timed ops allocate nothing of
	// the benchmark's own.
	sc := &spanCtx{}
	inst.op = func(i int, tr *tracer, lp *laps) error {
		slot := i % replay
		op := tr.begin(spOp, -1, int32(i), -1)
		*sc = spanCtx{tr: tr, lp: lp, opID: int32(i)}
		sp := tr.begin(spBuildFleet, op, int32(i), -1)
		f := build(slot, sc)
		tr.end(sp)
		lp.mark()
		sc.run = tr.begin(spFleetRun, op, int32(i), -1)
		rs, err := f.Run()
		tr.end(sc.run)
		lp.mark()
		sp = tr.begin(spTally, op, int32(i), -1)
		got := tally(rs, framesPerSession, realFrames, false)
		tr.end(sp)
		tr.end(op)
		switch {
		case err != nil:
			return err
		case refs[slot].bad != nil:
			return refs[slot].bad
		case got.bad != nil:
			return got.bad
		case got.fp != refs[slot].fp:
			return fmt.Errorf("ring slot %d: fleet result differs from its first run", slot)
		}
		return nil
	}
	return inst, refs, nil
}

const (
	timingRing   = 8
	timingDrones = 24
	timingFrames = 200
	fleetFPS     = 10
)

// setupFleetTiming: 24 timing-only sessions x 200 frames at 10 FPS,
// evenly staggered. The shared GPU's knee is a cliff at this commit
// (24 drones: every frame meets the period; 25: 89-98 % with a p99 that
// moves 50 % from seed to seed; 26: 6-9 %), so the workload sits on the
// last point whose simulated statistics repeat across seeds. Executor
// jitter is seeded from -seed.
func setupFleetTiming(seed uint64) (*instance, error) {
	warmDeviceModel(fleetModels...)
	build := func(slot int, _ *spanCtx) *pipeline.Fleet {
		s := ringSeed(seed, slot)
		sessions := make([]*pipeline.Session, timingDrones)
		for i := range sessions {
			sessions[i] = &pipeline.Session{
				ID: i, Frames: timingFrames, FrameFPS: fleetFPS,
				Policy:   pipeline.StaleSkipPolicy{SlackFrames: 1},
				Seed:     s + uint64(i)*211,
				OffsetMS: float64(i) * (1e3 / fleetFPS) / timingDrones,
				Graph:    pipeline.TimingVIPGraph(workstationPlacement),
			}
		}
		return &pipeline.Fleet{Sessions: sessions, SharedSeed: s ^ 0x9e3779b9,
			Batch: pipeline.BatchPolicy{MaxBatch: 8, WindowMS: 25}}
	}
	inst, refs, err := fleetInstance(build, timingRing, timingRing, timingFrames, false, true)
	if err != nil {
		return nil, err
	}
	inst.layer = func(lc *layerCtx) {
		fleetLayers(lc, refs)
		deviceProbes(lc.out)
	}
	return inst, nil
}

const (
	// vipRing clip sets are run at set-up for the simulated trio (the p99
	// of two sets' 80 frames is their slowest frame and moved 10 % from
	// one -seed to the next). The timed ops replay vipReplay of them: at
	// ~180 ms an op a run fits ~90, and the floor of each part of each
	// slot is only as good as the number of times the part was replayed.
	vipRing   = 4
	vipReplay = 2
	vipDrones = 4
	vipFrames = 10
	// vipStackSeed trains the analytics stack. The trained models are
	// part of the system, like the engine weights; -seed draws the clips.
	vipStackSeed = 1
)

// stageCounts are what the stage wrappers saw.
type stageCounts struct {
	poseCalls, poseDeclined atomic.Int64
}

// timedStage delegates to a pipeline stage and marks the op's laps after
// it, so that each analysis of each frame is a part of its own; traced,
// it also records a span that carries the session id. Fleet.Run analyses
// its sessions one after the other at this commit (parallel.For runs
// fewer than 64 items inline), which is what lets laps tile the op; a
// change that makes them concurrent must first give each session its own
// laps here.
type timedStage struct {
	pipeline.Stage
	sc     *spanCtx
	name   int32
	counts *stageCounts
}

func (s timedStage) Analyze(fc *pipeline.FrameCtx) bool {
	sp := s.sc.tr.begin(s.name, s.sc.run, s.sc.opID, int32(fc.Session))
	ran := s.Stage.Analyze(fc)
	s.sc.tr.end(sp)
	s.sc.lp.mark()
	if s.name == spPose {
		s.counts.poseCalls.Add(1)
		if !ran {
			s.counts.poseDeclined.Add(1)
		}
	}
	return ran
}

type timedSource struct {
	*video.Video
	sc      *spanCtx
	session int32
}

func (s timedSource) Extract(targetFPS, limit int) []video.ExtractedFrame {
	sp := s.sc.tr.begin(spExtract, s.sc.run, s.sc.opID, s.session)
	fs := s.Video.Extract(targetFPS, limit)
	s.sc.tr.end(sp)
	s.sc.lp.mark()
	return fs
}

// setupVIPFleet: 4 drones x 10 real 320x240 frames through the trained
// stack, graph built stage by stage (detect+tracker -> pose, depth).
func setupVIPFleet(seed uint64) (*instance, error) {
	warmDeviceModel(fleetModels...)
	suite := core.New(bench.Scale{Data: 0.01, W: 320, H: 240, Seed: vipStackSeed, TrainFrac: 0.2})
	stack, err := suite.BuildStack(models.YOLOv8, models.Medium)
	if err != nil {
		return nil, fmt.Errorf("build stack: %w", err)
	}
	counts := &stageCounts{}
	build := func(slot int, sc *spanCtx) *pipeline.Fleet {
		sessions := make([]*pipeline.Session, vipDrones)
		for i := range sessions {
			k := slot*vipDrones + i
			clip := video.New(video.Spec{
				ID: k + 1, DurationSec: 2, FPS: 30, W: 320, H: 240,
				Background: scene.Background(k % 3), Lighting: 0.9 + 0.02*float64(k%5),
				Pedestrians: k % 3, Seed: ringSeed(seed, slot)*vipDrones + uint64(i),
			})
			var stages [3]pipeline.Stage
			stages[0] = pipeline.NewDetectStage(stack.Detector, models.V8Medium, true)
			stages[1] = pipeline.NewPoseStage(stack.Fall)
			stages[2] = pipeline.NewDepthStage(stack.Depth, 5)
			for j, name := range [...]int32{spDetect, spPose, spDepth} {
				stages[j] = timedStage{stages[j], sc, name, counts}
			}
			g := pipeline.NewGraph().
				Add(stages[0], workstationPlacement[pipeline.StageDetect]).
				Add(stages[1], workstationPlacement[pipeline.StagePose]).
				Add(stages[2], workstationPlacement[pipeline.StageDepth])
			sessions[i] = &pipeline.Session{
				ID: i, Source: timedSource{clip, sc, int32(i)}, Graph: g, Policy: pipeline.DropPolicy{},
				FrameFPS: fleetFPS, MaxFrames: vipFrames,
				Seed:     ringSeed(seed, slot) + uint64(i)*17,
				OffsetMS: float64(i) * (1e3 / fleetFPS) / vipDrones,
			}
		}
		return &pipeline.Fleet{Sessions: sessions, SharedSeed: ringSeed(seed, slot) ^ 0x9e3779b9,
			Batch: pipeline.BatchPolicy{MaxBatch: 4, WindowMS: 25}}
	}
	inst, refs, err := fleetInstance(build, vipRing, vipReplay, vipFrames, true, false)
	if err != nil {
		return nil, err
	}
	inst.layer = func(lc *layerCtx) {
		fleetLayers(lc, refs)
		out, st := lc.out, lc.stats
		const frames = vipDrones * vipFrames
		out["video.extract_ms_per_frame"] = st.floorMS(spExtract) / frames
		out["detect.analyze_ms_per_frame"] = st.floorMS(spDetect) / frames
		out["pose.analyze_ms_per_frame"] = st.floorMS(spPose) / frames
		out["depth.analyze_ms_per_frame"] = st.floorMS(spDepth) / frames
		out["pose.declined_share"] = share(counts.poseDeclined.Load(), counts.poseCalls.Load())
		var found, alerts, processed int64
		for _, r := range refs {
			found += int64(r.found)
			alerts += int64(r.alerts)
			processed += int64(r.processed)
		}
		out["detect.hit_share"] = share(found, processed)
		out["pipeline.alerts_per_frame"] = share(alerts, processed)
		out["parallel.for_overhead_us"] = parallelProbe()
	}
	return inst, nil
}

func fleetLayers(lc *layerCtx, refs []fleetTally) {
	out := lc.out
	var sum fleetTally
	for _, r := range refs {
		sum.offered += r.offered
		sum.processed += r.processed
		sum.dropped += r.dropped
		sum.skips += r.skips
		sum.deadlineOK += r.deadlineOK
		sum.compiles += r.compiles
		sum.e2e = append(sum.e2e, r.e2e...)
	}
	offeredPerOp := float64(sum.offered) / float64(len(refs))
	out["pipeline.fleet_run_self_us_per_frame"] = 1000 * lc.stats.floorSelfMS(spFleetRun) / offeredPerOp
	out["pipeline.allocs_per_frame"] = float64(lc.untraced.mallocs) / lc.untraced.ops() / offeredPerOp
	out["pipeline.sim_deadline_ok_share"] = share(int64(sum.deadlineOK), int64(sum.processed))
	out["pipeline.sim_stage_skip_share"] = share(int64(sum.skips), int64(3*sum.offered))
	out["pipeline.sim_dropped_share"] = share(int64(sum.dropped), int64(sum.offered))
	out["pipeline.sim_e2e_p50_ms"] = median(sum.e2e)
	out["pipeline.plan_compiles"] = float64(sum.compiles)
}
