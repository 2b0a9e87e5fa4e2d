package pipeline

import (
	"fmt"
	"math"
	"sort"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/metrics"
	"ocularone/internal/parallel"
	"ocularone/internal/temporal"
	"ocularone/internal/video"
)

// FrameSource feeds a session with annotated frames. *video.Video
// satisfies it; custom feeds (site cameras, replayed corpora) implement
// it to route arbitrary footage through a stage graph.
type FrameSource interface {
	Extract(targetFPS, limit int) []video.ExtractedFrame
}

// Session runs one drone feed through a stage graph. Each session owns
// its graph (stages may be stateful), its local edge executors, and its
// live placement map; a Fleet shares one workstation cluster between
// sessions to model multi-client contention.
//
// A Session may be Run more than once: every run starts from fresh
// local executors (same Seed, so identical jitter streams) and from the
// graph's default placements. Graph stages, however, keep their own
// state across runs — a DetectStage tracker remembers the previous
// stream — so build a fresh graph when runs must be independent.
type Session struct {
	// ID tags the session in fleet results (and FrameCtx.Session).
	ID int
	// Source supplies frames. When nil, the session generates Frames
	// timing-only frames (nil image) — the contention-study mode.
	Source FrameSource
	// Frames is the synthetic frame count used when Source is nil.
	Frames int
	// Graph is the session's validated stage graph.
	Graph *Graph
	// Policy is the back-pressure policy (default QueuePolicy{}).
	Policy Policy
	// Placer, when non-nil, observes each frame's stat and may re-place
	// stages live between frames (see PlacementPolicy).
	Placer PlacementPolicy
	// FrameFPS is the analysed frame rate (default 10, as the paper).
	FrameFPS float64
	// MaxFrames caps processed frames (0 = no cap).
	MaxFrames int
	// EdgeRTTms is the round trip charged for stages placed off-edge.
	EdgeRTTms float64
	// OffsetMS staggers this session's arrivals within a fleet.
	OffsetMS float64
	// ArrivalsMS, when non-nil, replaces the fixed-period schedule:
	// frame i arrives at OffsetMS + ArrivalsMS[i]. Feed it from
	// serve.Traffic.ArrivalTrace to drive the session from an open-loop
	// source (bursty, diurnal) instead of the closed-loop camera clock.
	// Offsets must be non-decreasing; frames past the end of the trace
	// continue at the periodic rate from the last traced arrival.
	ArrivalsMS []float64
	// Seed drives the session's local executor jitter.
	Seed uint64
	// Batch micro-batches the session's stage work when enabled
	// (standalone runs only; fleets batch across sessions via
	// Fleet.Batch).
	Batch BatchPolicy
	// Precision selects per-stage inference precision (nil = all FP32,
	// the exact pre-quantization schedule). See PrecisionPolicy.
	Precision PrecisionPolicy
	// Engine selects per-stage execution engines (nil = all
	// Interpreted, the exact pre-plan schedule). Planned stages compile
	// once per placement and reuse the plan across waves; see
	// EnginePolicy.
	Engine EnginePolicy
	// Outages injects device downtime windows into the run: each entry
	// holds its device's stream until ToMS once the first frame at or
	// after FromMS arrives. Nil (or never-reached outages) replays the
	// outage-free schedule bit for bit. See Outage.
	Outages []Outage
	// Temporal enables the cross-frame degradation ladder on the
	// session's root stages: queue pressure steps the root inference
	// down to ROI / early-exit cost by scaling the device job's service
	// time, and inside the staleness budget a tracker-bridged frame
	// skips the device entirely, charged Temporal.BridgeCostMS. The zero
	// value replays the pre-temporal schedule bit for bit.
	//
	// The ladder's staleness clock is shared with the back-pressure
	// layer: a bridged root advances the same forced-refresh clock
	// Select maintains, and a StaleSkipPolicy skip downstream of a
	// bridged root is counted loudly in StreamResult.DoubleSkips — the
	// two layers cannot double-skip silently (see StaleSkipPolicy).
	Temporal temporal.Layer

	local *device.Cluster
}

func (s *Session) defaults() {
	if s.FrameFPS <= 0 {
		s.FrameFPS = 10
	}
	if s.Policy == nil {
		s.Policy = QueuePolicy{}
	}
	// Fresh executors every run: a reused session must not inherit the
	// previous run's busy horizons and thermal state.
	s.local = device.NewCluster(s.Seed)
}

func (s *Session) periodMS() float64 { return 1e3 / s.FrameFPS }

// arrivalAt returns frame i's arrival time: the open-loop trace entry
// when one is set, the closed-loop camera clock otherwise.
func (s *Session) arrivalAt(i int, period float64) float64 {
	if n := len(s.ArrivalsMS); n > 0 {
		if i < n {
			return s.OffsetMS + s.ArrivalsMS[i]
		}
		return s.OffsetMS + s.ArrivalsMS[n-1] + float64(i-n+1)*period
	}
	return s.OffsetMS + float64(i)*period
}

// validate rejects a frame rate or round trip the timing cannot use —
// a NaN or infinite FrameFPS (0 and below take the default), a NaN,
// infinite or negative EdgeRTTms — and a decreasing open-loop trace,
// which would silently corrupt the executors' busy-time accounting.
func (s *Session) validate() error {
	if math.IsNaN(s.FrameFPS) || math.IsInf(s.FrameFPS, 0) {
		return fmt.Errorf("pipeline: session %d FrameFPS is %v, want finite", s.ID, s.FrameFPS)
	}
	if math.IsNaN(s.EdgeRTTms) || math.IsInf(s.EdgeRTTms, 0) || s.EdgeRTTms < 0 {
		return fmt.Errorf("pipeline: session %d EdgeRTTms is %v, want finite and non-negative", s.ID, s.EdgeRTTms)
	}
	for i := 1; i < len(s.ArrivalsMS); i++ {
		if s.ArrivalsMS[i] < s.ArrivalsMS[i-1] {
			return fmt.Errorf("pipeline: session %d ArrivalsMS decreases at index %d (%v after %v)",
				s.ID, i, s.ArrivalsMS[i], s.ArrivalsMS[i-1])
		}
	}
	return nil
}

// extract materialises the session's frame list.
func (s *Session) extract() []video.ExtractedFrame {
	if s.Source != nil {
		return s.Source.Extract(int(s.FrameFPS), s.MaxFrames)
	}
	n := s.Frames
	if s.MaxFrames > 0 && s.MaxFrames < n {
		n = s.MaxFrames
	}
	out := make([]video.ExtractedFrame, n)
	for i := range out {
		out[i] = video.ExtractedFrame{FrameIndex: i}
	}
	return out
}

// StreamResult aggregates one session's run.
type StreamResult struct {
	Session int
	Frames  []FrameStat
	Alerts  []Alert
	E2E     metrics.LatencySummary
	// DeadlineOK is the fraction of processed frames meeting the period.
	DeadlineOK float64
	// DetectionRate is the fraction of processed frames with VIP found.
	DetectionRate float64
	// Dropped counts frames rejected whole at the graph roots.
	Dropped int
	// PlanCompiles counts plan compilations charged to this stream: one
	// per planned stage placement, plus one per re-placement of a
	// planned stage.
	PlanCompiles int
	// StageSkips counts per-stage policy skips (stale work shed).
	StageSkips map[string]int
	// Rebinds counts live placement changes applied by the Placer.
	Rebinds int
	// Bridged counts root-stage frames served by tracker prediction
	// instead of a device inference (ladder rung L3; zero when the
	// session's Temporal ladder is off).
	Bridged int
	// ROIFrames and EarlyExitFrames count root inferences charged at
	// the reduced ladder rungs (L1 and L2).
	ROIFrames, EarlyExitFrames int
	// ForcedRefreshes counts full-frame passes forced by the ladder's
	// staleness clock.
	ForcedRefreshes int64
	// DoubleSkips counts downstream stage skips on frames whose root
	// was tracker-bridged — staleness compounding across the ladder and
	// the back-pressure policy, surfaced loudly so the two layers
	// cannot double-skip silently (see StaleSkipPolicy).
	DoubleSkips int
	// BridgeStaleMaxMS is the largest gap between a bridged frame and
	// the last real root inference anchoring it.
	BridgeStaleMaxMS float64
}

// PlacementPolicy adjusts stage placements live, between frames — the
// hook through which adaptive controllers drive mid-stream re-placement.
// Rebind observes one frame's stat and returns the placement changes to
// apply before the next frame (nil or empty = keep). Dropped frames are
// observed as synthetic stats with Dropped=true and Deadline=false: a
// shed frame is latency pressure the policy must see.
type PlacementPolicy interface {
	Rebind(stat FrameStat) map[string]Placement
}

// AdaptivePlacement plugs adaptive.Controller in as a PlacementPolicy:
// every processed frame feeds the controller's deadline and detection
// signals, and whenever the controller switches arms the named stage is
// re-placed onto the new arm's device and model.
type AdaptivePlacement struct {
	// Stage is the re-placed stage (typically "detect").
	Stage string
	Ctl   *adaptive.Controller
}

// Rebind feeds the frame outcome to the controller and emits the new
// placement when the active arm changed.
func (a *AdaptivePlacement) Rebind(stat FrameStat) map[string]Placement {
	if !a.Ctl.Observe(!stat.Deadline, !stat.VIPFound) {
		return nil
	}
	arm := a.Ctl.Arm()
	return map[string]Placement{a.Stage: {Device: arm.Dev, Model: arm.Model}}
}

// execEnv is one session's live scheduling state: placements, executor
// resolution, and drop/skip accounting.
type execEnv struct {
	sess    *Session
	place   map[string]Placement
	shared  *device.Cluster // fleet-shared executors for non-edge devices
	skips   map[string]int
	drops   int
	rebinds int
	// compiled tracks, per planned stage, the placement its plan was
	// compiled for: the first job after a (re-)placement carries the
	// one-time compile surcharge, every later frame reuses the plan.
	compiled map[string]Placement
	compiles int
	// outages is the merged session+fleet downtime schedule, sorted by
	// onset; outageCur is the next not-yet-applied entry.
	outages   []Outage
	outageCur int
	// Temporal ladder state (nil tpol = ladder off): the stream's
	// bridging budget, the same temporal.Track serve keeps per tenant,
	// re-anchored by every real root inference.
	tpol                   *temporal.Policy
	track                  temporal.Track
	bridged                int
	roiFrames, earlyFrames int
	doubleSkips            int
	staleMaxMS             float64
}

func (s *Session) env(shared *device.Cluster) *execEnv {
	e := &execEnv{sess: s, place: s.Graph.Placements(), shared: shared,
		skips: map[string]int{}, compiled: map[string]Placement{},
		outages: sortedOutages(s.Outages, nil)}
	if s.Temporal.Enabled {
		e.tpol = temporal.NewPolicy(s.Temporal.Ladder)
	}
	return e
}

// exFor resolves a device to its executor on the owning cluster: edge
// devices belong to the drone's own session-local cluster, everything
// else is fleet-shared when a shared cluster exists.
func (e *execEnv) exFor(d device.ID) *device.Executor {
	if e.shared != nil && !device.Registry(d).IsEdge() {
		return e.shared.Executor(d)
	}
	return e.sess.local.Executor(d)
}

// planCompile returns the one-time compile surcharge for one stage job:
// zero for interpreted stages and for planned stages whose current
// placement already carries a compiled plan. The first planned job of a
// placement — and the first after any re-placement — pays
// device.PlanCompileMS and records the placement as compiled.
func (e *execEnv) planCompile(stage string, p Placement, prec device.Precision) float64 {
	if e.sess.Engine.EngineFor(stage) != device.Planned {
		return 0
	}
	if cp, ok := e.compiled[stage]; ok && cp == p {
		return 0
	}
	e.compiled[stage] = p
	e.compiles++
	return device.PlanCompileMS(p.Model, p.Device, prec)
}

// rtt charges the network round trip for stages not on the edge device.
func (e *execEnv) rtt(p Placement) float64 {
	if device.Registry(p.Device).IsEdge() {
		return 0
	}
	return e.sess.EdgeRTTms
}

// admit applies the back-pressure policy at the graph roots.
func (e *execEnv) admit(arrival float64) bool {
	period := e.sess.periodMS()
	for _, r := range e.sess.Graph.roots {
		ex := e.exFor(e.place[r].Device)
		if !e.sess.Policy.AdmitFrame(arrival, ex.BusyUntilMS(), period) {
			return false
		}
	}
	return true
}

// deliver appends the alerts of delivered stages (those with a latency
// in stat.StageMS) to the result, then consults the placement policy.
func (e *execEnv) deliver(res *StreamResult, fc *FrameCtx, stat FrameStat) {
	for _, sa := range fc.alerts {
		if _, ok := stat.StageMS[sa.stage]; ok {
			res.Alerts = append(res.Alerts, sa.alert)
		}
	}
	res.Frames = append(res.Frames, stat)
	e.consultPlacer(stat)
}

// dropFrame accounts a policy-rejected frame and reports the drop to the
// placement policy as latency pressure.
func (e *execEnv) dropFrame(frameIndex int) {
	e.drops++
	e.consultPlacer(FrameStat{FrameIndex: frameIndex, Dropped: true, VIPFound: true})
}

// consultPlacer feeds one stat to the placement policy and applies any
// re-placements it returns (unknown stage names are ignored).
func (e *execEnv) consultPlacer(stat FrameStat) {
	if e.sess.Placer == nil {
		return
	}
	nb := e.sess.Placer.Rebind(stat)
	if len(nb) == 0 {
		return
	}
	changed := false
	for name, p := range nb {
		if _, ok := e.place[name]; ok && e.place[name] != p {
			e.place[name] = p
			changed = true
		}
	}
	if changed {
		e.rebinds++
	}
}

// finalize computes the summary statistics of a completed stream.
func (e *execEnv) finalize(res *StreamResult) {
	var e2e []float64
	deadlineHits, found := 0, 0
	for _, st := range res.Frames {
		e2e = append(e2e, st.E2EMS)
		if st.Deadline {
			deadlineHits++
		}
		if st.VIPFound {
			found++
		}
	}
	if n := len(res.Frames); n > 0 {
		res.DeadlineOK = float64(deadlineHits) / float64(n)
		res.DetectionRate = float64(found) / float64(n)
	}
	res.E2E = metrics.SummarizeMS(e2e)
	res.Dropped = e.drops
	res.StageSkips = e.skips
	res.Rebinds = e.rebinds
	res.PlanCompiles = e.compiles
	res.Bridged = e.bridged
	res.ROIFrames = e.roiFrames
	res.EarlyExitFrames = e.earlyFrames
	res.DoubleSkips = e.doubleSkips
	res.BridgeStaleMaxMS = e.staleMaxMS
	if e.tpol != nil {
		res.ForcedRefreshes = e.tpol.ForcedRefreshes()
	}
}

// Run processes the session's feed through its graph: analytics are real
// (rendered pixels in, alerts out), timing is simulated per the device
// model. With s.Batch enabled, frames arriving within the batching
// window coalesce into micro-batched stage inferences (see
// BatchPolicy); disabled, every frame takes the per-frame path.
func (s *Session) Run() (StreamResult, error) {
	if err := s.validate(); err != nil {
		return StreamResult{}, err
	}
	s.defaults()
	if err := s.Graph.Validate(); err != nil {
		return StreamResult{}, err
	}
	env := s.env(nil)
	res := StreamResult{Session: s.ID}
	period := s.periodMS()
	runner := newGroupRunner(s.Batch)
	analyze := func(st Stage, fc *FrameCtx) bool { return st.Analyze(fc) }
	for i, f := range s.extract() {
		arrival := s.arrivalAt(i, period)
		runner.closeWindow(arrival)
		env.applyOutages(arrival)
		if !env.admit(arrival) {
			env.dropFrame(f.FrameIndex)
			continue
		}
		fc := newFrameCtx(s.ID, f.FrameIndex, f.Image, f.Truth)
		runner.add(groupFrame{env: env, fc: fc, arrival: arrival, res: &res, analyze: analyze})
	}
	runner.flush()
	env.finalize(&res)
	return res, nil
}

// Fleet runs N concurrent drone sessions against shared workstation
// executors — the paper's multi-client future work. Frame analytics run
// in parallel across sessions (they are pure per-frame pixel work);
// the timing simulation then replays all sessions' frames in global
// arrival order against the shared executors, single-threaded, so fleet
// results are deterministic under a fixed seed.
//
// The replay interleaves sessions at frame granularity: all of a
// frame's stage jobs are submitted during its event. Contention on
// shared root stages (the usual deployment: a shared workstation
// detector) is therefore faithful FIFO; when a *downstream* stage is
// placed on a shared device, jobs from frames that arrived earlier are
// enqueued ahead even if their ready times are later, so cross-session
// queueing for shared non-root stages is approximate.
//
// Because analytics are precomputed for every extracted frame, stateful
// stages (e.g. a tracker) observe all frames including those the
// back-pressure policy later drops; dropped frames still deliver no
// alerts and no stats.
type Fleet struct {
	Sessions []*Session
	// SharedSeed seeds the shared workstation cluster.
	SharedSeed uint64
	// Batch micro-batches stage work across sessions: frames from any
	// session arriving within the window coalesce, so fleet detect jobs
	// sharing the workstation become batched inferences. Disabled (the
	// zero value), the replay is bit-identical to per-frame execution.
	Batch BatchPolicy
	// Outages injects fleet-wide device downtime: each entry is merged
	// into every session's schedule, so an outage on a shared device
	// (e.g. the workstation) is applied once no matter which session's
	// frame reaches it first (HoldUntil is idempotent). Nil replays the
	// outage-free schedule bit for bit.
	Outages []Outage
}

// fleetEvent is one (session, frame) arrival in the merged timeline.
type fleetEvent struct {
	sess    int
	frame   int
	arrival float64
}

// Run executes every session and returns their results in session order.
func (f *Fleet) Run() ([]StreamResult, error) {
	if len(f.Sessions) == 0 {
		return nil, fmt.Errorf("pipeline: fleet with no sessions")
	}
	shared := device.NewCluster(f.SharedSeed)
	for _, s := range f.Sessions {
		if err := s.validate(); err != nil {
			return nil, err
		}
		s.defaults()
		if err := s.Graph.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: session %d: %w", s.ID, err)
		}
	}

	// Phase 1 — analytics, parallel across sessions. Pixel work is pure
	// per frame; stage state stays session-local because each session
	// owns its graph. A session is milliseconds of work, so the worker
	// count is named (ForWith gives at most one per session) rather than
	// left to For's row-sized grain, under which no fleet here fanned out.
	frames := make([][]video.ExtractedFrame, len(f.Sessions))
	fcs := make([][]*FrameCtx, len(f.Sessions))
	parallel.ForWith(parallel.DefaultWorkers(), len(f.Sessions), func(i int) {
		s := f.Sessions[i]
		fs := s.extract()
		frames[i] = fs
		fcs[i] = make([]*FrameCtx, len(fs))
		for j, fr := range fs {
			fc := newFrameCtx(s.ID, fr.FrameIndex, fr.Image, fr.Truth)
			for _, idx := range s.Graph.order {
				st := s.Graph.nodes[idx].stage
				fc.cur = st.Name()
				fc.ran[st.Name()] = st.Analyze(fc)
			}
			fcs[i][j] = fc
		}
	})

	// Phase 2 — timing, serial in global arrival order (stable on ties
	// by session index) for determinism and faithful contention.
	var events []fleetEvent
	for i, s := range f.Sessions {
		period := s.periodMS()
		for j := range frames[i] {
			events = append(events, fleetEvent{sess: i, frame: j, arrival: s.arrivalAt(j, period)})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].arrival != events[b].arrival {
			return events[a].arrival < events[b].arrival
		}
		return events[a].sess < events[b].sess
	})

	envs := make([]*execEnv, len(f.Sessions))
	results := make([]StreamResult, len(f.Sessions))
	for i, s := range f.Sessions {
		envs[i] = s.env(shared)
		envs[i].outages = sortedOutages(s.Outages, f.Outages)
		results[i] = StreamResult{Session: s.ID}
	}
	runner := newGroupRunner(f.Batch)
	recall := func(st Stage, fc *FrameCtx) bool { return fc.ran[st.Name()] }
	for _, ev := range events {
		env := envs[ev.sess]
		runner.closeWindow(ev.arrival)
		env.applyOutages(ev.arrival)
		if !env.admit(ev.arrival) {
			env.dropFrame(fcs[ev.sess][ev.frame].FrameIndex)
			continue
		}
		runner.add(groupFrame{
			env: env, fc: fcs[ev.sess][ev.frame], arrival: ev.arrival,
			res: &results[ev.sess], analyze: recall,
		})
	}
	runner.flush()
	for i := range results {
		envs[i].finalize(&results[i])
	}
	return results, nil
}
