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
	// Engine runs every stage interpreted (the zero value, the exact
	// pre-plan schedule) or planned: each stage then pays the one-time
	// device.PlanCompileMS on its first job per placement (again after
	// a live re-placement) and reuses the plan on every later job.
	Engine device.Engine
	// Outages injects device downtime windows into the run: each entry
	// holds its device's stream until ToMS once the first frame at or
	// after FromMS arrives. Nil (or never-reached outages) replays the
	// outage-free schedule bit for bit. See Outage.
	Outages []Outage
	// Temporal enables the cross-frame degradation ladder on the
	// session's root stages: queue pressure steps the root inference
	// down to ROI / early-exit cost by scaling the device job's service
	// time, and inside the ladder's fixed staleness budget (at most
	// temporal.MaxBridged in a row after a real root inference) a
	// tracker-bridged frame skips the device entirely, charged the
	// ladder's bridge cost. The zero value replays the pre-temporal
	// schedule bit for bit.
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

// validate rejects what the timing cannot use, each field by name: a
// missing graph or a negative frame count; a NaN or infinite FrameFPS,
// or one so small its period overflows (0 and below take the default);
// an EdgeRTTms outside 0 to maxRTTMS; a non-finite OffsetMS; a
// non-finite or decreasing open-loop trace, which would corrupt the
// executors' busy-time accounting and the replay's arrival order; an
// outage with a non-finite bound; a NaN or negative batching window; a
// back-pressure policy whose budget is not finite (a NaN budget compares
// false against every backlog, so it sheds every frame or stage).
func (s *Session) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("pipeline: session %d has no Graph", s.ID)
	}
	if s.Frames < 0 {
		return fmt.Errorf("pipeline: session %d Frames is %d, want non-negative", s.ID, s.Frames)
	}
	if !finite(s.FrameFPS) || s.FrameFPS > 0 && !finite(1e3/s.FrameFPS) {
		return fmt.Errorf("pipeline: session %d FrameFPS is %v, want finite with a finite period", s.ID, s.FrameFPS)
	}
	if !(s.EdgeRTTms >= 0 && s.EdgeRTTms <= maxRTTMS) {
		return fmt.Errorf("pipeline: session %d EdgeRTTms is %v, want 0 to %v ms", s.ID, s.EdgeRTTms, maxRTTMS)
	}
	if !finite(s.OffsetMS) {
		return fmt.Errorf("pipeline: session %d OffsetMS is %v, want finite", s.ID, s.OffsetMS)
	}
	for i, a := range s.ArrivalsMS {
		if !finite(a) {
			return fmt.Errorf("pipeline: session %d ArrivalsMS[%d] is %v, want finite", s.ID, i, a)
		}
		if i > 0 && a < s.ArrivalsMS[i-1] {
			return fmt.Errorf("pipeline: session %d ArrivalsMS decreases at index %d (%v after %v)",
				s.ID, i, a, s.ArrivalsMS[i-1])
		}
	}
	if err := validOutages(s.Outages); err != nil {
		return fmt.Errorf("pipeline: session %d %w", s.ID, err)
	}
	if err := validBatch(s.Batch); err != nil {
		return fmt.Errorf("pipeline: session %d %w", s.ID, err)
	}
	switch p := s.Policy.(type) {
	case QueuePolicy:
		if !finite(p.BudgetMS) {
			return fmt.Errorf("pipeline: session %d QueuePolicy.BudgetMS is %v, want finite", s.ID, p.BudgetMS)
		}
	case StaleSkipPolicy:
		if !finite(p.SlackFrames) {
			return fmt.Errorf("pipeline: session %d StaleSkipPolicy.SlackFrames is %v, want finite", s.ID, p.SlackFrames)
		}
	}
	return nil
}

// maxRTTMS caps EdgeRTTms at chaos's ceiling on a link's extra round
// trip: a frame whose three stages each pay a round trip near the float
// maximum finishes at +Inf.
const maxRTTMS = 1e9

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// validBatch rejects a batching window no arrival can be compared
// against: NaN (which silently never closes, as +Inf would) or negative.
func validBatch(b BatchPolicy) error {
	if math.IsNaN(b.WindowMS) || b.WindowMS < 0 {
		return fmt.Errorf("Batch.WindowMS is %v, want non-negative", b.WindowMS)
	}
	return nil
}

// validOutages rejects an outage whose window has a non-finite bound.
func validOutages(outs []Outage) error {
	for i, o := range outs {
		if !finite(o.FromMS) || !finite(o.ToMS) {
			return fmt.Errorf("Outages[%d] is [%v, %v], want finite bounds", i, o.FromMS, o.ToMS)
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

// execEnv is one session's live scheduling state: placements and
// executor resolution. Every count — drops, skips, rebinds, compiles,
// the ladder's rungs — goes straight into the session's result.
type execEnv struct {
	sess   *Session
	res    *StreamResult
	place  map[string]Placement
	shared *device.Cluster // fleet-shared executors for non-edge devices
	// compiled tracks, per planned stage, the placement its plan was
	// compiled for: the first job after a (re-)placement carries the
	// one-time compile surcharge, every later frame reuses the plan.
	compiled map[string]Placement
	// outages is the merged session+fleet downtime schedule, sorted by
	// onset; outageCur is the next not-yet-applied entry.
	outages   []Outage
	outageCur int
	// Temporal ladder state (nil tpol = ladder off): the stream's
	// bridging budget, the same temporal.Track serve keeps per tenant,
	// re-anchored by every real root inference.
	tpol  *temporal.Policy
	track temporal.Track
}

func (s *Session) env(res *StreamResult, shared *device.Cluster, fleetOutages []Outage) *execEnv {
	*res = StreamResult{Session: s.ID, StageSkips: map[string]int{}}
	e := &execEnv{sess: s, res: res, place: s.Graph.Placements(), shared: shared,
		compiled: map[string]Placement{}, outages: sortedOutages(s.Outages, fleetOutages)}
	if s.Temporal.Enabled {
		e.tpol = temporal.NewPolicy(temporal.Config{})
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
	if e.sess.Engine != device.Planned {
		return 0
	}
	if cp, ok := e.compiled[stage]; ok && cp == p {
		return 0
	}
	e.compiled[stage] = p
	e.res.PlanCompiles++
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
func (e *execEnv) deliver(fc *FrameCtx, stat FrameStat) {
	for _, sa := range fc.alerts {
		if _, ok := stat.StageMS[sa.stage]; ok {
			e.res.Alerts = append(e.res.Alerts, sa.alert)
		}
	}
	e.res.Frames = append(e.res.Frames, stat)
	e.consultPlacer(stat)
}

// dropFrame accounts a policy-rejected frame and reports the drop to the
// placement policy as latency pressure.
func (e *execEnv) dropFrame(frameIndex int) {
	e.res.Dropped++
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
		e.res.Rebinds++
	}
}

// finalize computes the summary statistics of a completed stream.
func (e *execEnv) finalize() {
	res := e.res
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
	if e.tpol != nil {
		res.ForcedRefreshes = e.tpol.ForcedRefreshes()
	}
}

// Run processes the session's feed through its graph: analytics are real
// (rendered pixels in, alerts out), timing is simulated per the device
// model. It is the one-session case of Fleet.Run's replay, with every
// device the session's own and each stage analysing a frame inline when
// its wave is scheduled, so a frame the policy drops or a stage it
// skips is never analysed. With s.Batch enabled, frames arriving within
// the batching window coalesce into micro-batched stage inferences (see
// BatchPolicy); disabled, every frame takes the per-frame path.
func (s *Session) Run() (StreamResult, error) {
	rs, err := (&Fleet{Sessions: []*Session{s}, Batch: s.Batch}).replay(false)
	if err != nil {
		return StreamResult{}, err
	}
	return rs[0], nil
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
func (f *Fleet) Run() ([]StreamResult, error) { return f.replay(true) }

// replay is the pipeline's one scheduling loop. A fleet (shared) runs
// its non-edge devices on one cluster seeded by SharedSeed and analyses
// every frame up front; a standalone session (!shared) keeps every
// device its own and analyses inline at flush time.
func (f *Fleet) replay(shared bool) ([]StreamResult, error) {
	if len(f.Sessions) == 0 {
		return nil, fmt.Errorf("pipeline: fleet with no sessions")
	}
	for _, s := range f.Sessions {
		if err := s.validate(); err != nil {
			return nil, err
		}
		s.defaults()
		if err := s.Graph.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: session %d: %w", s.ID, err)
		}
	}
	if err := validOutages(f.Outages); err != nil {
		return nil, fmt.Errorf("pipeline: fleet %w", err)
	}
	if err := validBatch(f.Batch); err != nil {
		return nil, fmt.Errorf("pipeline: fleet %w", err)
	}
	var cluster *device.Cluster
	if shared {
		cluster = device.NewCluster(f.SharedSeed)
	}

	// Phase 1 — frames, and for a fleet their analytics, parallel across
	// sessions. Pixel work is pure per frame; stage state stays
	// session-local because each session owns its graph. A session is
	// milliseconds of work, so the worker count is named (ForWith gives
	// at most one per session) rather than left to For's row-sized
	// grain, under which no fleet here fanned out.
	fcs := make([][]*FrameCtx, len(f.Sessions))
	parallel.ForWith(parallel.DefaultWorkers(), len(f.Sessions), func(i int) {
		s := f.Sessions[i]
		fs := s.extract()
		fcs[i] = make([]*FrameCtx, len(fs))
		for j, fr := range fs {
			fc := newFrameCtx(s.ID, fr.FrameIndex, fr.Image, fr.Truth)
			if shared {
				for _, idx := range s.Graph.order {
					fc.analyze(s.Graph.nodes[idx].stage)
				}
			}
			fcs[i][j] = fc
		}
	})

	// Phase 2 — timing, serial in global arrival order (stable on ties
	// by session index) for determinism and faithful contention. One
	// session's frames keep their order: validate keeps its arrivals
	// non-decreasing.
	var events []fleetEvent
	for i, s := range f.Sessions {
		period := s.periodMS()
		for j := range fcs[i] {
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
		envs[i] = s.env(&results[i], cluster, f.Outages)
	}
	// Admitted frames accumulate into a flush group that closes when it
	// fills or when a frame arrives past its oldest member's window —
	// before that frame's admission, so the policy sees the post-flush
	// executor horizons. MaxBatch <= 1 flushes every frame alone.
	var group []groupFrame
	flush := func() {
		flushGroup(group, f.Batch, !shared)
		group = group[:0]
	}
	for _, ev := range events {
		env, fc := envs[ev.sess], fcs[ev.sess][ev.frame]
		if len(group) > 0 && ev.arrival > group[0].arrival+f.Batch.WindowMS {
			flush()
		}
		env.applyOutages(ev.arrival)
		if !env.admit(ev.arrival) {
			env.dropFrame(fc.FrameIndex)
			continue
		}
		group = append(group, groupFrame{env: env, fc: fc, arrival: ev.arrival})
		if len(group) >= f.Batch.MaxBatch {
			flush()
		}
	}
	flush()
	for _, e := range envs {
		e.finalize()
	}
	return results, nil
}
