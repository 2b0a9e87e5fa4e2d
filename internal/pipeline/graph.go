package pipeline

import (
	"fmt"

	"ocularone/internal/detect"
	"ocularone/internal/device"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
	"ocularone/internal/scene"
)

// Stage is one composable analytics stage of a pipeline graph. A stage
// declares its identity, the model whose simulated latency it incurs by
// default (a Placement can override the model per deployment), and the
// stages whose outputs it consumes. Analyze performs the stage's real
// pixel analytics on a frame and reports whether the stage actually ran:
// a stage may decline a frame (return false) when its preconditions are
// missing — e.g. the pose stage without a detected VIP — in which case
// no device time is charged for it.
type Stage interface {
	// Name identifies the stage uniquely within a graph.
	Name() string
	// Model is the stage's default model for latency simulation.
	Model() models.ID
	// Deps names the stages that must complete before this one starts.
	// A stage with no deps is a graph root fed directly by the camera.
	Deps() []string
	// Analyze runs the stage's analytics on the frame, appending alerts
	// and outputs to the context. It returns false if the stage declined
	// the frame.
	Analyze(fc *FrameCtx) bool
}

// FrameCtx carries one frame through the stage graph: the rendered
// pixels and ground truth in, per-stage outputs and alerts out. Stages
// communicate through the typed detection fields; the scheduler records
// which stages ran so the delivery filter can tell a skipped dependency
// from a declined one.
type FrameCtx struct {
	// Session is the owning drone session's ID (0 for single streams).
	Session int
	// FrameIndex is the source-video frame index.
	FrameIndex int
	// Image and Truth are nil for timing-only frames (synthetic feeds
	// used in contention studies); analytics stages must pass through.
	Image *imgproc.Image
	Truth *scene.GroundTruth

	// VIPFound and Best are the detection stage's outputs, consumed by
	// downstream stages.
	VIPFound bool
	Best     detect.Box

	cur    string // stage currently analyzing
	ran    map[string]bool
	alerts []stageAlert
}

type stageAlert struct {
	stage string
	alert Alert
}

func newFrameCtx(session, frameIndex int, im *imgproc.Image, gt *scene.GroundTruth) *FrameCtx {
	return &FrameCtx{
		Session: session, FrameIndex: frameIndex, Image: im, Truth: gt,
		ran: map[string]bool{},
	}
}

// analyze runs one stage on the frame, attributing its alerts to it, and
// records whether it ran.
func (fc *FrameCtx) analyze(st Stage) bool {
	fc.cur = st.Name()
	ran := st.Analyze(fc)
	fc.ran[fc.cur] = ran
	return ran
}

// Alert emits a safety alert attributed to the stage currently running.
// Alerts from stages the back-pressure policy later skips are discarded
// with the stage's work.
func (fc *FrameCtx) Alert(kind AlertKind, detail string) {
	fc.alerts = append(fc.alerts, stageAlert{fc.cur, Alert{Kind: kind, FrameIndex: fc.FrameIndex, Detail: detail}})
}

// Placement maps a stage to the device hosting its model and the model
// identity used for latency simulation.
type Placement struct {
	Device device.ID
	Model  models.ID
}

// node is one stage plus its wiring inside a graph.
type node struct {
	stage Stage
	deps  []string
}

// Graph is a validated DAG of analytics stages with default placements.
// Build one with NewGraph().Add(...)...; Validate() checks the topology
// and computes the schedule order. Stages execute in a topological order
// that preserves insertion order among independent stages, so jitter
// streams are reproducible.
//
// A Graph holds pointers to its (possibly stateful) stages, so a graph
// must not be shared between concurrently running sessions — build one
// graph per drone session in a Fleet.
type Graph struct {
	nodes  []node
	byName map[string]int
	place  map[string]Placement

	order []int    // topological schedule, set by Validate
	roots []string // stages with no deps, set by Validate
	err   error    // first construction error, surfaced by Validate
}

// NewGraph creates an empty pipeline graph.
func NewGraph() *Graph {
	return &Graph{byName: map[string]int{}, place: map[string]Placement{}}
}

// Add appends a stage with an explicit placement. It returns the graph
// for chaining; construction errors (duplicate names, empty names) are
// deferred to Validate.
func (g *Graph) Add(s Stage, p Placement) *Graph {
	name := s.Name()
	if name == "" && g.err == nil {
		g.err = fmt.Errorf("pipeline: stage with empty name")
	}
	if _, dup := g.byName[name]; dup && g.err == nil {
		g.err = fmt.Errorf("pipeline: duplicate stage %q", name)
	}
	g.byName[name] = len(g.nodes)
	g.nodes = append(g.nodes, node{stage: s, deps: append([]string(nil), s.Deps()...)})
	g.place[name] = p
	return g
}

// AddOn appends a stage placed on a device with the stage's default model.
func (g *Graph) AddOn(s Stage, dev device.ID) *Graph {
	return g.Add(s, Placement{Device: dev, Model: s.Model()})
}

// Placements returns a copy of the graph's default placements. Sessions
// start from this copy, so live re-placement in one session never leaks
// into another.
func (g *Graph) Placements() map[string]Placement {
	out := make(map[string]Placement, len(g.place))
	for k, v := range g.place {
		out[k] = v
	}
	return out
}

// Stages lists the stage names in schedule order (call Validate first;
// before validation the insertion order is returned).
func (g *Graph) Stages() []string {
	idxs := g.order
	if idxs == nil {
		idxs = make([]int, len(g.nodes))
		for i := range idxs {
			idxs[i] = i
		}
	}
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = g.nodes[idx].stage.Name()
	}
	return out
}

// Validate checks the graph is a well-formed DAG — unique stage names,
// dependencies that exist, no cycles — and computes the schedule order
// (Kahn's algorithm, stable in insertion order). It is idempotent and
// called automatically by Session.Run and Fleet.Run.
func (g *Graph) Validate() error {
	if g.err != nil {
		return g.err
	}
	if len(g.nodes) == 0 {
		return fmt.Errorf("pipeline: empty graph")
	}
	indeg := make([]int, len(g.nodes))
	for i, n := range g.nodes {
		for _, d := range n.deps {
			if d == n.stage.Name() {
				return fmt.Errorf("pipeline: stage %q depends on itself", d)
			}
			if _, ok := g.byName[d]; !ok {
				return fmt.Errorf("pipeline: stage %q depends on unknown stage %q", n.stage.Name(), d)
			}
			indeg[i]++
		}
	}
	order := make([]int, 0, len(g.nodes))
	done := make([]bool, len(g.nodes))
	for len(order) < len(g.nodes) {
		progressed := false
		for i := range g.nodes {
			if done[i] || indeg[i] > 0 {
				continue
			}
			done[i] = true
			order = append(order, i)
			progressed = true
			// Release dependents.
			for j, n := range g.nodes {
				if done[j] {
					continue
				}
				for _, d := range n.deps {
					if d == g.nodes[i].stage.Name() {
						indeg[j]--
					}
				}
			}
		}
		if !progressed {
			var stuck []string
			for i := range g.nodes {
				if !done[i] {
					stuck = append(stuck, g.nodes[i].stage.Name())
				}
			}
			return fmt.Errorf("pipeline: dependency cycle among stages %v", stuck)
		}
	}
	g.order = order
	g.roots = g.roots[:0]
	for _, idx := range order {
		if len(g.nodes[idx].deps) == 0 {
			g.roots = append(g.roots, g.nodes[idx].stage.Name())
		}
	}
	return nil
}

// Policy is a pluggable back-pressure policy: it decides what happens
// when a live feed outpaces the devices serving it. AdmitFrame gates a
// whole frame at the graph roots (a rejected frame is dropped and
// counted in StreamResult.Dropped); RunStage gates each downstream stage
// individually (a rejected stage is skipped and counted in
// StreamResult.StageSkips, its alerts discarded as stale).
type Policy interface {
	Name() string
	// AdmitFrame decides whether a frame arriving at arrivalMS should
	// enter the graph, given a root executor's busy horizon.
	AdmitFrame(arrivalMS, busyUntilMS, periodMS float64) bool
	// RunStage decides whether a non-root stage whose inputs are ready
	// at readyMS should run, given its executor's busy horizon.
	RunStage(readyMS, busyUntilMS, periodMS float64) bool
}

// QueuePolicy queues work, optionally bounded: a frame or stage whose
// executor backlog exceeds BudgetMS is shed; BudgetMS <= 0 queues
// unboundedly (offline-replay semantics).
type QueuePolicy struct {
	BudgetMS float64
}

// Name identifies the policy.
func (p QueuePolicy) Name() string {
	if p.BudgetMS <= 0 {
		return "queue"
	}
	return fmt.Sprintf("queue(%.0fms)", p.BudgetMS)
}

// AdmitFrame admits while the root backlog is within budget.
func (p QueuePolicy) AdmitFrame(arrivalMS, busyUntilMS, _ float64) bool {
	return p.BudgetMS <= 0 || busyUntilMS-arrivalMS <= p.BudgetMS
}

// RunStage runs while the stage backlog is within budget.
func (p QueuePolicy) RunStage(readyMS, busyUntilMS, _ float64) bool {
	return p.BudgetMS <= 0 || busyUntilMS-readyMS <= p.BudgetMS
}

// DropPolicy is the live-drone policy: a frame arriving while a root
// executor is still busy is dropped outright, and a downstream stage
// whose executor will not free up within one frame period of its inputs
// is skipped — situational-awareness results for an old frame are stale
// by definition.
type DropPolicy struct{}

// Name identifies the policy.
func (DropPolicy) Name() string { return "drop-when-busy" }

// AdmitFrame drops frames that arrive while the root is busy.
func (DropPolicy) AdmitFrame(arrivalMS, busyUntilMS, _ float64) bool {
	return busyUntilMS <= arrivalMS
}

// RunStage skips stages whose executor is busy past one period after
// the stage's inputs are ready.
func (DropPolicy) RunStage(readyMS, busyUntilMS, periodMS float64) bool {
	return busyUntilMS <= readyMS+periodMS
}

// StaleSkipPolicy admits every frame but skips any stage whose executor
// cannot start it within SlackFrames frame periods — roots keep up (the
// camera path stays live) while overloaded downstream analytics shed
// stale work instead of queueing it.
//
// Staleness clock: SlackFrames is measured in frame periods against the
// stage's ready time — the same unit the temporal ladder's bridging
// budget uses (temporal.MaxBridged caps consecutive tracker-bridged
// frame periods; see Session.Temporal). The two layers compound:
// a bridged root already serves a prediction MaxBridged periods stale
// at worst, and a stale-skip downstream of it ages the frame's
// auxiliary outputs further. They therefore share one accounting — a
// bridge advances the ladder's forced-refresh clock (Policy.Bridge)
// exactly as a reduced-rung inference does, and any downstream skip on
// a bridged frame is surfaced in StreamResult.DoubleSkips rather than
// folded invisibly into StageSkips. Set SlackFrames with the ladder's
// budget in mind: worst-case staleness is (MaxBridged + SlackFrames)
// periods, not either bound alone.
type StaleSkipPolicy struct {
	// SlackFrames is the staleness tolerance in frame periods
	// (default 1).
	SlackFrames float64
}

// Name identifies the policy.
func (StaleSkipPolicy) Name() string { return "stale-skip" }

// AdmitFrame admits unconditionally.
func (StaleSkipPolicy) AdmitFrame(_, _, _ float64) bool { return true }

// RunStage skips stages whose backlog exceeds the staleness tolerance.
func (p StaleSkipPolicy) RunStage(readyMS, busyUntilMS, periodMS float64) bool {
	slack := p.SlackFrames
	if slack <= 0 {
		slack = 1
	}
	return busyUntilMS <= readyMS+slack*periodMS
}
