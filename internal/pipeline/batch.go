package pipeline

import (
	"ocularone/internal/device"
	"ocularone/internal/temporal"
)

// BatchPolicy routes per-stage device work through micro-batching: up
// to MaxBatch frames arriving within WindowMS of each other form a
// flush group, and within the group every stage's jobs that share an
// executor, model, and precision are coalesced into one batched
// inference charged the batched roofline latency
// (device.PredictBatchMS). Fleet sessions sharing one workstation
// coalesce naturally — N drones' detect jobs become one batch-N
// inference on the shared GPU, and a fleet running a uniform
// PrecisionPolicy batches exactly as an fp32 fleet does.
//
// MaxBatch <= 1 disables batching: every frame flushes as a group of
// one and every stage job takes the exact per-frame executor path, so
// results are bit-identical to the unbatched scheduler.
//
// BatchPolicy is device.BatchConfig by another name — the same knobs
// configure the scheduler here and the MicroBatcher it drives.
type BatchPolicy = device.BatchConfig

// groupFrame is one admitted frame awaiting batched scheduling.
type groupFrame struct {
	env     *execEnv
	fc      *FrameCtx
	arrival float64
}

// flushGroup schedules one flush group's stages onto executors in
// topological waves (wave r runs each frame's r-th stage, so every
// dependency was scheduled in an earlier wave regardless of graph mix),
// then delivers each frame's results in arrival order. Within a wave,
// jobs bound for the same executor are offered to a device.MicroBatcher
// (drained in first-use order), so compatible work coalesces while the
// replay stays single-threaded and deterministic. A group of one
// reproduces the per-frame semantics exactly — same policy checks, same
// executor calls, same jitter draws. With inline set (a standalone
// session) each stage analyses the frame when its wave schedules it;
// otherwise the frame was analysed up front and the wave reads whether
// the stage ran.
func flushGroup(frames []groupFrame, cfg BatchPolicy, inline bool) {
	if len(frames) == 0 {
		return
	}

	type waveJob struct {
		gi    int
		name  string
		p     Placement
		ready float64
		root  bool
	}
	// exQueue pairs a micro-batcher with the wave jobs it has queued in
	// offer order; flushed completions are always an oldest-first prefix
	// of that queue.
	type exQueue struct {
		mb   *device.MicroBatcher
		jobs []waveJob
	}

	n := len(frames)
	dones := make([]map[string]float64, n)
	stats := make([]FrameStat, n)
	bridgedRoot := make([]bool, n) // frame's root was tracker-bridged
	degraded := make([]bool, n)    // any root below FullFrame (bridge included)
	maxLen := 0
	for gi, fr := range frames {
		dones[gi] = map[string]float64{}
		stats[gi] = FrameStat{FrameIndex: fr.fc.FrameIndex, StageMS: map[string]float64{}}
		if l := len(fr.env.sess.Graph.order); l > maxLen {
			maxLen = l
		}
	}
	settle := func(q *exQueue, cs []device.Completion) {
		for k, c := range cs {
			w := q.jobs[k]
			fr := frames[w.gi]
			lat := c.LatencyMS() + fr.env.rtt(w.p)
			dones[w.gi][w.name] = w.ready + lat
			stats[w.gi].StageMS[w.name] = lat
			if w.root && fr.env.tpol != nil {
				// A real root inference re-anchors the stream's bridging
				// budget.
				fr.env.track.Anchor(w.ready + lat)
			}
		}
		q.jobs = q.jobs[len(cs):]
	}
	for r := 0; r < maxLen; r++ {
		queues := map[*device.Executor]*exQueue{}
		var order []*device.Executor
		for gi, fr := range frames {
			graph := fr.env.sess.Graph
			if r >= len(graph.order) {
				continue
			}
			nd := graph.nodes[graph.order[r]]
			name := nd.stage.Name()
			ready := fr.arrival
			for _, d := range nd.deps {
				if t, ok := dones[gi][d]; ok && t > ready {
					ready = t
				}
			}
			p := fr.env.place[name]
			ex := fr.env.exFor(p.Device)
			root := len(nd.deps) == 0
			if !root && !fr.env.sess.Policy.RunStage(ready, ex.BusyUntilMS(), fr.env.sess.periodMS()) {
				fr.env.res.StageSkips[name]++
				if bridgedRoot[gi] {
					// Stale-skip downstream of a bridged root: staleness
					// compounding across the two layers, counted loudly.
					fr.env.res.DoubleSkips++
				}
				continue
			}
			ran := fr.fc.ran[name]
			if inline {
				ran = fr.fc.analyze(nd.stage)
			}
			if !ran {
				continue
			}
			rung, cost := temporal.FullFrame, 0.0
			if root && fr.env.tpol != nil {
				period := fr.env.sess.periodMS()
				delay := ex.AdmissionDelayMS(ready)
				if done, ok := fr.env.tryBridgeRoot(ready, delay, period); ok {
					// Tracker prediction stands in: no device job, the
					// bridge latency is the motion-model extrapolation.
					dones[gi][name] = done
					stats[gi].StageMS[name] = done - ready
					bridgedRoot[gi] = true
					degraded[gi] = true
					continue
				}
				rung = fr.env.rootRung(delay, period, ex.ThermalStress())
				cost = fr.env.tpol.CostScale(rung)
				if rung != temporal.FullFrame {
					degraded[gi] = true
				}
			}
			q := queues[ex]
			if q == nil {
				q = &exQueue{mb: device.NewMicroBatcher(ex, cfg)}
				queues[ex] = q
				order = append(order, ex)
			}
			q.jobs = append(q.jobs, waveJob{gi: gi, name: name, p: p, ready: ready, root: root})
			prec := fr.env.sess.Precision.PrecisionFor(name)
			settle(q, q.mb.Offer(device.Job{
				Model: p.Model, ArrivalMS: ready,
				Precision: prec,
				Engine:    fr.env.sess.Engine,
				CompileMS: fr.env.planCompile(name, p, prec),
				CostScale: cost,
			}))
		}
		for _, ex := range order {
			q := queues[ex]
			settle(q, q.mb.Flush())
		}
	}
	for gi, fr := range frames {
		var e2e float64
		for _, t := range dones[gi] {
			if t-fr.arrival > e2e {
				e2e = t - fr.arrival
			}
		}
		st := stats[gi]
		st.E2EMS = e2e
		st.Deadline = e2e <= fr.env.sess.periodMS()
		st.VIPFound = fr.fc.VIPFound
		if fr.env.tpol != nil {
			// Deadline misses walk the ladder down, degraded frames
			// (bridged or reduced-rung) push it back toward full frames.
			fr.env.tpol.Observe(!st.Deadline, degraded[gi])
		}
		fr.env.deliver(fr.fc, st)
	}
}
