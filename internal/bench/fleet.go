package bench

import (
	"ocularone/internal/metrics"
	"ocularone/internal/pipeline"
)

// FleetSummary is the one tally every fleet study (ext-batch, ext-quant,
// ext-plan, ext-fleet, inferbench -drones) prints from. An empty fleet
// summarises to zeros, never NaN.
type FleetSummary struct {
	// Frames counts processed frames, Dropped the frames a back-pressure
	// policy rejected whole.
	Frames, Dropped int
	// FPS is served throughput: processed frames over the makespan from
	// first arrival to last completion, fleet-wide.
	FPS float64
	E2E metrics.LatencySummary
	// DeadlinePct is the share of processed frames finishing within the
	// frame period; DroppedPct the share of offered frames dropped.
	DeadlinePct, DroppedPct float64
	PlanCompiles            int
}

// SummarizeFleet tallies a finished fleet run. Each frame's arrival is
// reconstructed from its session's own schedule (source-less sessions
// index frames sequentially).
func SummarizeFleet(fleet *pipeline.Fleet, results []pipeline.StreamResult) FleetSummary {
	var sum FleetSummary
	var e2e []float64
	deadlineHits := 0
	firstArrival, lastFinish := 1e18, 0.0
	for si, r := range results {
		sess := fleet.Sessions[si]
		offset, period := sess.OffsetMS, 1e3/sess.FrameFPS
		for _, f := range r.Frames {
			arrival := offset + float64(f.FrameIndex)*period
			if arrival < firstArrival {
				firstArrival = arrival
			}
			if fin := arrival + f.E2EMS; fin > lastFinish {
				lastFinish = fin
			}
			e2e = append(e2e, f.E2EMS)
			if f.Deadline {
				deadlineHits++
			}
		}
		sum.Frames += len(r.Frames)
		sum.Dropped += r.Dropped
		sum.PlanCompiles += r.PlanCompiles
	}
	sum.E2E = metrics.SummarizeMS(e2e)
	if span := lastFinish - firstArrival; span > 0 {
		sum.FPS = float64(sum.Frames) / span * 1e3
	}
	sum.DeadlinePct = pct(int64(deadlineHits), int64(sum.Frames))
	sum.DroppedPct = pct(int64(sum.Dropped), int64(sum.Frames+sum.Dropped))
	return sum
}

// pct is part as a percentage of whole; an empty whole reads 0.
func pct(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// StaggeredFleet builds n timing sessions of frames frames at fps whose
// arrivals are spread evenly over one frame period — independent drone
// feeds are uncorrelated, so contention comes from load, not phase
// alignment. each fills in what differs per study: graph, back-pressure
// policy, precision, engine, round-trip time.
func StaggeredFleet(n, frames int, fps float64, seed uint64, each func(*pipeline.Session)) *pipeline.Fleet {
	period := 1e3 / fps
	sessions := make([]*pipeline.Session, n)
	for i := range sessions {
		sessions[i] = &pipeline.Session{
			ID: i, Frames: frames, FrameFPS: fps,
			Seed:     seed + uint64(i)*211,
			OffsetMS: float64(i) * period / float64(n),
		}
		each(sessions[i])
	}
	return &pipeline.Fleet{Sessions: sessions, SharedSeed: seed ^ 0x9e3779b9}
}
