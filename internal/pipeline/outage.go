package pipeline

import (
	"sort"

	"ocularone/internal/device"
)

// Outage marks one device unavailable between FromMS and ToMS of the
// session clock — the pipeline-side fail-stop fault the chaos layer
// injects on the serving side. When the outage begins, the device's
// stream is held to ToMS: stage jobs routed there queue behind the
// restore (and back-pressure policies see the hold through
// BusyUntilMS, so admission sheds and adaptive placers re-place,
// exactly as they would under real downtime).
//
// Outages are applied lazily at frame-arrival granularity: the hold
// lands with the first frame event at or after FromMS. A session (or
// fleet) with no outages — or with outages that no frame event ever
// reaches — replays the outage-free schedule bit for bit.
type Outage struct {
	Device device.ID
	FromMS float64
	ToMS   float64
}

// sortedOutages merges and orders outage lists by onset.
func sortedOutages(a, b []Outage) []Outage {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]Outage, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].FromMS < out[j].FromMS })
	return out
}

// applyOutages imposes every outage whose onset has been reached by
// now, advancing the cursor so each outage is applied exactly once: the
// device's executor on its owning cluster is held to the restore.
func (e *execEnv) applyOutages(now float64) {
	for e.outageCur < len(e.outages) && e.outages[e.outageCur].FromMS <= now {
		o := e.outages[e.outageCur]
		if o.ToMS > o.FromMS {
			e.exFor(o.Device).HoldUntil(o.ToMS)
		}
		e.outageCur++
	}
}
