package main

import (
	"errors"
	"fmt"
	"time"

	"ocularone/internal/chaos"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/serve"
)

// The serve workloads run one complete open-loop serving study per
// operation. The arrival process is the program's own NHPP Traffic in
// simulated time; the host loop is closed (one study after another).
const (
	serveHorizonMS = 20_000
	// serveRate is a fixed number rather than serve.Capacity so that a
	// later Capacity fix cannot move the offered load.
	serveRate = 900
	// serveSeeds traffic seeds are studied at set-up for the simulated
	// trio: 64, because the simulated p99 comes from a log-bucketed
	// histogram past the capacity knee, and its mean moved 14 % from one
	// -seed to the next over 8 seeds and still 8-13 % over 32.
	serveSeeds = 64
	// serveRing is how many of them the timed ops replay: the floor of
	// each part of each slot is only as good as the number of times the
	// part was replayed, and 8 slots are replayed four times as often.
	serveRing = 8
)

type serveRef struct {
	res      serve.Result
	fp       uint64
	p50, p99 float64
	// bad marks a slot whose reference broke an invariant or, layered,
	// left a layer unfired; every op on the slot then fails.
	bad error
}

func serveConfig(seed uint64, layered bool) serve.Config {
	cfg := serve.DefaultConfig(serveHorizonMS, seed)
	cfg.Traffic.RatePerSec = serveRate
	if layered {
		cc := chaos.Combined(seed)
		cc.SDC = chaos.SDCRegime(seed).SDC
		cc.Straggler = chaos.StragglerRegime(seed).Straggler
		cfg.Disrupt = chaos.New(cc)
		cfg.Adapt.Enabled = true
		cfg.Temporal.Enabled = true
		cfg.Integrity = serve.IntegrityConfig{
			Retry: serve.RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
			Hedge: serve.HedgePolicy{Enabled: true, Device: device.RTX4090},
		}
	}
	return cfg
}

// advanceSteps is how many AdvanceTo calls carry a study to its horizon:
// the event loop is the bulk of the op, and in steps of half a simulated
// second each is a part of a fraction of a host millisecond.
const advanceSteps = 40

// study runs one serving study under spans parented to op, marking lp
// after every call into the server.
func study(cfg serve.Config, tr *tracer, op, opID int32, lp *laps) serveRef {
	var ref serveRef
	sp := tr.begin(spNewServer, op, opID, -1)
	s := serve.NewServer(cfg)
	tr.end(sp)
	lp.mark()
	sp = tr.begin(spAdvance, op, opID, -1)
	for k := 1; k <= advanceSteps; k++ {
		s.AdvanceTo(cfg.HorizonMS * float64(k) / advanceSteps)
		lp.mark()
	}
	tr.end(sp)
	sp = tr.begin(spDrain, op, opID, -1)
	s.Drain()
	tr.end(sp)
	lp.mark()
	sp = tr.begin(spResult, op, opID, -1)
	ref.res = s.Result()
	ref.bad = ref.res.CheckInvariants()
	ref.fp = s.Fingerprint()
	tr.end(sp)
	ref.p50, ref.p99 = s.LatencyQuantileMS(0.5), s.LatencyQuantileMS(0.99)
	return ref
}

// layersFired fails a layered study in which some layer never acted:
// the workload exists to take every layer branch.
func layersFired(r serve.Result) error {
	var idle []string
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"bridged", r.BridgedReqs}, {"roi or early-exit", r.ROIReqs + r.EarlyExitReqs},
		{"retries", r.Retries}, {"hedges", r.Hedges}, {"degraded", r.DegradedReqs},
		{"fault episodes", r.FaultEpisodes},
	} {
		if c.n <= 0 {
			idle = append(idle, c.name)
		}
	}
	if len(idle) > 0 {
		return fmt.Errorf("layers never fired: %v", idle)
	}
	return nil
}

func setupServePlain(seed uint64) (*instance, error)   { return setupServe(seed, false) }
func setupServeLayered(seed uint64) (*instance, error) { return setupServe(seed, true) }

func setupServe(seed uint64, layered bool) (*instance, error) {
	warmDeviceModel(models.AllIDs...)
	refs := make([]serveRef, serveSeeds)
	var offered, lost, goodput, p99 float64
	for k := range refs {
		refs[k] = study(serveConfig(ringSeed(seed, k), layered), nil, -1, -1, nil)
		r := &refs[k]
		if r.bad == nil && layered {
			r.bad = layersFired(r.res)
		}
		offered += float64(r.res.Offered)
		lost += float64(r.res.Shed + r.res.Expired)
		goodput += r.res.GoodputPerSec
		p99 += r.p99
	}
	if offered == 0 {
		return nil, errors.New("no requests offered")
	}
	inst := &instance{
		itemsPerOp: offeredPerOp(refs[:serveRing]),
		ring:       serveRing,
		sim:        simStats{goodput / serveSeeds, p99 / serveSeeds, 1 - lost/offered},
	}
	inst.op = func(i int, tr *tracer, lp *laps) error {
		k := i % serveRing
		op := tr.begin(spOp, -1, int32(i), -1)
		got := study(serveConfig(ringSeed(seed, k), layered), tr, op, int32(i), lp)
		tr.end(op)
		switch {
		case refs[k].bad != nil:
			return refs[k].bad
		case got.bad != nil:
			return got.bad
		case got.fp != refs[k].fp:
			return fmt.Errorf("ring slot %d: fingerprint %016x differs from its first run %016x", k, got.fp, refs[k].fp)
		}
		return nil
	}
	inst.layer = func(lc *layerCtx) { serveLayers(lc, refs, layered) }
	return inst, nil
}

// offeredPerOp is the mean number of requests a study of these slots offers.
func offeredPerOp(refs []serveRef) float64 {
	var n int64
	for k := range refs {
		n += refs[k].res.Offered
	}
	return float64(n) / float64(len(refs))
}

func serveLayers(lc *layerCtx, refs []serveRef, layered bool) {
	out, st := lc.out, lc.stats
	out["serve.new_server_us"] = 1000 * st.floorMS(spNewServer)
	out["serve.drain_us"] = 1000 * st.floorMS(spDrain)
	out["serve.result_us"] = 1000 * st.floorMS(spResult)
	// Each op against its own seed's event and request counts.
	perEvent := map[int32]float64{}
	for op, ms := range st.durMS[spAdvance] {
		perEvent[op] = 1e6 * ms / float64(refs[int(op)%serveRing].res.Events)
	}
	out["serve.advance_ns_per_event"] = floorByOp(perEvent, serveRing)
	perReq := map[int32]float64{}
	for i, ms := range lc.untraced.durMS {
		op := lc.untraced.firstOp + i
		perReq[int32(op)] = 1e6 * ms / float64(refs[op%serveRing].res.Offered)
	}
	hostNS := floorByOp(perReq, serveRing)
	out["serve.host_ns_per_req"] = hostNS

	var sum serve.Result
	var meanBatch, util, p50, stale, recovery, fairness float64
	var classP99 [serve.NumClasses]float64
	for k := range refs {
		r := refs[k].res
		sum.Offered += r.Offered
		sum.Admitted += r.Admitted
		sum.Expired += r.Expired
		sum.Completed += r.Completed
		sum.Events += r.Events
		sum.Lost += r.Lost
		sum.DegradedReqs += r.DegradedReqs
		sum.Adaptations += r.Adaptations + r.RungSwitches
		sum.FaultEpisodes += r.FaultEpisodes
		sum.Recovered += r.Recovered
		sum.SDCInjected += r.SDCInjected
		sum.CorruptDetected += r.CorruptDetected
		sum.CorruptServed += r.CorruptServed
		sum.Retries += r.Retries
		sum.Hedges += r.Hedges
		sum.HedgeWins += r.HedgeWins
		sum.BridgedReqs += r.BridgedReqs
		sum.ROIReqs += r.ROIReqs
		sum.EarlyExitReqs += r.EarlyExitReqs
		sum.ForcedRefreshes += r.ForcedRefreshes
		meanBatch += r.MeanBatch
		util += r.Utilization
		p50 += refs[k].p50
		stale += r.StaleP50MS
		recovery += r.MeanRecoveryMS
		for c := range classP99 {
			classP99[c] += r.Classes[c].P99MS
		}
		lo, hi := r.TenantCompleted[0], r.TenantCompleted[0]
		for _, n := range r.TenantCompleted {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		fairness += share(lo, hi)
	}
	n := float64(len(refs))
	out["serve.allocs_per_req"] = float64(lc.untraced.mallocs) / lc.untraced.ops() / offeredPerOp(refs[:serveRing])
	out["serve.sim_events_per_req"] = share(sum.Events, sum.Offered)
	out["serve.sim_mean_batch"] = meanBatch / n
	out["serve.sim_utilization"] = util / n
	out["serve.sim_expired_share"] = share(sum.Expired, sum.Offered)
	out["serve.sim_p50_ms"] = p50 / n
	out["serve.sim_p99_ms.interactive"] = classP99[serve.Interactive] / n
	out["serve.sim_p99_ms.standard"] = classP99[serve.Standard] / n
	out["serve.sim_p99_ms.background"] = classP99[serve.Background] / n
	out["serve.sim_tenant_fairness"] = fairness / n

	out["chaos.sim_fault_episodes"] = float64(sum.FaultEpisodes)
	out["chaos.sim_recovered_share"] = share(sum.Recovered, sum.FaultEpisodes)
	out["chaos.sim_mean_recovery_ms"] = recovery / n
	out["chaos.sim_lost_share"] = share(sum.Lost, sum.Offered)
	out["temporal.sim_bridged_share"] = share(sum.BridgedReqs, sum.Completed)
	out["temporal.sim_roi_share"] = share(sum.ROIReqs, sum.Completed)
	out["temporal.sim_early_exit_share"] = share(sum.EarlyExitReqs, sum.Completed)
	out["temporal.sim_stale_p50_ms"] = stale / n
	out["temporal.sim_forced_refreshes"] = float64(sum.ForcedRefreshes)
	out["serve.sim_retries_per_kreq"] = 1000 * share(sum.Retries, sum.Admitted)
	out["serve.sim_hedge_win_share"] = share(sum.HedgeWins, sum.Hedges)
	out["serve.sim_corrupt_served_share"] = share(sum.CorruptServed, sum.Completed)
	out["serve.sim_detect_coverage"] = share(sum.CorruptDetected, sum.SDCInjected)
	out["serve.sim_degraded_share"] = share(sum.DegradedReqs, sum.Completed)
	out["adaptive.sim_switches"] = float64(sum.Adaptations)

	serveProbes(out, lc.seed)
	if layered {
		// The layer tax: the same seeds with every layer off, in this
		// process, against the layered host cost measured above.
		plain := map[int32]float64{}
		for op := int32(0); op < 8*serveRing; op++ {
			t := time.Now()
			r := study(serveConfig(ringSeed(lc.seed, int(op)%serveRing), false), nil, -1, -1, nil)
			plain[op] = float64(time.Since(t)) / float64(r.res.Offered)
		}
		out["serve.layer_tax_ns_per_req"] = hostNS - floorByOp(plain, serveRing)
		out["temporal.select_ns"] = temporalProbe()
	} else {
		deviceProbes(out)
	}
}
