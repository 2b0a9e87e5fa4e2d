package pipeline

import "ocularone/internal/temporal"

// tryBridgeRoot decides whether a root-stage frame ready at readyMS
// bridges: the executor cannot start it within one frame period, and
// the stream's bridging budget (anchored, consecutive-bridge cap) still
// allows coasting. On a bridge the caller takes the tracker's answer,
// done at doneMS, instead of offering a device job.
func (e *execEnv) tryBridgeRoot(readyMS, delayMS, periodMS float64) (doneMS float64, ok bool) {
	if delayMS <= periodMS {
		return 0, false
	}
	stale, doneMS, ok := e.tpol.Bridge(&e.track, readyMS)
	if !ok {
		return 0, false
	}
	if stale > e.res.BridgeStaleMaxMS {
		e.res.BridgeStaleMaxMS = stale
	}
	e.res.Bridged++
	return doneMS, true
}

// rootRung selects the inference rung for a root-stage job that was not
// bridged. The deadline-slack signal is one frame period: situational
// awareness older than the camera period is stale by definition, the
// same clock every back-pressure policy here uses.
func (e *execEnv) rootRung(delayMS, periodMS, thermal float64) temporal.Rung {
	r := e.tpol.Select(temporal.Signals{
		QueueDelayMS:  delayMS,
		SlackMS:       periodMS,
		ThermalStress: thermal,
	})
	switch r {
	case temporal.ROI:
		e.res.ROIFrames++
	case temporal.EarlyExit:
		e.res.EarlyExitFrames++
	}
	return r
}
