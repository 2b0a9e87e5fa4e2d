package serve

import (
	"fmt"
	"time"
)

// Outcome is one finished horizon-and-drain run: the Result plus what
// lives on the Server rather than in it — the latency percentiles over
// completed requests of all classes, and the fingerprint. Everything
// except WallSec is deterministic under a fixed seed.
type Outcome struct {
	Result
	P50MS, P99MS float64
	Fingerprint  string
	// WallSec is the host time the advance and drain took.
	WallSec float64
}

// Finish runs a new server to the end of its study — offer arrivals for
// the config's horizon, drain — and summarises it. It is the one step
// every study (RunCurve's load points, internal/bench's knee regimes)
// shares, and panics if the run breaks a conservation invariant.
func (s *Server) Finish() Outcome {
	t0 := time.Now()
	s.AdvanceTo(s.cfg.HorizonMS)
	s.Drain()
	wall := time.Since(t0).Seconds()
	res := s.Result()
	if err := res.CheckInvariants(); err != nil {
		panic(err)
	}
	return Outcome{
		Result:      res,
		P50MS:       s.LatencyQuantileMS(0.50),
		P99MS:       s.LatencyQuantileMS(0.99),
		Fingerprint: fmt.Sprintf("%016x", s.Fingerprint()),
		WallSec:     wall,
	}
}

// CurvePoint is one offered-load point of a serving study. Rho is the
// offered load as a fraction of Capacity.
type CurvePoint struct {
	Rho float64
	Outcome
}

// RunCurve sweeps offered load over the given rho multiples of the
// config's Capacity, running one full horizon-and-drain study per
// point. cfg.Traffic.RatePerSec is overwritten per point; everything
// else in cfg is used as given.
func RunCurve(cfg Config, rhos []float64) []CurvePoint {
	capacity := Capacity(cfg)
	points := make([]CurvePoint, 0, len(rhos))
	for _, rho := range rhos {
		c := cfg
		c.Traffic.RatePerSec = rho * capacity
		points = append(points, CurvePoint{Rho: rho, Outcome: NewServer(c).Finish()})
	}
	return points
}
