package adaptive

import (
	"fmt"
	"math"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/rng"
)

// Arm is one deployable configuration.
type Arm struct {
	Name  string
	Model models.ID
	Dev   device.ID
	// RTTms is the network round trip charged when Dev is not the
	// drone's companion edge device.
	RTTms float64
	// Accuracy is the arm's nominal detection rate under good
	// conditions; the scenario degrades it (see Scenario.lighting).
	Accuracy float64
	// RobustAccuracy is the rate under degraded (dusk) conditions —
	// larger models hold up better (the paper's Fig. 4 finding).
	RobustAccuracy float64
	// Precision is the arm's inference precision (zero value FP32, so
	// existing arm sets keep their calibrated latencies). Controllers
	// steering an int8 deployment should set it so arm ranking uses the
	// quantized roofline.
	Precision device.Precision
}

// LatencyMS returns the arm's expected per-frame latency.
func (a Arm) LatencyMS() float64 {
	l := device.PredictMS(a.Model, a.Dev, a.Precision, device.Interpreted)
	if !device.Registry(a.Dev).IsEdge() {
		l += a.RTTms
	}
	return l
}

// Config tunes the controller.
type Config struct {
	// Window is the number of frames per adaptation epoch (default 20).
	Window int
	// MissHi triggers a downshift when the deadline-miss rate exceeds it
	// (default 0.3); MissLo allows an upshift below it (default 0.05).
	MissHi, MissLo float64
	// FailHi triggers an accuracy upshift when the detection-failure
	// rate exceeds it (default 0.1).
	FailHi float64
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MissHi <= 0 {
		c.MissHi = 0.3
	}
	if c.MissLo <= 0 {
		c.MissLo = 0.05
	}
	if c.FailHi <= 0 {
		c.FailHi = 0.1
	}
}

// Controller adapts the active arm over a stream of frame observations.
// Arms must be ordered from fastest/least-accurate to slowest/most-
// accurate; the controller moves along that spectrum.
type Controller struct {
	cfg  Config
	arms []Arm
	cur  int

	frames, misses, fails int
	switches              int
}

// NewController creates a controller starting on arm startIdx.
func NewController(arms []Arm, startIdx int, cfg Config) *Controller {
	if len(arms) == 0 {
		panic("adaptive: no arms")
	}
	if startIdx < 0 || startIdx >= len(arms) {
		panic(fmt.Sprintf("adaptive: start index %d of %d arms", startIdx, len(arms)))
	}
	cfg.defaults()
	return &Controller{cfg: cfg, arms: arms, cur: startIdx}
}

// Arm returns the active configuration.
func (c *Controller) Arm() Arm { return c.arms[c.cur] }

// ArmIndex returns the active arm's index.
func (c *Controller) ArmIndex() int { return c.cur }

// Switches reports how many adaptations have occurred.
func (c *Controller) Switches() int { return c.switches }

// Observe feeds one frame outcome and reports whether the active arm
// changed (so callers — e.g. a pipeline placement policy — can re-place
// models exactly when an adaptation fires). At each window boundary the
// controller re-evaluates:
//
//   - miss rate > MissHi  → move one arm toward fast (latency pressure)
//   - fail rate > FailHi and miss rate < MissLo → move one arm toward
//     accurate (accuracy headroom available)
func (c *Controller) Observe(deadlineMissed, detectionFailed bool) bool {
	c.frames++
	if deadlineMissed {
		c.misses++
	}
	if detectionFailed {
		c.fails++
	}
	if c.frames < c.cfg.Window {
		return false
	}
	missRate := float64(c.misses) / float64(c.frames)
	failRate := float64(c.fails) / float64(c.frames)
	c.frames, c.misses, c.fails = 0, 0, 0

	switch {
	case missRate > c.cfg.MissHi && c.cur > 0:
		c.cur--
		c.switches++
		return true
	case failRate > c.cfg.FailHi && missRate < c.cfg.MissLo && c.cur < len(c.arms)-1:
		c.cur++
		c.switches++
		return true
	}
	return false
}

// Scenario drives a simulated deployment: a drone feed at FrameFPS with
// a dusk interval (small-model accuracy degrades) and a cloud outage
// (off-edge arms pay a timeout penalty).
type Scenario struct {
	Frames     int
	FrameFPS   float64
	DuskFrom   int // frame where lighting degrades
	DuskTo     int
	OutageFrom int // frames where the cloud path is down
	OutageTo   int
	// OutagePenaltyMS is the extra latency an off-edge arm pays during
	// the outage (retry/timeout).
	OutagePenaltyMS float64
	Seed            uint64
}

// Outcome summarises one simulated deployment run.
type Outcome struct {
	Policy        string
	DetectionRate float64
	DeadlineRate  float64
	MeanLatencyMS float64
	Switches      int
	// Reward is the scalar the bench compares: detection and deadline
	// rates matter equally for a safety pipeline.
	Reward float64
}

// dusk reports whether frame i falls in the degraded-lighting interval.
func (s Scenario) dusk(i int) bool { return i >= s.DuskFrom && i < s.DuskTo }

// outage reports whether frame i falls in the cloud outage.
func (s Scenario) outage(i int) bool { return i >= s.OutageFrom && i < s.OutageTo }

// simulateFrame draws one frame outcome for an arm.
func simulateFrame(s Scenario, a Arm, i int, r *rng.RNG) (latencyMS float64, detected bool) {
	base := a.LatencyMS()
	lat := base * math.Exp(r.NormRange(0, 0.06))
	if s.outage(i) && !device.Registry(a.Dev).IsEdge() {
		lat += s.OutagePenaltyMS
	}
	acc := a.Accuracy
	if s.dusk(i) {
		acc = a.RobustAccuracy
	}
	return lat, r.Bool(acc)
}

// RunStatic evaluates one fixed arm over the scenario.
func RunStatic(s Scenario, a Arm) Outcome {
	r := rng.New(s.Seed)
	period := 1e3 / s.FrameFPS
	var lat, det, dead float64
	for i := 0; i < s.Frames; i++ {
		l, ok := simulateFrame(s, a, i, r)
		lat += l
		if ok {
			det++
		}
		if l <= period {
			dead++
		}
	}
	n := float64(s.Frames)
	o := Outcome{
		Policy:        "static:" + a.Name,
		DetectionRate: det / n,
		DeadlineRate:  dead / n,
		MeanLatencyMS: lat / n,
	}
	o.Reward = o.DetectionRate * o.DeadlineRate
	return o
}

// RunAdaptive evaluates the controller over the scenario.
func RunAdaptive(s Scenario, arms []Arm, startIdx int, cfg Config) Outcome {
	r := rng.New(s.Seed)
	ctl := NewController(arms, startIdx, cfg)
	period := 1e3 / s.FrameFPS
	var lat, det, dead float64
	for i := 0; i < s.Frames; i++ {
		l, ok := simulateFrame(s, ctl.Arm(), i, r)
		lat += l
		if ok {
			det++
		}
		missed := l > period
		if !missed {
			dead++
		}
		ctl.Observe(missed, !ok)
	}
	n := float64(s.Frames)
	o := Outcome{
		Policy:        "adaptive",
		DetectionRate: det / n,
		DeadlineRate:  dead / n,
		MeanLatencyMS: lat / n,
		Switches:      ctl.Switches(),
	}
	o.Reward = o.DetectionRate * o.DeadlineRate
	return o
}

// PrecisionArms returns the two-arm precision spectrum a serving-layer
// controller moves along on a single device: a degraded int8 arm
// (fastest, least accurate) and the nominal-precision arm — ordered
// fastest→most-accurate as Controller requires. Model is left at the
// zero value: a multi-model server applies only the arm's Precision,
// per request. Accuracy priors follow the measured quantization gap
// (int8 trades a little clean-condition accuracy and more under
// degradation).
func PrecisionArms(dev device.ID, nominal device.Precision) []Arm {
	return []Arm{
		{Name: "int8@" + dev.String(), Dev: dev, Precision: device.INT8,
			Accuracy: 0.97, RobustAccuracy: 0.75},
		{Name: nominal.String() + "@" + dev.String(), Dev: dev, Precision: nominal,
			Accuracy: 0.995, RobustAccuracy: 0.90},
	}
}

// DefaultArms returns the three-arm spectrum the paper's §4.2.4
// discussion implies: fast edge nano, balanced edge medium, accurate
// workstation x-large. Accuracy priors follow the measured Fig. 3/4
// pattern: everything is strong on diverse conditions, small models
// fall off under degradation.
func DefaultArms(edge device.ID, rttMS float64) []Arm {
	return []Arm{
		{Name: "nano@" + edge.String(), Model: models.V8Nano, Dev: edge,
			Accuracy: 0.99, RobustAccuracy: 0.80},
		{Name: "medium@" + edge.String(), Model: models.V8Medium, Dev: edge,
			Accuracy: 0.995, RobustAccuracy: 0.88},
		{Name: "xlarge@rtx4090", Model: models.V8XLarge, Dev: device.RTX4090, RTTms: rttMS,
			Accuracy: 0.998, RobustAccuracy: 0.99},
	}
}
