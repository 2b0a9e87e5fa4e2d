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
	// Accuracy is the arm's nominal detection rate under good
	// conditions; the scenario's dusk replaces it with RobustAccuracy.
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

// LatencyMS returns the arm's expected per-frame latency: an arm whose
// Dev is not an edge device also pays the cloudRTTMS round trip.
func (a Arm) LatencyMS() float64 {
	l := device.PredictMS(a.Model, a.Dev, a.Precision, device.Interpreted)
	if !device.Registry(a.Dev).IsEdge() {
		l += cloudRTTMS
	}
	return l
}

// cloudRTTMS is the drone-to-workstation network round trip.
const cloudRTTMS = 25

// Config tunes the controller: its epoch length, the miss rate that
// downshifts and the failure rate that upshifts.
type Config struct {
	// Window is the number of frames per adaptation epoch (default 20).
	Window int
	// MissHi triggers a downshift when the deadline-miss rate exceeds it
	// (default 0.3). An upshift needs a miss rate below missLo.
	MissHi float64
	// FailHi triggers an accuracy upshift when the detection-failure
	// rate exceeds it (default 0.1).
	FailHi float64
}

// missLo is the deadline-miss rate below which a controller may upshift
// toward accuracy: fewer than one miss in twenty frames of an epoch.
const missLo = 0.05

// ServingEpoch is the epoch of the serving tier's two controllers, the
// serve precision controller and the temporal ladder's rung controller,
// so both walk at the same cadence: each re-evaluates every 64
// completions, downshifts when the epoch's deadline-miss rate exceeds
// 0.25 and allows the upshift below missLo.
func ServingEpoch() Config { return Config{Window: 64, MissHi: 0.25} }

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MissHi <= 0 {
		c.MissHi = 0.3
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
//   - fail rate > FailHi and miss rate < missLo → move one arm toward
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
	case failRate > c.cfg.FailHi && missRate < missLo && c.cur < len(c.arms)-1:
		c.cur++
		c.switches++
		return true
	}
	return false
}

// The scenario every study runs: a 600-frame drone feed at 4 FPS (a
// 250 ms period, so every edge arm is viable and the cloud arm is viable
// until its outage), with dusk over frames 200-400 (small-model accuracy
// degrades) and a cloud outage over frames 450-550 during which an
// off-edge arm pays a 400 ms retry/timeout penalty. Only the seed varies.
const (
	scenarioFrames  = 600
	scenarioFPS     = 4
	duskFrom        = 200
	duskTo          = 400
	outageFrom      = 450
	outageTo        = 550
	outagePenaltyMS = 400
)

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

// simulateFrame draws frame i's outcome for an arm.
func simulateFrame(a Arm, i int, r *rng.RNG) (latencyMS float64, detected bool) {
	base := a.LatencyMS()
	lat := base * math.Exp(r.NormRange(0, 0.06))
	if i >= outageFrom && i < outageTo && !device.Registry(a.Dev).IsEdge() {
		lat += outagePenaltyMS
	}
	acc := a.Accuracy
	if i >= duskFrom && i < duskTo {
		acc = a.RobustAccuracy
	}
	return lat, r.Bool(acc)
}

// RunStatic evaluates one fixed arm over the scenario: the controller
// over a spectrum of one arm, which never switches.
func RunStatic(seed uint64, a Arm) Outcome {
	o := RunAdaptive(seed, []Arm{a}, 0, Config{})
	o.Policy = "static:" + a.Name
	return o
}

// RunAdaptive evaluates the controller over the scenario drawn from seed.
func RunAdaptive(seed uint64, arms []Arm, startIdx int, cfg Config) Outcome {
	r := rng.New(seed)
	ctl := NewController(arms, startIdx, cfg)
	period := 1e3 / scenarioFPS
	var lat, det, dead float64
	for i := 0; i < scenarioFrames; i++ {
		l, ok := simulateFrame(ctl.Arm(), i, r)
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
	n := float64(scenarioFrames)
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
// discussion implies: fast nano and balanced medium on the drone's Orin
// Nano, accurate x-large on the workstation behind the cloudRTTMS round
// trip. Accuracy priors follow the measured Fig. 3/4 pattern: everything
// is strong on diverse conditions, small models fall off under
// degradation.
func DefaultArms() []Arm {
	return []Arm{
		{Name: "nano@o-nano", Model: models.V8Nano, Dev: device.OrinNano,
			Accuracy: 0.99, RobustAccuracy: 0.80},
		{Name: "medium@o-nano", Model: models.V8Medium, Dev: device.OrinNano,
			Accuracy: 0.995, RobustAccuracy: 0.88},
		{Name: "xlarge@rtx4090", Model: models.V8XLarge, Dev: device.RTX4090,
			Accuracy: 0.998, RobustAccuracy: 0.99},
	}
}
