package video

import (
	"fmt"
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

// Spec describes one synthetic drone video.
type Spec struct {
	ID          int
	DurationSec float64
	FPS         int
	W, H        int
	Background  scene.Background
	// Companions populate the scene alongside the VIP.
	Pedestrians int
	Bicycles    int
	ParkedCars  int
	LampPosts   int
	Lighting    float64
	Clutter     float64
	Seed        uint64
}

// Video is a lazily rendered synthetic recording.
type Video struct {
	Spec Spec
	rng  *rng.RNG
	// walk is the VIP's trajectory parameterisation, fixed at creation.
	walkSpeedMS  float64 // metres/second along the camera axis
	startDepth   float64
	lateralDrift float64
	camHeight    float64
	bobAmp       float64 // handheld bobbing amplitude, metres
}

// New creates a video with a deterministic trajectory derived from the
// spec's seed.
func New(spec Spec) *Video {
	r := rng.New(spec.Seed)
	return &Video{
		Spec:         spec,
		rng:          r,
		walkSpeedMS:  r.Range(0.8, 1.4),
		startDepth:   r.Range(4, 8),
		lateralDrift: r.Range(-0.3, 0.3),
		camHeight:    r.Range(1.2, 2.4), // "handheld at different heights"
		bobAmp:       r.Range(0.02, 0.08),
	}
}

// NumFrames returns the total frame count.
func (v *Video) NumFrames() int {
	return int(v.Spec.DurationSec * float64(v.Spec.FPS))
}

// SceneAt builds the world state for frame i. The drone keeps an
// approximately constant following distance, so the VIP's depth
// oscillates gently around the start depth rather than growing without
// bound.
func (v *Video) SceneAt(i int) (*scene.Scene, scene.Camera) {
	t := float64(i) / float64(v.Spec.FPS)
	depth := v.startDepth + 1.5*math.Sin(t*v.walkSpeedMS/4)
	lateral := v.lateralDrift * math.Sin(t/3)
	camH := v.camHeight + v.bobAmp*math.Sin(2*math.Pi*t*1.8)

	entRNG := rng.New(v.Spec.Seed).Split("entities")
	entities := []scene.Entity{{
		Kind:      scene.VIP,
		X:         lateral,
		Depth:     depth,
		HeightM:   1.7,
		Pose:      scene.Walking,
		WalkPhase: math.Mod(t*1.6, 1),
		Shirt:     [3]uint8{70, 70, 90},
		Pants:     [3]uint8{40, 40, 60},
	}}
	for p := 0; p < v.Spec.Pedestrians; p++ {
		e := scene.RandomEntity(entRNG.SplitN("ped", p), scene.Pedestrian)
		// Pedestrians move slowly through the scene over time.
		e.X += 0.4 * math.Sin(t/5+float64(p))
		entities = append(entities, e)
	}
	for b := 0; b < v.Spec.Bicycles; b++ {
		entities = append(entities, scene.RandomEntity(entRNG.SplitN("bike", b), scene.Bicycle))
	}
	for c := 0; c < v.Spec.ParkedCars; c++ {
		e := scene.RandomEntity(entRNG.SplitN("car", c), scene.ParkedCar)
		e.X = 2.6 + 0.8*float64(c%2) // cars sit off the walkway
		entities = append(entities, e)
	}
	for p := 0; p < v.Spec.LampPosts; p++ {
		e := scene.RandomEntity(entRNG.SplitN("lamp", p), scene.LampPost)
		// The drone approaches fixed street furniture as the flight
		// progresses; depth shrinks along the track.
		e.Depth = math.Max(2.5, e.Depth-t*v.walkSpeedMS)
		entities = append(entities, e)
	}

	s := &scene.Scene{
		Background: v.Spec.Background,
		Lighting:   v.Spec.Lighting,
		CamHeightM: camH,
		Entities:   entities,
		Clutter:    v.Spec.Clutter,
		Seed:       v.Spec.Seed ^ uint64(i)*0x9e3779b9,
	}
	cam := scene.DefaultCamera(v.Spec.W, v.Spec.H, camH)
	return s, cam
}

// Frame renders frame i and its ground truth.
func (v *Video) Frame(i int) (*imgproc.Image, *scene.GroundTruth) {
	if i < 0 || i >= v.NumFrames() {
		panic(fmt.Sprintf("video: frame %d out of range [0,%d)", i, v.NumFrames()))
	}
	s, cam := v.SceneAt(i)
	return scene.Render(s, cam)
}

// ExtractIndices returns the frame indices sampled when re-encoding the
// video at targetFPS — the moviepy "editor" substitute: output frame i
// shows source frame ⌊i·FPS/targetFPS⌋, computed in integers so ratios
// that are not whole (30 → 7) cannot drift. For a 30 FPS source and
// 10 FPS target this is every third frame.
func (v *Video) ExtractIndices(targetFPS int) []int {
	if targetFPS <= 0 || targetFPS > v.Spec.FPS {
		targetFPS = v.Spec.FPS
	}
	n := v.NumFrames()
	var out []int
	for i := 0; ; i++ {
		f := i * v.Spec.FPS / targetFPS
		if f >= n {
			return out
		}
		out = append(out, f)
	}
}

// ExtractedFrame pairs a rendered frame with its provenance.
type ExtractedFrame struct {
	VideoID    int
	FrameIndex int
	Image      *imgproc.Image
	Truth      *scene.GroundTruth
}

// Extract renders every frame sampled at targetFPS. The limit parameter
// caps the number of frames (0 = no cap), letting callers run scaled-down
// protocols.
func (v *Video) Extract(targetFPS, limit int) []ExtractedFrame {
	idx := v.ExtractIndices(targetFPS)
	if limit > 0 && len(idx) > limit {
		idx = idx[:limit]
	}
	out := make([]ExtractedFrame, len(idx))
	for i, fi := range idx {
		im, gt := v.Frame(fi)
		out[i] = ExtractedFrame{VideoID: v.Spec.ID, FrameIndex: fi, Image: im, Truth: gt}
	}
	return out
}
