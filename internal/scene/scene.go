package scene

import (
	"fmt"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
)

// Background identifies the walking-surface taxonomy of Table 1.
type Background int

const (
	// Footpath is a paved pedestrian walkway (category 1).
	Footpath Background = iota
	// Path is an unpaved campus path (category 2).
	Path
	// RoadSide is the side of a road with asphalt and markings (category 3).
	RoadSide
)

// String returns the Table-1 name of the background.
func (b Background) String() string {
	switch b {
	case Footpath:
		return "footpath"
	case Path:
		return "path"
	case RoadSide:
		return "side-of-road"
	default:
		return fmt.Sprintf("background(%d)", int(b))
	}
}

// Condition enumerates environmental degradations a scene can be
// rendered under. The zero value Clear applies no degradation, so
// every pre-condition scene renders bit for bit as before; the other
// conditions are the degraded-visibility regimes the chaos study pairs
// with its fault regimes to quantify detection-quality deltas.
type Condition int

const (
	// Clear is nominal daylight — no degradation.
	Clear Condition = iota
	// Night darkens the frame far past dusk and amplifies sensor noise.
	Night
	// Rain washes contrast, blurs, and draws rain streaks.
	Rain
	// Occlusion places a foreground obstruction over part of the VIP.
	Occlusion
)

// String returns the lowercase condition name.
func (c Condition) String() string {
	switch c {
	case Clear:
		return "clear"
	case Night:
		return "night"
	case Rain:
		return "rain"
	case Occlusion:
		return "occlusion"
	default:
		return fmt.Sprintf("condition(%d)", int(c))
	}
}

// EntityKind enumerates renderable actors and props.
type EntityKind int

const (
	// VIP is the proxy visually-impaired person wearing the hazard vest.
	VIP EntityKind = iota
	// Pedestrian is a bystander without a vest.
	Pedestrian
	// Bicycle is a parked or ridden bicycle.
	Bicycle
	// ParkedCar is a stationary car at the roadside.
	ParkedCar
	// LampPost is a fixed vertical obstacle on the walkway edge — the
	// collision hazard the depth stage exists to flag.
	LampPost
)

// Pose describes the VIP's body configuration; the fall-detection SVM is
// trained to separate these.
type Pose int

const (
	// Standing is an upright, static pose.
	Standing Pose = iota
	// Walking is upright with leg separation.
	Walking
	// Fallen is horizontal on the ground — the hazard the pose model must flag.
	Fallen
)

// String returns the lowercase pose name.
func (p Pose) String() string {
	switch p {
	case Standing:
		return "standing"
	case Walking:
		return "walking"
	case Fallen:
		return "fallen"
	default:
		return fmt.Sprintf("pose(%d)", int(p))
	}
}

// Entity places one actor in the world. X is the lateral offset in metres
// (negative left of camera axis), Depth the distance from the camera in
// metres. Shirt/Pants colour pedestrians; the VIP's vest colour is fixed
// by the renderer.
type Entity struct {
	Kind         EntityKind
	X            float64 // lateral position, metres
	Depth        float64 // distance from camera, metres
	HeightM      float64 // physical height, metres (people ~1.5-1.9)
	Pose         Pose
	Shirt, Pants [3]uint8
	WalkPhase    float64 // 0-1 gait phase for Walking pose
}

// Scene is a fully specified world ready to render.
type Scene struct {
	Background Background
	Lighting   float64 // ambient multiplier; 1.0 nominal daylight, <0.5 dusk
	CamHeightM float64 // camera height above ground, metres
	Entities   []Entity
	Clutter    float64 // 0-1 background busy-ness (buildings, trees)
	Seed       uint64  // texture noise stream
	// Condition applies an environmental degradation at render time
	// (zero value Clear renders bit for bit as before it existed).
	Condition Condition
}

// KeypointName indexes the 13-point skeleton the pose model estimates,
// a subset of the 18 COCO-style points trt_pose produces.
type KeypointName int

// Skeleton keypoints, top to bottom.
const (
	KPHead KeypointName = iota
	KPNeck
	KPLeftShoulder
	KPRightShoulder
	KPLeftHip
	KPRightHip
	KPLeftKnee
	KPRightKnee
	KPLeftAnkle
	KPRightAnkle
	KPLeftHand
	KPRightHand
	KPPelvis
	// NumKeypoints is the skeleton size.
	NumKeypoints
)

// Keypoint is a projected skeleton point with a visibility flag.
type Keypoint struct {
	X, Y    float64
	Visible bool
}

// GroundTruth carries everything the renderer knows about a frame.
type GroundTruth struct {
	VestBox   imgproc.Rect // tight box around the hazard vest; empty if no VIP
	PersonBox imgproc.Rect // box around the whole VIP
	HasVIP    bool
	Pose      Pose
	Keypoints [NumKeypoints]Keypoint
	// Depth is the per-pixel metric depth map (metres), row-major W*H.
	Depth []float32
	// Boxes of non-VIP entities, for distractor/false-positive analysis.
	DistractorBoxes []imgproc.Rect
	// DistractorKinds tags each DistractorBoxes entry with its entity
	// kind (pedestrians radiate heat, parked cars barely, bicycles not).
	DistractorKinds []EntityKind
}

// VestColor returns the canonical neon hazard-vest colour (hue ≈ 75°,
// near-full saturation). Exported so detector tests can reference the
// same ground truth the renderer uses.
func VestColor() (uint8, uint8, uint8) { return imgproc.HSVToRGB(75, 0.92, 1.0) }

// clothing palettes deliberately exclude the neon vest hue band so the
// zero-false-positive property of the paper's detector is achievable.
var shirtPalette = [][3]uint8{
	{60, 60, 160}, {160, 60, 60}, {70, 70, 70}, {200, 200, 200},
	{30, 90, 50}, {120, 80, 40}, {20, 20, 20}, {90, 40, 120},
}

var pantsPalette = [][3]uint8{
	{40, 40, 60}, {30, 30, 30}, {80, 70, 60}, {100, 100, 110},
}

// RandomEntity draws a plausible entity of the given kind.
func RandomEntity(r *rng.RNG, kind EntityKind) Entity {
	e := Entity{
		Kind:    kind,
		X:       r.Range(-4, 4),
		Depth:   r.Range(4, 25),
		HeightM: r.Range(1.55, 1.9),
		Shirt:   rng.Choose(r, shirtPalette),
		Pants:   rng.Choose(r, pantsPalette),
	}
	switch kind {
	case Bicycle:
		e.HeightM = r.Range(0.9, 1.1)
	case ParkedCar:
		e.HeightM = r.Range(1.4, 1.6)
		e.Depth = r.Range(6, 30)
	case LampPost:
		e.HeightM = r.Range(3.5, 4.5)
		e.X = r.Range(1.6, 2.4) // walkway edge
	}
	return e
}
