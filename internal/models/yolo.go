package models

import (
	"fmt"
	"math"

	"ocularone/internal/nn"
	"ocularone/internal/rng"
)

// Size selects a YOLO model scale, matching the paper's choice of the
// Nano / Medium / X-Large spectrum ends and middle.
type Size int

// Model sizes.
const (
	Nano Size = iota
	Medium
	XLarge
)

// String returns the Ultralytics size suffix.
func (s Size) String() string {
	switch s {
	case Nano:
		return "n"
	case Medium:
		return "m"
	case XLarge:
		return "x"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// Family selects the YOLO generation.
type Family int

// Model families.
const (
	YOLOv8 Family = iota
	YOLOv11
)

// String returns the family name.
func (f Family) String() string {
	if f == YOLOv8 {
		return "YOLOv8"
	}
	return "YOLOv11"
}

// scale holds Ultralytics' per-size compound-scaling constants.
type scale struct {
	depth, width float64
	maxChannels  int
}

var v8Scales = map[Size]scale{
	Nano:   {0.33, 0.25, 1024},
	Medium: {0.67, 0.75, 768},
	XLarge: {1.00, 1.25, 512},
}

var v11Scales = map[Size]scale{
	Nano:   {0.50, 0.25, 1024},
	Medium: {0.50, 1.00, 512},
	XLarge: {1.00, 1.50, 512},
}

// makeDivisible rounds v*width up to a multiple of 8, the Ultralytics
// channel-scaling rule.
func (s scale) ch(base int) int {
	c := float64(minI(base, s.maxChannels)) * s.width
	return int(math.Ceil(c/8)) * 8
}

// depthN scales a repeat count, flooring at 1.
func (s scale) depthN(n int) int {
	d := int(math.Round(float64(n) * s.depth))
	if d < 1 {
		d = 1
	}
	return d
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BuildYOLOv8 constructs a YOLOv8 detection network for nc classes.
func BuildYOLOv8(size Size, nc int, seed uint64) *nn.Network {
	return buildYOLOv8(size, nc, rng.New(seed))
}

func buildYOLOv8(size Size, nc int, r *rng.RNG) *nn.Network {
	sc := v8Scales[size]
	ch := func(c int) int { return sc.ch(c) }
	c64, c128, c256, c512, c1024 := ch(64), ch(128), ch(256), ch(512), ch(1024)
	n3, n6 := sc.depthN(3), sc.depthN(6)

	nodes := []nn.Node{
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 0), 3, c64, 3, 2, nn.ActSiLU)},                // 0 P1/2
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 1), c64, c128, 3, 2, nn.ActSiLU)},             // 1 P2/4
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 2), c128, c128, n3, true)},                     // 2
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 3), c128, c256, 3, 2, nn.ActSiLU)},            // 3 P3/8
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 4), c256, c256, n6, true)},                     // 4
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 5), c256, c512, 3, 2, nn.ActSiLU)},            // 5 P4/16
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 6), c512, c512, n6, true)},                     // 6
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 7), c512, c1024, 3, 2, nn.ActSiLU)},           // 7 P5/32
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 8), c1024, c1024, n3, true)},                   // 8
		{From: []int{-1}, Module: nn.NewSPPF(r.SplitN("l", 9), c1024, c1024, 5)},                         // 9
		{From: []int{-1}, Module: nn.Upsample{}},                                                         // 10
		{From: []int{-1, 6}, Module: nn.Concat{}},                                                        // 11
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 12), c1024+c512, c512, n3, false)},             // 12
		{From: []int{-1}, Module: nn.Upsample{}},                                                         // 13
		{From: []int{-1, 4}, Module: nn.Concat{}},                                                        // 14
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 15), c512+c256, c256, n3, false)},              // 15 P3 out
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 16), c256, c256, 3, 2, nn.ActSiLU)},           // 16
		{From: []int{-1, 12}, Module: nn.Concat{}},                                                       // 17
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 18), c256+c512, c512, n3, false)},              // 18 P4 out
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 19), c512, c512, 3, 2, nn.ActSiLU)},           // 19
		{From: []int{-1, 9}, Module: nn.Concat{}},                                                        // 20
		{From: []int{-1}, Module: nn.NewC2f(r.SplitN("l", 21), c512+c1024, c1024, n3, false)},            // 21 P5 out
		{From: []int{15, 18, 21}, Module: nn.NewDetect(r.Split("detect"), nc, []int{c256, c512, c1024})}, // 22
	}
	return &nn.Network{
		Name:  fmt.Sprintf("yolov8%s", size),
		Nodes: nodes,
	}
}

// BuildYOLOv11 constructs a YOLOv11 detection network for nc classes.
// Per Ultralytics, the Medium and X-Large scales promote every C3k2's
// inner modules to full C3k blocks.
func BuildYOLOv11(size Size, nc int, seed uint64) *nn.Network {
	return buildYOLOv11(size, nc, rng.New(seed))
}

func buildYOLOv11(size Size, nc int, r *rng.RNG) *nn.Network {
	sc := v11Scales[size]
	ch := func(c int) int { return sc.ch(c) }
	c64, c128, c256, c512, c1024 := ch(64), ch(128), ch(256), ch(512), ch(1024)
	n2 := sc.depthN(2)
	// c3k is forced on for m/l/x scales.
	c3k := size != Nano

	nodes := []nn.Node{
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 0), 3, c64, 3, 2, nn.ActSiLU)},                  // 0 P1/2
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 1), c64, c128, 3, 2, nn.ActSiLU)},               // 1 P2/4
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 2), c128, c256, n2, c3k, 0.25)},                 // 2
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 3), c256, c256, 3, 2, nn.ActSiLU)},              // 3 P3/8
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 4), c256, c512, n2, c3k, 0.25)},                 // 4
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 5), c512, c512, 3, 2, nn.ActSiLU)},              // 5 P4/16
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 6), c512, c512, n2, true, 0.5)},                 // 6
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 7), c512, c1024, 3, 2, nn.ActSiLU)},             // 7 P5/32
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 8), c1024, c1024, n2, true, 0.5)},               // 8
		{From: []int{-1}, Module: nn.NewSPPF(r.SplitN("l", 9), c1024, c1024, 5)},                           // 9
		{From: []int{-1}, Module: nn.NewC2PSA(r.SplitN("l", 10), c1024, n2)},                               // 10
		{From: []int{-1}, Module: nn.Upsample{}},                                                           // 11
		{From: []int{-1, 6}, Module: nn.Concat{}},                                                          // 12
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 13), c1024+c512, c512, n2, c3k, 0.5)},           // 13
		{From: []int{-1}, Module: nn.Upsample{}},                                                           // 14
		{From: []int{-1, 4}, Module: nn.Concat{}},                                                          // 15
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 16), c512+c512, c256, n2, c3k, 0.5)},            // 16 P3
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 17), c256, c256, 3, 2, nn.ActSiLU)},             // 17
		{From: []int{-1, 13}, Module: nn.Concat{}},                                                         // 18
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 19), c256+c512, c512, n2, c3k, 0.5)},            // 19 P4
		{From: []int{-1}, Module: nn.NewConv(r.SplitN("l", 20), c512, c512, 3, 2, nn.ActSiLU)},             // 20
		{From: []int{-1, 10}, Module: nn.Concat{}},                                                         // 21
		{From: []int{-1}, Module: nn.NewC3k2(r.SplitN("l", 22), c512+c1024, c1024, n2, true, 0.5)},         // 22 P5
		{From: []int{16, 19, 22}, Module: nn.NewDetect11(r.Split("detect"), nc, []int{c256, c512, c1024})}, // 23
	}
	return &nn.Network{
		Name:  fmt.Sprintf("yolov11%s", size),
		Nodes: nodes,
	}
}
