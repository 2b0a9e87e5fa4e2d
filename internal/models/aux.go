package models

import (
	"ocularone/internal/nn"
	"ocularone/internal/rng"
)

// NumPoseKeypoints is the keypoint count of the pose model's heatmap
// head, matching the renderer's 13-point skeleton.
const NumPoseKeypoints = 13

// BuildTRTPose constructs the trt_pose stand-in: a ResNet-18 encoder with
// an upsampling decoder producing keypoint confidence maps (cmap) and
// part-affinity fields (paf), the architecture of NVIDIA's
// resnet18_baseline_att checkpoint the paper benchmarks.
func BuildTRTPose(seed uint64) *nn.Network { return buildTRTPose(rng.New(seed)) }

func buildTRTPose(r *rng.RNG) *nn.Network {
	var nodes []nn.Node
	nodes, _ = nn.ResNet18Backbone(r.Split("backbone"), nodes)
	add := func(from []int, m nn.Module) int {
		nodes = append(nodes, nn.Node{From: from, Module: m})
		return len(nodes) - 1
	}
	// Decoder: project, two upsample+conv stages, then the two heads.
	add([]int{-1}, nn.NewConv(r.Split("proj"), 512, 256, 1, 1, nn.ActReLU))
	add([]int{-1}, nn.NewConv(r.Split("ref0"), 256, 256, 3, 1, nn.ActReLU))
	add([]int{-1}, nn.Upsample{})
	add([]int{-1}, nn.NewConv(r.Split("ref1"), 256, 256, 3, 1, nn.ActReLU))
	add([]int{-1}, nn.Upsample{})
	refined := add([]int{-1}, nn.NewConv(r.Split("ref2"), 256, 128, 3, 1, nn.ActReLU))
	cmap := add([]int{refined}, nn.NewConv2d(r.Split("cmap"), 128, NumPoseKeypoints, 1))
	paf := add([]int{refined}, nn.NewConv2d(r.Split("paf"), 128, 2*NumPoseKeypoints, 1))
	return &nn.Network{Name: "trt_pose_resnet18", Nodes: nodes, Outputs: []int{cmap, paf}}
}

// BuildMonodepth2 constructs the Monodepth2 stand-in: ResNet-18 encoder
// plus the UNet-style depth decoder with skip connections and a sigmoid
// disparity head, following the published architecture.
func BuildMonodepth2(seed uint64) *nn.Network { return buildMonodepth2(rng.New(seed)) }

func buildMonodepth2(r *rng.RNG) *nn.Network {
	var nodes []nn.Node
	var stages [4]int
	nodes, stages = nn.ResNet18Backbone(r.Split("encoder"), nodes)
	add := func(from []int, m nn.Module) int {
		nodes = append(nodes, nn.Node{From: from, Module: m})
		return len(nodes) - 1
	}
	// Decoder stage i: upconv (3×3), upsample, concat skip, iconv (3×3).
	// Channel plan mirrors monodepth2: [256, 128, 64, 32].
	dec := []struct {
		in, out, skip int
		skipIdx       int
	}{
		{512, 256, 256, stages[2]},
		{256, 128, 128, stages[1]},
		{128, 64, 64, stages[0]},
		{64, 32, 0, -1},
	}
	cur := stages[3]
	for i, d := range dec {
		up := add([]int{cur}, nn.NewConv(r.SplitN("upconv", i), d.in, d.out, 3, 1, nn.ActReLU))
		us := add([]int{up}, nn.Upsample{})
		if d.skipIdx >= 0 {
			cat := add([]int{us, d.skipIdx}, nn.Concat{})
			cur = add([]int{cat}, nn.NewConv(r.SplitN("iconv", i), d.out+d.skip, d.out, 3, 1, nn.ActReLU))
		} else {
			cur = add([]int{us}, nn.NewConv(r.SplitN("iconv", i), d.out, d.out, 3, 1, nn.ActReLU))
		}
	}
	disp := add([]int{cur}, nn.NewConv2d(r.Split("disp"), 32, 1, 3))
	return &nn.Network{Name: "monodepth2_resnet18", Nodes: nodes, Outputs: []int{disp}}
}
