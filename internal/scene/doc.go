// Package scene procedurally renders the outdoor campus scenes that stand
// in for the paper's drone footage. Each rendered frame carries full
// ground truth — hazard-vest and person bounding boxes, body keypoints,
// and a metric depth map — which the dataset, pose, and depth packages
// consume.
//
// The scene model follows Table 1 of the paper: a proxy VIP wearing a
// neon hazard vest walks on footpaths, paths, or road sides, optionally
// surrounded by pedestrians, bicycles, and parked cars, under varying
// lighting. A pinhole camera at drone-handheld height projects the world
// onto a 4:3 or 16:9 frame; a Camera is that frame size and the mounting
// height, with the DJI Tello's optics (focal length and horizon row)
// scaled to the frame.
//
// Rendering is byte-stable: a frame is a function of its scene and
// camera, through rng streams whose every draw is part of the frame's
// definition. The two loops that draw most — the ground texture, one draw
// a pixel, and the sensor noise, one or two a byte — take their draws in
// blocks from SplitMix64's counter form (rng.Skip, rng.Mix), eight lanes
// at a time in AVX-512 where the kernel tier is avx512vnni
// (render_amd64.s) and in Go otherwise, to the same bytes; the per-pixel
// loops they replaced are the oracles in reference_test.go.
package scene
