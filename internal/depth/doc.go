// Package depth implements the monocular depth-estimation stage standing
// in for Monodepth2 (§3 of the paper): a self-calibrating ground-plane
// model with object-aware refinement, evaluated against the renderer's
// metric depth with the standard abs-rel / RMSE metrics.
//
// Monodepth2 learns depth from motion parallax; our substitute learns
// the dominant monocular cue in the same footage — the ground-plane
// perspective gradient — by regressing inverse depth against image row
// on calibration frames, then assigns obstacle pixels the depth of their
// ground-contact row. This exercises the pipeline contract (RGB frame
// and obstacle boxes in, metric depth out) with a genuinely learned
// model.
//
// The estimator answers per point: NearestObstacleM reads each obstacle
// centre's depth in closed form and builds no dense map. The dense form,
// Predict, is the test oracle in depth_test.go, where the abs-rel / RMSE
// evaluation against the renderer's depth (scene.GroundTruth.DepthAt)
// lives too.
package depth
