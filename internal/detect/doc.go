// Package detect implements the retrainable hazard-vest detector that
// stands in for the paper's retrained YOLOv8/YOLOv11 models.
//
// The detector is a genuine trainable model, not an accuracy lookup
// table: it learns a clustered HSV colour model of the vest from
// annotated training images and verifies candidate regions with geometry
// and reflective-stripe evidence. Model capacity tiers (nano / medium /
// x-large, per family) differ in analysis resolution, the number of
// lighting clusters they can represent, and which robustness stages they
// enable — so accuracy differences across tiers, training-set sizes and
// adversarial conditions *emerge* from the data, reproducing the shape of
// the paper's Figs. 1, 3 and 4.
//
// Detect's front end touches each pixel once per stage and derives
// nothing per pixel that is fixed for the frame: contrast normalisation
// and the downscale are imgproc's table-driven Into variants, a
// cluster's effective HSV window is computed once per call, saturation
// and value are tested before hue is worked out, and the closing is a
// row pass and a column pass. All of it works out of a pooled scratch,
// so a steady-state call allocates only the boxes it returns. The
// per-pixel loops this replaced are the oracles in reference_test.go;
// every mask and box must equal theirs.
package detect
