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
// nothing per pixel that is fixed for the frame: the downscale reads the
// frame through the contrast tiles' tables in one pass, one table over
// the triangle of (max, min) channel pairs (32,896 bytes, in L1)
// answers every cluster's saturation and value test at once so hue is
// worked out only where one admits, and the masks are bit-packed rows —
// the closing is word shifts with OR / AND, the components a union-find
// over runs. On the avx512vnni tier the contrast tiles' luma scan and a
// box pre-filter ahead of the table are imgproc's AVX-512 scans: the
// box holds every (max, min) pair the table admits, and only the pixels
// inside it are looked up. All of
// it works out of a pooled scratch, so a steady-state call allocates
// only the boxes it returns. The per-pixel loops, the []bool morphology
// and the BFS this replaced are the oracles in reference_test.go; every
// mask and box must equal theirs.
package detect
