// Package parallel provides small, dependency-free primitives for
// data-parallel execution: a chunked parallel-for over indices (For,
// ForWith) and over contiguous sub-ranges (ForRange).
//
// It serves the callers whose items are worth a goroutine: image rows in
// internal/imgproc, training and evaluation samples in internal/detect,
// and the sessions of pipeline.Fleet.Run. The tensor engine is serial by
// construction and does not use it (one inference stream per device, as
// the paper times them; BENCHMARKS.md §PR 19 records the measurements
// that retired its fan-outs). All primitives are deterministic with
// respect to the work they perform (only scheduling order varies), so
// results of associative-free computations are bit-reproducible.
package parallel
