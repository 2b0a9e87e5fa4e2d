// Package imgproc provides the image type and classical image-processing
// operations used across the synthetic dataset pipeline: bilinear resize,
// separable Gaussian blur, brightness/contrast adjustment, cropping,
// rotation, HSV colour-space conversion and noise injection.
//
// Images are 8-bit RGB in row-major order, matching the 720p drone frames
// the paper's dataset is extracted from. All heavy loops parallelise over
// rows with internal/parallel.
//
// Resize and LocalContrastNormalize sit on the detector's per-frame
// path and are table-driven (per-column and per-row taps; one 256-entry
// table per tile); their Into forms write into a caller's image so that
// path can reuse its buffers. reference_test.go keeps the per-pixel
// definitions they must match byte for byte.
package imgproc
