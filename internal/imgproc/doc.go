// Package imgproc provides the image type and classical image-processing
// operations used across the synthetic dataset pipeline: bilinear resize,
// separable Gaussian blur, brightness/contrast adjustment, cropping,
// rotation, HSV colour-space conversion and noise injection.
//
// Images are 8-bit RGB in row-major order, matching the 720p drone frames
// the paper's dataset is extracted from. The dataset-side filters (blur,
// brightness, noise, rotation) parallelise over rows with
// internal/parallel; the detector's per-frame path (the resampling
// kernel, Crop) runs serially on its caller's goroutine.
//
// Resize and LocalContrastNormalize are both callers of one resampling
// kernel, ResizeLUTInto, which reads its source through a TileLUT — the
// identity, or one 256-entry table per contrast tile — with taps fixed
// per output column and row. The detector resizes through contrast
// tables in one pass and never stores the normalised frame. The
// kernel's three loops (map a row through its tables, lerp it
// horizontally, blend two rows) have Go forms and AVX-512 forms, bound
// by the avx512vnni kernel tier (VectorForm), and so do the detector's
// two per-pixel scans — the contrast tiles' luma range and an
// ExtremaBox's row of hits, the colour mask's pre-filter — and MapBytes,
// the byte-table map under the render's tone maps and AdjustBrightness
// (whose AVX-512 form also needs VBMI: tensor.HasAVX512VBMI).
// reference_test.go keeps the per-pixel definitions both forms must
// match byte for byte.
package imgproc
