package detect

import "ocularone/internal/imgproc"

// DetectEarly runs the confidence-based early-exit detect head (ladder
// rung L2 of internal/temporal): a reduced-resolution first pass over
// the same colour model — half the tier's analysis resolution, no
// contrast normalisation or stripe verification — that returns
// immediately when its best candidate clears exitScore. Frames the
// cheap pass cannot resolve confidently fall through to the full-tier
// Detect, so the early head only ever trades latency, never a
// confident detection. It reports whether the exit fired; callers
// charge the ladder's reduced early-exit service-time fraction only
// when it did.
func (d *Detector) DetectEarly(im *imgproc.Image, exitScore float64) ([]Box, bool) {
	cheap := *d
	cheap.Tier.Resolution = d.Tier.Resolution / 2
	if cheap.Tier.Resolution < 32 {
		cheap.Tier.Resolution = 32
	}
	cheap.Tier.ContrastNorm = false
	cheap.Tier.StripeCheck = false
	if boxes := cheap.Detect(im); len(boxes) > 0 && boxes[0].Score >= exitScore {
		return boxes, true
	}
	return d.Detect(im), false
}

// DetectROI runs the detector over a crop around a live track (ladder
// rung L1): the region is clamped to the frame, detected at full tier
// quality, and the boxes are mapped back to full-image coordinates.
// The latency win comes from the smaller analysis area — serving tiers
// charge the ladder's ROI service-time fraction for it.
func (d *Detector) DetectROI(im *imgproc.Image, roi imgproc.Rect) []Box {
	roi = roi.Clamp(im.W, im.H)
	if roi.Empty() {
		return nil
	}
	crop := imgproc.Crop(im, roi)
	boxes := d.Detect(crop)
	for i := range boxes {
		boxes[i].Rect.X0 += roi.X0
		boxes[i].Rect.X1 += roi.X0
		boxes[i].Rect.Y0 += roi.Y0
		boxes[i].Rect.Y1 += roi.Y0
	}
	return boxes
}

// ROIAround expands a tracked box into the re-inference crop: grow by
// marginFrac on every side (the track may have drifted since the last
// real detection), then clamp to the frame.
func ROIAround(box imgproc.Rect, marginFrac float64, w, h int) imgproc.Rect {
	mw := int(float64(box.W()) * marginFrac)
	mh := int(float64(box.H()) * marginFrac)
	return imgproc.Rect{
		X0: box.X0 - mw, Y0: box.Y0 - mh,
		X1: box.X1 + mw, Y1: box.Y1 + mh,
	}.Clamp(w, h)
}
