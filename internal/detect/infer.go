package detect

import (
	"sort"
	"sync"

	"ocularone/internal/imgproc"
)

// Box is one vest detection in original-image pixel coordinates.
type Box struct {
	Rect  imgproc.Rect
	Score float64
}

// scratch is the working memory of one Detect call: the contrast
// tables and the downscaled image, the colour table, the bit-packed
// mask planes the closing runs through, and the component search's
// runs. Detect draws one from scratchPool, so concurrent calls never
// share one and a steady-state caller allocates only the boxes it
// returns.
type scratch struct {
	lut          imgproc.TileLUT
	small        imgproc.Image
	colours      colourTable
	planes       []uint64 // backs the two below
	mask, closed []uint64
	runs         []run
	comps        []component
	boxes        []Box
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize cuts the two mask planes for a w×h analysis image, reallocating
// only to grow. Their contents are whatever the last frame left.
func (s *scratch) resize(w, h int) {
	n := rowWords(w) * h
	s.planes = grow(s.planes, 2*n)
	s.mask, s.closed = s.planes[:n], s.planes[n:]
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Detect finds hazard vests in the frame. The pipeline is:
//
//  1. optional local contrast normalisation (ContrastNorm tiers),
//  2. downscale to the tier's analysis resolution,
//  3. per-pixel colour-model matching against the learned clusters,
//  4. connected-component extraction with geometric filtering,
//  5. optional reflective-stripe verification (StripeCheck tiers) that
//     rescues candidates whose colour fill is marginal,
//  6. greedy NMS, boxes mapped back to input coordinates.
//
// Steps 1 and 2 are one pass: the downscale reads the frame through
// the contrast tiles' tables, and stripe verification reads the
// candidate's region through them too.
//
// Detect is safe for concurrent use; the detector is immutable after
// training.
func (d *Detector) Detect(im *imgproc.Image) []Box {
	if len(d.Clusters) == 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	lut := d.Tier.analysisImage(&s.small, im, &s.lut)
	rw, rh := s.small.W, s.small.H
	s.resize(rw, rh)
	d.matchMask(s, &s.small)
	// Morphological closing bridges the reflective stripes, which split
	// the neon panel into disconnected slivers at analysis resolution.
	// The stripe width scales with resolution, so the closing radius must
	// too.
	cr := rw / 100
	if cr < 1 {
		cr = 1
	}
	dilate(s.closed, s.mask, rw, rh, cr)
	erode(s.mask, s.closed, rw, rh, cr)
	cands := s.components(s.mask, rw, rh)

	minArea := (rw * rh) / 1500 // vest must cover ≥ ~0.07% of the frame
	if minArea < 4 {
		minArea = 4
	}
	boxes := s.boxes[:0]
	sx := float64(im.W) / float64(rw)
	sy := float64(im.H) / float64(rh)
	for _, c := range cands {
		if c.area < minArea {
			continue
		}
		bw, bh := c.rect.W(), c.rect.H()
		if bw == 0 || bh == 0 {
			continue
		}
		aspect := float64(bh) / float64(bw)
		if aspect < 0.25 || aspect > 3.5 {
			continue
		}
		fill := float64(c.area) / float64(bw*bh)
		accepted := fill >= d.Tier.FillThreshold
		score := fill
		full := imgproc.Rect{
			X0: int(float64(c.rect.X0) * sx), Y0: int(float64(c.rect.Y0) * sy),
			X1: int(float64(c.rect.X1)*sx) + 1, Y1: int(float64(c.rect.Y1)*sy) + 1,
		}.Clamp(im.W, im.H)
		if d.Tier.StripeCheck && (accepted && fill < 0.5 || !accepted && fill >= d.Tier.FillThreshold*0.8) {
			// Reflective-stripe verification in the full-res candidate
			// region: a veto for low-confidence accepts (noise blobs have
			// no stripes) and a rescue for borderline colour fills.
			if hasStripes(im, lut, full) {
				accepted = true
				score = fill + 0.1
			} else {
				accepted = false
			}
		}
		if accepted {
			boxes = append(boxes, Box{Rect: full, Score: score})
		}
	}
	s.boxes = boxes
	return nmsBoxes(boxes, 0.5)
}

// analysisImage makes dst im downscaled to the tier's analysis
// resolution, read on ContrastNorm tiers through the contrast tiles'
// tables, which it builds in lut; it returns the tables it read
// through. Training and Detect both see a frame through it.
func (t Tier) analysisImage(dst, im *imgproc.Image, lut *imgproc.TileLUT) *imgproc.TileLUT {
	m := imgproc.IdentityLUT()
	if t.ContrastNorm {
		m = lut.Contrast(im, im.W/5)
	}
	rw := t.Resolution
	rh := rw * im.H / im.W
	if rh < 8 {
		rh = 8
	}
	imgproc.ResizeLUTInto(dst.Reshape(rw, rh), im, m)
	return m
}

// matchMask sets in s.mask the pixels accepted by any colour cluster.
// Saturation and value depend only on a pixel's extreme channels, so
// the colour table answers them for all clusters at once and hue is
// worked out only for a pixel some cluster's S and V windows admit. The
// Go form looks up every pixel; the vector form first marks the pixels
// inside the table's box, a pass of imgproc's, and looks up only those:
// every pixel it skips has entry 0.
func (d *Detector) matchMask(s *scratch, im *imgproc.Image) {
	t := s.colours.build(d)
	wpr := rowWords(im.W)
	vec := imgproc.VectorForm()
	for y := 0; y < im.H; y++ {
		row := s.mask[y*wpr : (y+1)*wpr]
		pix := im.Pix[y*im.W*3 : (y+1)*im.W*3]
		if vec {
			t.box.Row(row, pix)
		}
		for wi := range row {
			seg := pix[wi*64*3 : min((wi+1)*64*3, len(pix))]
			in := row[wi]
			if !vec {
				in = ^uint64(0) >> (64 - len(seg)/3)
			}
			row[wi] = t.match(seg, in)
		}
	}
}

// hasStripes checks a full-resolution candidate region, read through
// the frame's contrast tables, for the vest's reflective bands: bright,
// low-saturation pixels forming a meaningful fraction of the region. r
// must lie inside the image. A table is monotone, so it maps a pixel's
// extreme channels to the extremes of its mapped channels, and those
// are all SatVal reads.
func hasStripes(im *imgproc.Image, lut *imgproc.TileLUT, r imgproc.Rect) bool {
	if r.Empty() {
		return false
	}
	bright := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; {
			t, end := lut.Span(x, y)
			end = min(end, r.X1)
			row := im.Pix[(y*im.W+x)*3 : (y*im.W+end)*3]
			for o := 0; o+2 < len(row); o += 3 {
				mx, mn := t[max(row[o], row[o+1], row[o+2])], t[min(row[o], row[o+1], row[o+2])]
				if s, v := imgproc.SatVal(mx, mn, mn); v > 0.55 && s < 0.35 {
					bright++
				}
			}
			x = end
		}
	}
	frac := float64(bright) / float64(r.Area())
	return frac >= 0.015 && frac <= 0.5
}

// nmsBoxes performs greedy NMS keeping the highest-scoring boxes.
func nmsBoxes(boxes []Box, iouThr float64) []Box {
	sort.Slice(boxes, func(a, b int) bool { return boxes[a].Score > boxes[b].Score })
	var keep []Box
	for _, b := range boxes {
		ok := true
		for _, k := range keep {
			if k.Rect.IoU(b.Rect) > iouThr {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, b)
		}
	}
	return keep
}
