package detect

import (
	"math"
	"sort"
	"sync"

	"ocularone/internal/imgproc"
)

// Box is one vest detection in original-image pixel coordinates.
type Box struct {
	Rect  imgproc.Rect
	Score float64
}

// scratch is the working memory of one Detect call: the contrast-
// normalised and downscaled images, the mask planes the closing
// ping-pongs through, and the component search's state. Detect draws
// one from scratchPool, so concurrent calls never share one and a
// steady-state caller allocates only the boxes it returns.
type scratch struct {
	work, small                imgproc.Image
	planes                     []bool // backs the four below
	mask, tmp, closed, visited []bool
	stack                      []int
	comps                      []component
	windows                    []window
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize cuts the four mask planes for an n-pixel analysis image,
// reallocating only to grow. Their contents are whatever the last
// frame left.
func (s *scratch) resize(n int) {
	if cap(s.planes) < 4*n {
		s.planes = make([]bool, 4*n)
	}
	p := s.planes[:4*n]
	s.mask, s.tmp, s.closed, s.visited = p[:n], p[n:2*n], p[2*n:3*n], p[3*n:]
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
// Detect is safe for concurrent use; the detector is immutable after
// training.
func (d *Detector) Detect(im *imgproc.Image) []Box {
	if len(d.Clusters) == 0 {
		return nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	work := im
	if d.Tier.ContrastNorm {
		work = s.work.Reshape(im.W, im.H)
		imgproc.LocalContrastNormalizeInto(work, im, im.W/5)
	}
	rw := d.Tier.Resolution
	rh := rw * im.H / im.W
	if rh < 8 {
		rh = 8
	}
	small := s.small.Reshape(rw, rh)
	imgproc.ResizeInto(small, work)

	s.resize(rw * rh)
	d.matchMask(s, small)
	// Morphological closing bridges the reflective stripes, which split
	// the neon panel into disconnected slivers at analysis resolution.
	// The stripe width scales with resolution, so the closing radius must
	// too.
	cr := rw / 100
	if cr < 1 {
		cr = 1
	}
	dilate(s.closed, s.tmp, s.mask, rw, rh, cr)
	erode(s.mask, s.tmp, s.closed, rw, rh, cr)
	cands := s.components(s.mask, rw, rh)

	minArea := (rw * rh) / 1500 // vest must cover ≥ ~0.07% of the frame
	if minArea < 4 {
		minArea = 4
	}
	var boxes []Box
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
		if d.Tier.StripeCheck && (accepted && fill < 0.5 || !accepted && fill >= d.Tier.FillThreshold*0.8) {
			// Reflective-stripe verification in the full-res candidate
			// region: a veto for low-confidence accepts (noise blobs have
			// no stripes) and a rescue for borderline colour fills.
			full := imgproc.Rect{
				X0: int(float64(c.rect.X0) * sx), Y0: int(float64(c.rect.Y0) * sy),
				X1: int(float64(c.rect.X1)*sx) + 1, Y1: int(float64(c.rect.Y1)*sy) + 1,
			}.Clamp(im.W, im.H)
			if hasStripes(work, full) {
				accepted = true
				score = fill + 0.1
			} else {
				accepted = false
			}
		}
		if !accepted {
			continue
		}
		boxes = append(boxes, Box{
			Rect: imgproc.Rect{
				X0: int(float64(c.rect.X0) * sx), Y0: int(float64(c.rect.Y0) * sy),
				X1: int(float64(c.rect.X1)*sx) + 1, Y1: int(float64(c.rect.Y1)*sy) + 1,
			}.Clamp(im.W, im.H),
			Score: score,
		})
	}
	return nmsBoxes(boxes, 0.5)
}

// window is one cluster's acceptance box in HSV: its centre and the
// effective half-width on each axis, fixed for a whole frame.
type window struct {
	h, s, v    float64
	dh, ds, dv float64
}

// matchMask marks in s.mask the pixels accepted by any colour cluster.
// Saturation and value need only the extreme channels, so they are
// tested first and hue is computed for the pixels that pass them.
func (d *Detector) matchMask(s *scratch, im *imgproc.Image) {
	s.windows = s.windows[:0]
	for _, c := range d.Clusters {
		mh, ms, mv := c.effMargins(d.Tier)
		s.windows = append(s.windows, window{
			h: c.meanH, s: c.meanS, v: c.meanV,
			dh: mh * c.stdH, ds: ms * c.stdS, dv: mv * c.stdV,
		})
	}
	for i := range s.mask {
		px := im.Pix[i*3 : i*3+3]
		sat, val := imgproc.SatVal(px[0], px[1], px[2])
		hue, hit := -1.0, false
		for _, c := range s.windows {
			if !(math.Abs(sat-c.s) <= c.ds && math.Abs(val-c.v) <= c.dv) {
				continue
			}
			if hue < 0 {
				hue = imgproc.Hue(px[0], px[1], px[2])
			}
			dh := math.Abs(hue - c.h)
			if dh > 180 {
				dh = 360 - dh
			}
			if dh <= c.dh {
				hit = true
				break
			}
		}
		s.mask[i] = hit
	}
}

// widenRuns copies every run of set cells on a line of src (n cells,
// stride apart, starting at off) into dst with each end moved outward
// by k cells and clipped to the line; k < 0 narrows runs, dropping
// those of 2|k| cells or fewer. dst must be clear on entry.
func widenRuns(dst, src []bool, off, n, stride, k int) {
	for i := 0; i < n; {
		if !src[off+i*stride] {
			i++
			continue
		}
		a := i
		for i < n && src[off+i*stride] {
			i++
		}
		for j := max(a-k, 0); j < min(i+k, n); j++ {
			dst[off+j*stride] = true
		}
	}
}

// widen applies widenRuns along every row of mask into tmp and then
// along every column of tmp into dst: a square (Chebyshev) structuring
// element is the composition of its horizontal and vertical segments.
func widen(dst, tmp, mask []bool, w, h, k int) {
	clear(tmp)
	for y := 0; y < h; y++ {
		widenRuns(tmp, mask, y*w, w, 1, k)
	}
	clear(dst)
	for x := 0; x < w; x++ {
		widenRuns(dst, tmp, x, h, w, k)
	}
}

// dilate grows the mask by r pixels (Chebyshev ball) into dst.
func dilate(dst, tmp, mask []bool, w, h, r int) { widen(dst, tmp, mask, w, h, r) }

// erode shrinks the mask by r pixels (Chebyshev ball) into dst; cells
// outside the image count as unset, which is what a run ending at the
// border already says.
func erode(dst, tmp, mask []bool, w, h, r int) { widen(dst, tmp, mask, w, h, -r) }

// component is a connected region of matched pixels.
type component struct {
	rect imgproc.Rect
	area int
}

// components extracts 4-connected regions from a mask of s.resize's
// size via BFS. The result is valid until s is reused.
func (s *scratch) components(mask []bool, w, h int) []component {
	clear(s.visited)
	visited, out, queue := s.visited, s.comps[:0], s.stack
	for start := range mask {
		if !mask[start] || visited[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		comp := component{rect: imgproc.Rect{X0: w, Y0: h, X1: 0, Y1: 0}}
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			px, py := p%w, p/w
			comp.area++
			if px < comp.rect.X0 {
				comp.rect.X0 = px
			}
			if py < comp.rect.Y0 {
				comp.rect.Y0 = py
			}
			if px+1 > comp.rect.X1 {
				comp.rect.X1 = px + 1
			}
			if py+1 > comp.rect.Y1 {
				comp.rect.Y1 = py + 1
			}
			for _, q := range [4]int{p - 1, p + 1, p - w, p + w} {
				if q < 0 || q >= len(mask) {
					continue
				}
				// Prevent row wrap-around for horizontal neighbours.
				if (q == p-1 && px == 0) || (q == p+1 && px == w-1) {
					continue
				}
				if mask[q] && !visited[q] {
					visited[q] = true
					queue = append(queue, q)
				}
			}
		}
		out = append(out, comp)
	}
	s.comps, s.stack = out, queue
	return out
}

// hasStripes checks a full-resolution candidate region for the vest's
// reflective bands: bright, low-saturation pixels forming a meaningful
// fraction of the region. r must lie inside the image.
func hasStripes(im *imgproc.Image, r imgproc.Rect) bool {
	if r.Empty() {
		return false
	}
	bright := 0
	for y := r.Y0; y < r.Y1; y++ {
		row := im.Pix[(y*im.W+r.X0)*3 : (y*im.W+r.X1)*3]
		for o := 0; o+2 < len(row); o += 3 {
			if s, v := imgproc.SatVal(row[o], row[o+1], row[o+2]); v > 0.55 && s < 0.35 {
				bright++
			}
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
