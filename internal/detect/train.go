package detect

import (
	"fmt"
	"math"
	"sort"

	"ocularone/internal/dataset"
	"ocularone/internal/imgproc"
	"ocularone/internal/parallel"
)

// hsvSample is one training observation: the robust colour statistics of
// a vest region in one annotated image.
type hsvSample struct {
	h, s, v float64
}

// cluster models one lighting condition of the vest: Gaussian-ish
// statistics of hue/saturation/value plus the number of training images
// supporting it. Low-support clusters get shrunken acceptance margins —
// the mechanism by which small or poorly curated training sets lose
// accuracy (the paper's Fig. 1).
type cluster struct {
	meanH, stdH float64
	meanS, stdS float64
	meanV, stdV float64
	support     int
}

// supportShrink is the pseudo-count controlling how quickly acceptance
// margins approach their nominal width as per-cluster training support
// grows: eff = margin * sqrt(n / (n + supportShrink)).
const supportShrink = 25.0

// maxHueWindow caps the effective hue acceptance half-width in degrees.
// Hue is the vest's invariant signature; windows wider than this start
// admitting the neighbouring vegetation band (~30° away) under noise.
const maxHueWindow = 20.0

// effMargins returns the support-adjusted margins for this cluster.
func (c cluster) effMargins(t Tier) (mh, ms, mv float64) {
	f := math.Sqrt(float64(c.support) / (float64(c.support) + supportShrink))
	mh = t.MarginH * f
	if mh*c.stdH > maxHueWindow {
		mh = maxHueWindow / c.stdH
	}
	return mh, t.MarginS * f, t.MarginV * f
}

// Detector is a trained vest detector.
type Detector struct {
	Tier     Tier
	Clusters []cluster
	// TrainImages is the number of annotated images the model saw.
	TrainImages int
}

// Options controls training-data handling.
type Options struct {
	// Curated enables the annotation-quality pass the paper's manual
	// Roboflow curation performs: crops with ambiguous colour statistics
	// are dropped and hue outliers are rejected before clustering.
	// Training without curation — the Fig. 1 "random images" baseline —
	// fits whatever the raw annotations contain, poisoned crops included.
	Curated bool
}

// TrainDataset renders every item of the training split and fits the
// detector with the paper's curated protocol. Rendering parallelises
// across items.
func TrainDataset(t Tier, ds *dataset.Dataset) *Detector {
	return TrainDatasetOpts(t, ds, Options{Curated: true})
}

// TrainDatasetOpts is TrainDataset with explicit data-handling options.
func TrainDatasetOpts(t Tier, ds *dataset.Dataset, o Options) *Detector {
	samples := make([]hsvSample, ds.Len())
	valid := make([]bool, ds.Len())
	parallel.For(ds.Len(), func(i int) {
		r := ds.Render(ds.Items[i])
		if s, ok := extractSample(t, r, o.Curated); ok {
			samples[i] = s
			valid[i] = true
		}
	})
	var kept []hsvSample
	for i, ok := range valid {
		if ok {
			kept = append(kept, samples[i])
		}
	}
	return fit(t, kept, o)
}

// extractSample prepares one training observation. The image passes
// through exactly the inference-time preprocessing — contrast
// normalisation (if the tier enables it) and downscale to the analysis
// resolution — so the colour model is learned in the space it is applied
// in; colours dilute measurably when a small vest is downsampled, and a
// model fit at full resolution would systematically miss.
func extractSample(t Tier, r dataset.Rendered, curated bool) (hsvSample, bool) {
	if !r.Truth.HasVIP || r.Truth.VestBox.Empty() || r.Truth.VestBox.Area() < 9 {
		return hsvSample{}, false
	}
	small := new(imgproc.Image)
	t.analysisImage(small, r.Image, new(imgproc.TileLUT))
	rw, rh := small.W, small.H
	sx := float64(rw) / float64(r.Image.W)
	sy := float64(rh) / float64(r.Image.H)
	box := imgproc.Rect{
		X0: int(float64(r.Truth.VestBox.X0) * sx), Y0: int(float64(r.Truth.VestBox.Y0) * sy),
		X1: int(float64(r.Truth.VestBox.X1)*sx) + 1, Y1: int(float64(r.Truth.VestBox.Y1)*sy) + 1,
	}.Clamp(rw, rh)
	return vestSample(small, box, curated)
}

// vestSample extracts the robust HSV statistics of the annotated vest
// region: the median over interior pixels, which rejects the reflective
// stripes and boundary mixing.
func vestSample(im *imgproc.Image, box imgproc.Rect, curated bool) (hsvSample, bool) {
	if box.Empty() {
		return hsvSample{}, false
	}
	// Sample the central region; at analysis resolution the border pixels
	// are blends of vest and background.
	cw, ch := box.W(), box.H()
	inner := imgproc.Rect{
		X0: box.X0 + cw/4, Y0: box.Y0 + ch/4,
		X1: box.X1 - cw/4, Y1: box.Y1 - ch/4,
	}
	if inner.Empty() {
		inner = box
	}
	var hs, ss, vs []float64
	for y := inner.Y0; y < inner.Y1; y++ {
		for x := inner.X0; x < inner.X1; x++ {
			r, g, b := im.At(x, y)
			h, s, v := imgproc.RGBToHSV(r, g, b)
			hs = append(hs, h)
			ss = append(ss, s)
			vs = append(vs, v)
		}
	}
	if len(hs) == 0 {
		return hsvSample{}, false
	}
	// Annotation QA (curated protocol only): a clean vest crop has a
	// tight hue distribution and meaningful saturation. Crops dominated
	// by vest/background blending or mislabeled regions drag cluster
	// statistics into neighbouring hue bands and poison the model; the
	// paper's manual Roboflow pass removes them.
	sort.Float64s(hs)
	if curated {
		iqr := hs[len(hs)*3/4] - hs[len(hs)/4]
		if iqr > 20 || median(ss) < 0.25 {
			return hsvSample{}, false
		}
	}
	return hsvSample{h: hs[len(hs)/2], s: median(ss), v: median(vs)}, true
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// fit clusters the samples along the value (brightness) axis with a 1-D
// k-means — lighting is the dominant mode of variation — and records
// per-cluster HSV statistics.
func fit(t Tier, samples []hsvSample, o Options) *Detector {
	d := &Detector{Tier: t, TrainImages: len(samples)}
	if len(samples) == 0 {
		return d
	}
	if o.Curated {
		// Second QA pass: reject hue outliers relative to the global
		// median. The vest is a single dye lot; samples far off-hue are
		// annotation or blending artefacts, and keeping them drags
		// clusters into background colour bands (grass sits ~30° away).
		hs := make([]float64, len(samples))
		for i, s := range samples {
			hs[i] = s.h
		}
		gm := median(hs)
		var clean []hsvSample
		for _, s := range samples {
			dh := math.Abs(s.h - gm)
			if dh > 180 {
				dh = 360 - dh
			}
			if dh <= 15 {
				clean = append(clean, s)
			}
		}
		if len(clean) > 0 {
			samples = clean
		}
	}
	d.TrainImages = len(samples)
	k := t.MaxClusters
	if k > len(samples) {
		k = len(samples)
	}
	assign := kmeans1D(samples, k)
	for ci := 0; ci < k; ci++ {
		var member []hsvSample
		for i, a := range assign {
			if a == ci {
				member = append(member, samples[i])
			}
		}
		if len(member) == 0 {
			continue
		}
		d.Clusters = append(d.Clusters, clusterStats(member))
	}
	return d
}

// kmeans1D clusters samples by value into k groups, initialised at
// quantiles; returns per-sample assignments.
func kmeans1D(samples []hsvSample, k int) []int {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = s.v
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	centers := make([]float64, k)
	for i := range centers {
		q := (float64(i) + 0.5) / float64(k)
		centers[i] = sorted[int(q*float64(len(sorted)-1))]
	}
	assign := make([]int, len(vs))
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i, v := range vs {
			best, bd := 0, math.Inf(1)
			for ci, c := range centers {
				if d := math.Abs(v - c); d < bd {
					best, bd = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range vs {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for ci := range centers {
			if counts[ci] > 0 {
				centers[ci] = sums[ci] / float64(counts[ci])
			}
		}
		if !changed {
			break
		}
	}
	return assign
}

// clusterStats computes the Gaussian summary of a member set. Standard
// deviations get a small floor so single-sample clusters stay usable.
func clusterStats(member []hsvSample) cluster {
	var c cluster
	n := float64(len(member))
	for _, m := range member {
		c.meanH += m.h
		c.meanS += m.s
		c.meanV += m.v
	}
	c.meanH /= n
	c.meanS /= n
	c.meanV /= n
	for _, m := range member {
		c.stdH += (m.h - c.meanH) * (m.h - c.meanH)
		c.stdS += (m.s - c.meanS) * (m.s - c.meanS)
		c.stdV += (m.v - c.meanV) * (m.v - c.meanV)
	}
	// Floors keep single-sample clusters usable; caps stop cross-condition
	// variance from widening the acceptance window into neighbouring hue
	// bands (grass sits ~35° from the vest).
	c.stdH = clampF(math.Sqrt(c.stdH/n)+2.0, 2.0, 8.0)
	c.stdS = clampF(math.Sqrt(c.stdS/n)+0.03, 0.03, 0.12)
	c.stdV = clampF(math.Sqrt(c.stdV/n)+0.035, 0.035, 0.13)
	c.support = len(member)
	return c
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String summarises the trained model.
func (d *Detector) String() string {
	return fmt.Sprintf("detector(%s, %d clusters, %d train images)",
		d.Tier.Name, len(d.Clusters), d.TrainImages)
}
