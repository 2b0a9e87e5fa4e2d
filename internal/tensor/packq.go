package tensor

import (
	"fmt"
	"slices"
)

// The int8 half of the packed GEMM core (see pack.go for the fp32
// design). Differences from the fp32 driver:
//
//   - Panels are pair-interleaved: consecutive k values sit adjacent
//     per row/column, so the micro-kernel (kernQ, bound by CPU
//     dispatch — PMADDWD on sse2, VPMADDWD on avx2fma, VPDPWSSD on
//     avx512vnni) can fold two k steps per lane. Integer accumulation
//     is exact, so neither the pairing nor the tile width (qNR = 8,
//     16, or 32 columns per tier) can change results — int8 parity
//     with the reference tiles is automatic on every tier.
//   - Weights pack to sign-extended int16 (PackedQ) at plan-compile /
//     quantize-bind time, removing the extension work from the inner
//     loop.
//   - There is no kc blocking: the full-depth B sliver (k·2·qNR int8)
//     streams well and skipping the block loop keeps the int32
//     accumulators register-resident across all of k.
//   - The requantization epilogue (float32(acc)·rowScale) and the
//     optional BN/activation epilogue run per column stripe, the same
//     float32 op sequence as the reference int8 kernels.
//   - Two drivers share that kernel, the packed layouts and the
//     optional ABFT check: gemmStripesQ (slivers outermost; matrices,
//     and convs sample by sample) and gemmFoldedQ (a batch of small conv
//     planes as one GEMM, A panels outermost). A ragged sliver with at
//     most half its columns live takes the tier's half-width tile where
//     one is bound (kernHalfQ).

// PackedQ is an int8 left operand packed for the int8 micro-kernel:
// data[p·(k2·8) + kk·8 + r·2 + s] = int16(A[p·4+r, 2·kk+s]), with rows
// past m and the odd-k tail zero-padded (exact for integer math).
type PackedQ struct {
	m, k, k2 int
	data     []int16
	// ABFT column checksums in pair-interleaved layout (abft.go):
	// csum[2·kk2+s] = Σ_i A[i, 2·kk2+s], exact integer sums.
	csum []int64
}

// M reports the packed row count (unpadded).
func (p *PackedQ) M() int { return p.m }

// K reports the packed depth (unpadded).
func (p *PackedQ) K() int { return p.k }

// packQLen returns the packed int16 length for an m×k int8 operand.
func packQLen(m, k int) int {
	return (m + 3) / 4 * ((k + 1) / 2) * 8
}

// packQTo packs row-major int8 a (m×k) into dst in pair-interleaved
// micro-panel layout.
func packQTo(dst []int16, a []int8, m, k int) {
	k2 := (k + 1) / 2
	panels := (m + 3) / 4
	for i := range dst[:panels*k2*8] {
		dst[i] = 0
	}
	for p := 0; p < panels; p++ {
		base := p * k2 * 8
		for r := 0; r < 4; r++ {
			row := p*4 + r
			if row >= m {
				continue
			}
			arow := a[row*k : (row+1)*k]
			for kk, v := range arow {
				dst[base+(kk/2)*8+r*2+kk&1] = int16(v)
			}
		}
	}
}

// PackWeightsQ packs a symmetric int8 weight slice (one conv group's
// [ocg, k] view) for the int8 micro-kernel. Cached per group by nn's
// quantize bind, exactly as PackWeights is for fp32.
func PackWeightsQ(data []int8, m, k int) *PackedQ {
	if len(data) != m*k {
		panic(fmt.Sprintf("tensor: PackWeightsQ %d values for %dx%d", len(data), m, k))
	}
	p := &PackedQ{m: m, k: k, k2: (k + 1) / 2, data: make([]int16, packQLen(m, k))}
	packQTo(p.data, data, m, k)
	p.csum = make([]int64, 2*p.k2)
	colChecksumsQ(p.csum, data, m, k)
	return p
}

// scratchW recycles int16 slices for per-call int8 weight packing —
// the int16 instance of the shared rawPool core, kept unexported
// because only the packed int8 drivers draw from it. It is what keeps
// the generic MatMulInt8Into/Conv2DQ entry points allocation-free in
// steady state (plan ops cache PackedQ instead and never touch it).
var scratchW = func() *rawPool[int16] { p := newRawPool[int16](); return &p }()

// qBSource supplies full-depth int8 B slivers in pair-interleaved
// layout: pack fills bbuf[kk·2·qNR + jj·2 + s] = B[2·kk+s, j0+jj],
// zero-padding columns ≥ jw and the odd-k tail. Value structs only,
// as f32BSource.
type qBSource interface {
	pack(bbuf []int8, j0, jw int)
}

// qMatrixB packs slivers from a row-major int8 k×n matrix.
type qMatrixB struct {
	b    []int8
	k, n int
}

func (s qMatrixB) pack(bbuf []int8, j0, jw int) {
	k2 := (s.k + 1) / 2
	for i := range bbuf[:k2*2*qNR] {
		bbuf[i] = 0
	}
	for kk := 0; kk < s.k; kk++ {
		brow := s.b[kk*s.n+j0 : kk*s.n+j0+jw]
		row := bbuf[(kk/2)*2*qNR+kk&1:]
		for jj, v := range brow {
			row[jj*2] = v
		}
	}
}

// qConvB is the int8 twin of f32ConvB, over one sample or a whole batch.
// The group's input planes are quantized once per conv call (newQConvB)
// into a pooled int8 copy with a zero border of the conv's padding, so
// each pixel meets quantizeRound once rather than once per kernel tap
// and column sliver, and the sliver pack is a byte gather that never
// leaves the copy: padding reads the border. Every element is the
// quantizeRound value the reference im2colQRow computes, so packed int8
// convs match the materialised reference bit for bit. A batch is the
// samples' B matrices side by side: sample s owns columns [s·n, (s+1)·n).
type qConvB struct {
	q   []int8   // per sample: icg (+1 all-zero plane when k is odd) bordered planes
	g   convGeom // over the bordered planes: h, w include the border, ph = pw = 0
	k   int
	n   int // columns per sample, oh·ow
	per int // len(q) per sample
}

// newQConvB quantizes channels [c0, c0+k/(KH·KW)) of every sample at
// inverse scale inv. The drivers only read the copy; release returns it
// to ScratchB.
func newQConvB(xs []*Tensor, inv float32, spec ConvSpec, c0, k, oh, ow int) qConvB {
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	g := newConvGeom(spec, h, w, ow)
	// The border reaches as far as the last output pixel's last tap
	// reads — normally the bottom/right padding or less, but more when
	// OutSize's truncating division admits a kernel one row too tall.
	hp := max(spec.PadH+h, (oh-1)*g.sh+(g.kh-1)*g.dh+1)
	wp := max(spec.PadW+w, (ow-1)*g.sw+(g.kw-1)*g.dw+1)
	g.h, g.w, g.ph, g.pw = hp, wp, 0, 0
	icg := k / (spec.KH * spec.KW)
	// An odd k leaves the last pair half empty: a trailing zero plane
	// lets the pack read that virtual row like any other.
	per := (icg + k&1) * hp * wp
	q := ScratchB.Get(len(xs) * per)
	for s, x := range xs {
		// The pool hands out dirty bytes; everything the interior rows do
		// not overwrite — the gaps between them, which are the border, and
		// the zero plane — is cleared on the way.
		qs := q[s*per : (s+1)*per]
		done := 0
		for c := 0; c < icg; c++ {
			for y := 0; y < h; y++ {
				row := (c*hp+y+spec.PadH)*wp + spec.PadW
				clear(qs[done:row])
				src := x.Data[((c0+c)*h+y)*w : ((c0+c)*h+y+1)*w]
				dst := qs[row : row+w]
				for i, v := range src {
					dst[i] = quantizeRound(v, inv, 0)
				}
				done = row + w
			}
		}
		clear(qs[done:])
	}
	return qConvB{q: q, g: g, k: k, n: oh * ow, per: per}
}

func (s qConvB) release() { ScratchB.Put(s.q) }

// sampleRun locates column j of a batch whose samples own n columns
// each: the sample, the column within it, and how many of the next left
// columns stay inside that sample.
func sampleRun(j, n, left int) (smp, c, cnt int) {
	smp, c = j/n, j%n
	return smp, c, min(n-c, left)
}

func (s qConvB) pack(bbuf []int8, j0, jw int) {
	g := &s.g
	var segArr [panelSegMax]panelSeg
	ns := 0
	// Sample by sample: a sliver of a folded batch straddles several.
	for off := 0; off < jw; {
		smp, p, cnt := sampleRun(j0+off, s.n, jw-off)
		ns = g.cutAt(&segArr, ns, off, p, cnt, smp*s.per)
		off += cnt
	}
	segs := segArr[:ns]
	nr, sw, q := qNR, g.sw, s.q
	if jw < nr {
		clear(bbuf[:(s.k+1)/2*2*nr])
	}
	c, ky, kx := 0, 0, 0
	for kk := 0; kk < s.k; kk += 2 {
		// Two consecutive virtual rows fill one k pair of the sliver.
		ra := g.rowOff(c, ky, kx)
		c, ky, kx = g.next(c, ky, kx)
		rb := g.rowOff(c, ky, kx)
		c, ky, kx = g.next(c, ky, kx)
		pair := bbuf[kk*nr : (kk+2)*nr]
		for i := range segs {
			sg := &segs[i]
			d := pair[2*sg.off : 2*(sg.off+sg.cnt)]
			pa, pb := q[ra+sg.pos:], q[rb+sg.pos:]
			if sw == 1 {
				pa, pb = pa[:sg.cnt], pb[:sg.cnt]
				interleavePairs(&d[0], &pa[0], &pb[0], sg.cnt)
			} else {
				for i := 0; i < sg.cnt; i++ {
					d[2*i], d[2*i+1] = pa[i*sw], pb[i*sw]
				}
			}
		}
	}
}

// kernForQ picks the micro-kernel for a sliver with jw live columns: the
// tier's half-width tile, where it binds one, when they fit its half.
func kernForQ(jw int) gemmKernelQ {
	if kernHalfQ != nil && 2*jw <= qNR {
		return kernHalfQ
	}
	return kernQ
}

// requantTile writes rows × cnt accumulators, from column a0 of the
// 4×qNR tile acc on, as dst[i0+r, c0+j] = float32(acc)·rowScale[i0+r]
// (dst rows are ld wide). A checked run passes the columns' actual sums
// in act and the accumulators are added to them, so the ABFT equality
// test sees precisely the values that produce dst.
func requantTile(dst []float32, ld, i0, rows, c0 int, acc []int32, a0, cnt int, rowScale []float32, act []int64) {
	for r := 0; r < rows; r++ {
		sc := rowScale[i0+r]
		drow := dst[(i0+r)*ld+c0:][:cnt]
		ar := acc[r*qNR+a0:][:cnt]
		for j, v := range ar {
			drow[j] = float32(v) * sc
		}
		if act != nil {
			for j, v := range ar {
				act[j] += int64(v)
			}
		}
	}
}

// gemmStripesQ runs the packed int8 GEMM with fused requantization:
// dst[i,j] = float32(Σ_k A[i,k]·B[k,j]) · rowScale[i], plus the
// optional epilogue, one qNR-column sliver after the other. Ragged tiles
// (rows past m, columns past jw) run the same kernel over the
// zero-padded panels — exact integer zeros from packQTo and the pack
// sources — and only their live part is written, so the deep
// small-spatial convs whose n fits inside one sliver stay on vector
// lanes. With csum (A's pair-interleaved checksum row, see abft.go)
// every sliver's accumulators are verified and the result reports
// whether all matched; nil runs unchecked, on the same kernel schedule,
// and reports true.
func gemmStripesQ[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff int, csum []int64) bool {
	k2 := (k + 1) / 2
	nr := qNR
	bbuf := ScratchB.Get(k2 * 2 * nr)
	// The accumulator tile is pooled, not a stack array: its pointer
	// passes through the kernQ func value (and the fault hook sees it as
	// a slice), which defeats escape analysis and would heap-allocate the
	// tile every call.
	acc := scratchI32.get(4 * nr)
	epWork := ep.hasWork()
	ok := true
	// Fixed max-tier arrays so the checksum rows never escape; only the
	// first qNR entries are live for the selected tier.
	var expArr, actArr [qNRMax]int64
	var exp, act []int64
	if csum != nil {
		exp, act = expArr[:nr], actArr[:nr]
	}
	for j0 := 0; j0 < n; j0 += nr {
		jw := min(nr, n-j0)
		src.pack(bbuf, j0, jw)
		if csum != nil {
			clear(exp)
			clear(act)
			abftFoldSliverQ(exp, csum, bbuf)
		}
		kern := kernForQ(jw)
		for i0 := 0; i0 < m; i0 += 4 {
			kern(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
			if csum != nil && ABFTFaultQ != nil {
				ABFTFaultQ(acc, i0, j0)
			}
			requantTile(dst, n, i0, min(4, m-i0), j0, acc, 0, jw, rowScale, act)
		}
		if csum != nil && !slices.Equal(exp[:jw], act[:jw]) {
			ok = false
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
	return ok
}

// gemmFoldedQ is the int8 driver for a conv over a whole batch whose
// planes are small (foldsBatchQ): the batch's len(dsts)·n columns are
// one GEMM, cut into qNR slivers that straddle samples, where a
// per-sample run would light n of each tile's qNR columns and stream the
// weights once per sample. All slivers are packed first so the 4-row A
// panels can be the outer loop: at these shapes A is the big operand
// (4.7 MB against 37 KB of B a sample for m = 512, k = 4608, n = 9), and
// each panel is read once per batch and meets every sliver while it is
// cache-resident. Tiles requantize straight into the per-sample outputs
// (dsts[s] is sample s's [m, n]).
//
// With csum the run is checked as gemmStripesQ's is, per column of the
// folded GEMM: bad[s] is set for every sample that owns a mismatching
// column, and the result reports whether there was none.
func gemmFoldedQ(dsts []*Tensor, m, k int, apData []int16, src qConvB, rowScale []float32, ep Epilogue, chanOff int, csum []int64, bad []bool) bool {
	nr, n := qNR, src.n
	cols := len(dsts) * n
	nSliv := (cols + nr - 1) / nr
	k2 := (k + 1) / 2
	sliver := k2 * 2 * nr
	bbuf := ScratchB.Get(nSliv * sliver)
	// Expected and actual sums of every packed column, when checked.
	var sums []int64
	if csum != nil {
		sums = scratchQC.get(2 * nSliv * nr)
		clear(sums)
	}
	exp, act := sums[:len(sums)/2], sums[len(sums)/2:]
	for s := 0; s < nSliv; s++ {
		b := bbuf[s*sliver : (s+1)*sliver]
		src.pack(b, s*nr, min(nr, cols-s*nr))
		if csum != nil {
			abftFoldSliverQ(exp[s*nr:(s+1)*nr], csum, b)
		}
	}
	acc := scratchI32.get(4 * nr)
	epWork := ep.hasWork()
	for i0 := 0; i0 < m; i0 += 4 {
		rows := min(4, m-i0)
		for j0 := 0; j0 < cols; j0 += nr {
			kernForQ(cols-j0)(&acc[0], &apData[(i0/4)*k2*8], &bbuf[j0*k2*2], k2)
			if csum != nil && ABFTFaultQ != nil {
				ABFTFaultQ(acc, i0, j0)
			}
			// Each run of the tile's columns goes to the sample that owns it.
			for off, jw := 0, min(nr, cols-j0); off < jw; {
				smp, c, cnt := sampleRun(j0+off, n, jw-off)
				var a []int64
				if csum != nil {
					a = act[j0+off:]
				}
				requantTile(dsts[smp].Data, n, i0, rows, c, acc, off, cnt, rowScale, a)
				off += cnt
			}
		}
		if epWork {
			for _, d := range dsts {
				ep.apply(d.Data, i0, i0+rows, n, chanOff)
			}
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
	ok := true
	if csum != nil {
		for j := 0; j < cols; j++ {
			if exp[j] != act[j] {
				bad[j/n], ok = true, false
			}
		}
	}
	scratchQC.put(sums)
	return ok
}

// matMulInt8PackedInto is MatMulInt8Into's packed path: A packs per
// call into pooled scratch (the plan caches PackedQ weights instead),
// B slivers pack from the matrix. Callers must have checked
// usePackedGEMM and symmetry.
func matMulInt8PackedInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	apData := scratchW.get(packQLen(m, k))
	packQTo(apData, a.Data, m, k)
	gemmStripesQ(dst.Data, m, n, k, apData, qMatrixB{b: b.Data, k: k, n: n}, rowScale, ep, chanOff, nil)
	scratchW.put(apData)
}

// foldsBatchQ is the int8 conv route selection, from the shape alone: a
// batch of small planes runs as one folded GEMM, everything else sample
// by sample. The bound is the narrow fp32 tile's: above it a sample
// fills its own tiles well enough that folding measured no gain
// (BENCHMARKS.md §PR 15).
func foldsBatchQ(nb, n int) bool { return nb > 1 && n <= narrowMaxN }

// ConvRouteQ names the driver an int8 conv of n output pixels runs
// at batch width nb — for per-op profiles.
func ConvRouteQ(nb, n int) string {
	if foldsBatchQ(nb, n) {
		return "folded"
	}
	return "stripe"
}

func wantConvDstQ(dst *Tensor, m, n int) {
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: packed int8 conv dst %v, want [%d %d]", dst.Shape, m, n))
	}
}

// convPackedQ computes one sample's int8 conv group on the per-sample
// route, checked when csum is non-nil.
func convPackedQ(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int, csum []int64) bool {
	m, k := wp.m, wp.k
	n := oh * ow
	wantConvDstQ(dst, m, n)
	src := newQConvB([]*Tensor{x}, inv, spec, c0, k, oh, ow)
	ok := gemmStripesQ(dst.Data, m, n, k, wp.data, src, rowScale, ep, chanOff, csum)
	src.release()
	return ok
}

// ConvPackedQBatchInto computes one int8 conv group over a batch with
// the implicit, quantizing im2col packed GEMM: dsts[s] ([ocg, oh·ow]
// view) receives sample xs[s]'s requantized fp32 result with the fused
// epilogue (zero value for none). rowScale carries the
// per-output-channel wScale·xScale products; inv is 1/xScale. A batch of
// small planes (foldsBatchQ) runs as one GEMM that streams the packed
// weights once; every output is bit-identical to a batch of one either
// way. A non-nil bad (one entry per sample) asks for exact ABFT
// verification: bad[s] reports whether sample s failed it and the result
// whether none did — a caller re-executes the failed samples through the
// reference kernel. nil runs unchecked and reports true. Zero heap
// allocations in steady state.
func ConvPackedQBatchInto(dsts []*Tensor, wp *PackedQ, xs []*Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int, bad []bool) bool {
	var csum []int64
	if bad != nil {
		csum = wp.csum
		clear(bad)
	}
	ok := true
	if !foldsBatchQ(len(xs), oh*ow) {
		for s, x := range xs {
			if !convPackedQ(dsts[s], wp, x, spec, c0, oh, ow, inv, rowScale, ep, chanOff, csum) {
				bad[s], ok = true, false
			}
		}
		return ok
	}
	for _, dst := range dsts {
		wantConvDstQ(dst, wp.m, oh*ow)
	}
	src := newQConvB(xs, inv, spec, c0, wp.k, oh, ow)
	ok = gemmFoldedQ(dsts, wp.m, wp.k, wp.data, src, rowScale, ep, chanOff, csum, bad)
	src.release()
	return ok
}
