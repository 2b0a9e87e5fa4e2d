package tensor

import (
	"fmt"

	"ocularone/internal/parallel"
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

// qConvB is the int8 twin of f32ConvB. The group's input planes are
// quantized once per conv call (newQConvB) into a pooled int8 copy
// with a zero border of the conv's padding, so each pixel meets
// quantizeRound once rather than once per kernel tap and column
// sliver, and the sliver pack is a byte gather that never leaves the
// copy: padding reads the border. Every element is the quantizeRound
// value the reference im2colQRow computes, so packed int8 convs match
// the materialised reference bit for bit.
type qConvB struct {
	q []int8   // icg (+1 all-zero plane when k is odd) bordered planes
	g convGeom // over the bordered planes: h, w include the border, ph = pw = 0
	k int
}

// newQConvB quantizes channels [c0, c0+k/(KH·KW)) of x at inverse
// scale inv. The copy is shared read-only by every worker of the
// stripes driver; release returns it to ScratchB.
func newQConvB(x *Tensor, inv float32, spec ConvSpec, c0, k, oh, ow int) qConvB {
	h, w := x.Shape[1], x.Shape[2]
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
	q := ScratchB.Get((icg + k&1) * hp * wp)
	clear(q)
	for c := 0; c < icg; c++ {
		for y := 0; y < h; y++ {
			src := x.Data[((c0+c)*h+y)*w : ((c0+c)*h+y+1)*w]
			dst := q[(c*hp+y+spec.PadH)*wp+spec.PadW:][:w]
			for i, v := range src {
				dst[i] = quantizeRound(v, inv, 0)
			}
		}
	}
	return qConvB{q: q, g: g, k: k}
}

func (s qConvB) release() { ScratchB.Put(s.q) }

func (s qConvB) pack(bbuf []int8, j0, jw int) {
	g := &s.g
	var segArr [panelSegMax]panelSeg
	segs := g.cut(&segArr, j0, jw)
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

// gemmStripesQ runs the packed int8 GEMM with fused requantization:
// dst[i,j] = float32(Σ_k A[i,k]·B[k,j]) · rowScale[i], plus the
// optional epilogue, parallelised over qNR-column slivers.
func gemmStripesQ[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff int) {
	nSliv := (n + qNR - 1) / qNR
	if parallel.Serial() || nSliv == 1 {
		gemmStripeRangeQ(dst, m, n, k, apData, src, rowScale, ep, chanOff, 0, nSliv)
		return
	}
	gemmStripesQPar(dst, m, n, k, apData, src, rowScale, ep, chanOff, nSliv)
}

// gemmStripesQPar is the multi-worker dispatch, split out so the
// closure capture it needs is only materialised off the serial path
// (the serial frame loop stays allocation-free).
func gemmStripesQPar[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff, nSliv int) {
	parallel.ForRange(nSliv, func(s0, s1 int) {
		gemmStripeRangeQ(dst, m, n, k, apData, src, rowScale, ep, chanOff, s0, s1)
	})
}

// gemmStripeRangeQ computes column slivers [s0, s1) — the worker body
// of gemmStripesQ.
func gemmStripeRangeQ[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff, s0, s1 int) {
	k2 := (k + 1) / 2
	bbuf := ScratchB.Get(k2 * 2 * qNR)
	epWork := ep.hasWork()
	// The accumulator tile is pooled, not a stack array: its pointer
	// passes through the kernQ func value, which defeats escape
	// analysis and would heap-allocate the tile every call.
	acc := scratchI32.get(4 * qNR)
	nr := qNR
	for s := s0; s < s1; s++ {
		j0 := s * nr
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		src.pack(bbuf, j0, jw)
		i0 := 0
		if jw == nr {
			for ; i0+4 <= m; i0 += 4 {
				kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
				for r := 0; r < 4; r++ {
					sc := rowScale[i0+r]
					drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+nr]
					ar := acc[r*nr : (r+1)*nr]
					for j, v := range ar {
						drow[j] = float32(v) * sc
					}
				}
			}
		}
		if i0 < m {
			gemmEdgeQ(dst, n, apData, bbuf, acc, k2, i0, m, j0, jw, rowScale)
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
}

// gemmEdgeQ finishes the ragged int8 tiles (rows [i0, m), columns
// [j0, j0+jw)) by running the selected micro-kernel over the full
// zero-padded panels and copying the valid accumulator region out.
// Padded A rows (packQTo) and B columns (the pack sources) are exact
// integer zeros, so the kernel result matches the scalar pair sums bit
// for bit — and on the wide tiers the deep small-spatial detect-head
// convs, whose n fits entirely inside one sliver, stay on vector
// lanes instead of a scalar loop. acc is the caller's pooled 4×qNR
// accumulator tile.
func gemmEdgeQ(dst []float32, n int, apData []int16, bbuf []int8, acc []int32, k2, i0, m, j0, jw int, rowScale []float32) {
	for ; i0 < m; i0 += 4 {
		rows := m - i0
		if rows > 4 {
			rows = 4
		}
		kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
		for r := 0; r < rows; r++ {
			sc := rowScale[i0+r]
			drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+jw]
			ar := acc[r*qNR : r*qNR+jw]
			for j, v := range ar {
				drow[j] = float32(v) * sc
			}
		}
	}
}

// matMulInt8PackedInto is MatMulInt8Into's packed path: A packs per
// call into pooled scratch (the plan caches PackedQ weights instead),
// B slivers pack from the matrix. Callers must have checked
// UsePackedGEMM and symmetry.
func matMulInt8PackedInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	apData := scratchW.get(packQLen(m, k))
	packQTo(apData, a.Data, m, k)
	gemmStripesQ(dst.Data, m, n, k, apData, qMatrixB{b: b.Data, k: k, n: n}, rowScale, ep, chanOff)
	scratchW.put(apData)
}

// ConvPackedQInto computes one int8 conv group with the implicit,
// quantizing im2col packed GEMM: dst ([ocg, oh·ow] view) receives the
// requantized fp32 result with the fused epilogue (zero value for
// none). rowScale carries the per-output-channel wScale·xScale
// products; inv is 1/xScale. Steady-state calls perform zero heap
// allocations.
func ConvPackedQInto(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: ConvPackedQInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	src := newQConvB(x, inv, spec, c0, k, oh, ow)
	gemmStripesQ(dst.Data, m, n, k, wp.data, src, rowScale, ep, chanOff)
	src.release()
}
