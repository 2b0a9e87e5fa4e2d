package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// This file is the packed, register-blocked GEMM core: a BLIS-style
// rearchitecture of the matrix-multiply hot path that replaces the
// unpacked ikj/axpy loop for every large-enough shape.
//
// Decomposition (C = A×B, A m×k, B k×n, C row-major):
//
//   - A is packed once into column-major micro-panels of gemmMR rows
//     (PackedA): panel p holds rows [p·MR, p·MR+MR) as MR consecutive
//     floats per k step, zero-padded past row m. For convolution
//     weights this happens once at plan-compile time; the generic
//     MatMul path packs per call into pooled scratch (~m·k copies,
//     amortised over the n/NR panel reuses).
//   - B is never materialised whole. For each NR-column sliver of C the
//     driver packs one kc×NR panel at a time into an L1-resident,
//     64-byte-aligned scratch buffer — and for convolutions that pack
//     IS im2col: the panel is gathered from the receptive fields of a
//     bordered copy of the group's input planes, made once per call
//     (implicit-im2col GEMM; f32ConvB, and the input itself where the
//     conv reads no padding), so the full k×n cols matrix of the old
//     lowering never exists and the gather tests no bound: a panel is
//     cut into output-row segments and moved by the row-gather kernel
//     (rowKernels.gather) where the tier binds one, by the pack's own
//     Go loop elsewhere.
//   - The micro-kernel (kernF32, bound by CPU dispatch — see
//     dispatch.go) keeps a gemmMR×gemmNR float32 accumulator tile in
//     registers and streams the two packed panels: 4×8 with SSE
//     MULPS/ADDPS on the sse2 tier, 4×24 with 12 YMM accumulators and
//     fused multiply-adds on the avx2fma tier, 4×48 with 12 ZMM ones on
//     the avx512vnni tier. Loop tiling: the k loop is cut into gemmKC
//     blocks so the B panel (KC×NR floats) plus the A panel slice
//     (MR×KC) stay L1-resident against the reference Xeon's 48 KB L1d,
//     and the C stripe revisited per block stays hot.
//   - GEMMs of at most narrowMaxN columns take a second tile where the
//     tier binds one (kernNarrowF32, narrowMR×12 with the lanes along m:
//     8 rows in YMM, 16 in ZMM): see gemmNarrowF32. Same PackedA, same
//     B sources, same bits. There A is the operand that streams — a
//     network's deep layers hold ~100 MB of weights, read from memory
//     every frame — as narrowMR/4 panels 16·k bytes apart advancing 16
//     bytes a k step, streams the hardware prefetcher leaves underfed,
//     so that kernel prefetches them itself (gemm_avx_amd64.s,
//     narrowPF).
//
// The B source is a type parameter (a value struct, never boxed) and
// the epilogue travels by value, so a steady-state call performs zero
// heap allocations — the contract the plan executor's frame loop is
// pinned to.
//
// Parity contract: the non-FMA kernels — SSE2 assembly, generic, and
// the edge cases — accumulate each C element as one chain of separate
// single-precision multiply-then-add steps in ascending-k order,
// exactly the op sequence of the retained reference kernel
// (matMulRefInto), so their packed results are bit-identical to the
// reference for finite inputs. The FMA tiers keep the ascending-k
// order but fuse each multiply-add into a single rounding, so their
// results are drift-bounded against the reference (KernelTierFMA
// gates which comparison applies). The golden tests in pack_test.go
// pin both regimes at adversarial shapes, per tier.

// gemmMR is the register-tile row count, fixed at 4 across every
// dispatch tier (dispatch.go): network channel counts divide by 4, so
// no conv row falls to the scalar edge, and — more importantly — the
// PackedA layout depends only on MR, so packed fp32 weights stay valid
// across tier switches (a PackedQ also carries its tier's k-group: see
// packq.go). The column width gemmNR and k-block
// gemmKC are per-tier variables bound by dispatch: 8/256 for the
// 8-XMM SSE2 tile, 24/192 for the 12-YMM FMA tile (B panel KC·NR·4 B
// ≈ 18 KB + A slice MR·KC·4 B ≈ 3 KB + C stripe stay inside L1d),
// 48/128 for the 12-ZMM one (B panel 24 KB + A slice 2 KB).
const gemmMR = 4

// PackedA is a left GEMM operand packed into gemmMR-row micro-panels:
// data[p·(k·MR) + kk·MR + r] = A[p·MR+r, kk], zero for padded rows.
// The backing slice is 64-byte aligned so panel loads are aligned
// vector moves. Weights packed at plan-compile time live in one of
// these for the network's lifetime.
type PackedA struct {
	m, k int
	data []float32
	// ABFT column checksums (abft.go): csum[kk] = Σ_i A[i,kk] and
	// acsum[kk] = Σ_i |A[i,kk]|, computed once at pack time so checked
	// GEMM calls pay nothing to obtain them.
	csum, acsum []float64
}

// packALen returns the packed length for an m×k operand.
func packALen(m, k int) int {
	return (m + gemmMR - 1) / gemmMR * gemmMR * k
}

// packATo packs row-major a (m×k) into dst in micro-panel layout.
func packATo(dst, a []float32, m, k int) {
	panels := (m + gemmMR - 1) / gemmMR
	for p := 0; p < panels; p++ {
		base := p * k * gemmMR
		for r := 0; r < gemmMR; r++ {
			row := p*gemmMR + r
			if row >= m {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmMR+r] = 0
				}
				continue
			}
			arow := a[row*k : (row+1)*k]
			for kk, v := range arow {
				dst[base+kk*gemmMR+r] = v
			}
		}
	}
}

// PackWeights packs a rank-2 tensor (a conv group's [ocg, k] weight
// view, or any GEMM left operand) for the packed kernel. The result is
// immutable and may be cached for the operand's lifetime — nn.Compile
// packs every conv's weights exactly once per group.
func PackWeights(a *Tensor) *PackedA {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackWeights needs rank 2, got %v", a.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	p := &PackedA{m: m, k: k, data: alignedSlice[float32](packALen(m, k))}
	packATo(p.data, a.Data, m, k)
	cs := make([]float64, 2*k)
	p.csum, p.acsum = cs[:k], cs[k:]
	colChecksumsF32(p.csum, p.acsum, a.Data, m, k)
	return p
}

// usePackedGEMM reports whether the plain matrix entry points
// (MatMulInto, MatMulInt8Into) run an m×k × k×n multiply on the packed
// kernel, or the shape is too small to amortise packing A on every call
// and the reference loop keeps it. It decides nothing for convolutions:
// their weights are packed once, every conv group takes the packed
// implicit-im2col driver whatever its shape, and the reference lowering
// is only the ABFT re-execution target and the test oracle.
//
// The thresholds are tier-independent (n is gated against a fixed
// minimum, not the selected tier's gemmNR), so a caller's route never
// changes with the tier.
func usePackedGEMM(m, k, n int) bool {
	return m >= gemmMR && n >= 8 && k >= 16 && m*n >= 512
}

// hasWork reports whether an epilogue performs any per-element work.
func (ep Epilogue) hasWork() bool {
	return ep.Scale != nil || ep.Shift != nil || ep.Act != EpActNone
}

// f32BSource supplies kc×nr B panels to the fp32 driver:
// pack fills bbuf[kk·nr+jj] = B[k0+kk, j0+jj] for kk < kc, columns
// ≥ jw zero-padded. The panel width nr is the driver's choice (the
// tier's gemmNR, or narrowNR for the narrow tile). Implementations are
// value structs so the generic driver monomorphises them — no interface
// boxing, no closures, zero allocations in the steady state.
type f32BSource interface {
	pack(bbuf []float32, nr, k0, kc, j0, jw int)
}

// f32MatrixB packs panels from a row-major k×n matrix — the B source
// of the plain MatMul entry points.
type f32MatrixB struct {
	b []float32
	n int
}

func (s f32MatrixB) pack(bbuf []float32, nr, k0, kc, j0, jw int) {
	for kk := 0; kk < kc; kk++ {
		brow := s.b[(k0+kk)*s.n+j0 : (k0+kk)*s.n+j0+jw]
		row := bbuf[kk*nr : kk*nr+nr]
		copy(row, brow)
		for j := jw; j < nr; j++ {
			row[j] = 0
		}
	}
}

// convGeom is what a conv B source needs to walk the virtual im2col
// matrix of one group: row r is the (c, ky, kx) unroll in im2colRow's
// order, column j the output pixel (j/ow, j%ow), and element (r, j)
// reads source pixel (oy·sh − ph + ky·dh, ox·sw − pw + kx·dw) of plane
// c, or zero padding when that falls outside the h×w plane.
type convGeom struct {
	h, w, ow       int
	kh, kw         int
	sh, sw, ph, pw int
	dh, dw         int
}

func newConvGeom(spec ConvSpec, h, w, ow int) convGeom {
	dh, dw := spec.dil()
	return convGeom{h: h, w: w, ow: ow, kh: spec.KH, kw: spec.KW,
		sh: spec.StrideH, sw: spec.StrideW, ph: spec.PadH, pw: spec.PadW, dh: dh, dw: dw}
}

// unroll splits virtual row r into its (c, ky, kx); the packs call it
// once per panel and then step the triple with next.
func (g *convGeom) unroll(r int) (c, ky, kx int) {
	c, r = r/(g.kh*g.kw), r%(g.kh*g.kw)
	return c, r / g.kw, r % g.kw
}

func (g *convGeom) next(c, ky, kx int) (int, int, int) {
	if kx++; kx == g.kw {
		kx = 0
		if ky++; ky == g.kh {
			ky = 0
			c++
		}
	}
	return c, ky, kx
}

// rowOff is the flat source offset of tap (ky, kx) of plane c — what a
// virtual row adds to a segment's pos.
func (g *convGeom) rowOff(c, ky, kx int) int {
	return (c*g.h+ky*g.dh)*g.w + kx*g.dw
}

// bordered is g over planes that carry the conv's border — the padding
// moves into the planes (ph = pw = 0) and h and w grow to cover whatever
// the last tap of output pixel (oh−1, ow−1) reads: normally the
// bottom/right padding or less, but more when OutSize's truncating
// division admits a kernel one row too tall. A source laid out that way
// is gathered without a bounds test: padding is read, as zeros, out of
// the border.
func (g convGeom) bordered(oh int) convGeom {
	g.h = max(g.ph+g.h, (oh-1)*g.sh+(g.kh-1)*g.dh+1)
	g.w = max(g.pw+g.w, (g.ow-1)*g.sw+(g.kw-1)*g.dw+1)
	g.ph, g.pw = 0, 0
	return g
}

// panelSeg is the part of a B panel that lies in one output row: cnt
// columns from panel column off, the first of which reads flat source
// offset pos at (ky, kx) = (0, 0) of a bordered geometry. (Three int32:
// the layout the gather kernel reads.)
type panelSeg struct {
	off, cnt, pos int32
}

// panelSegMax bounds the segments of one panel: every segment holds at
// least one column, and a panel is at most as wide as the widest fp32
// stripe, narrow or int8 sliver of any tier (an ow = 1 output gives
// every column its own segment).
const panelSegMax = max(gemmNRMax, narrowNR, qNRMax)

// cut splits panel columns [j0, j0+jw) into output-row segments: within
// one a k row reads a single strided run of one source row, so a pack
// moves each panel row as a few runs.
func (g *convGeom) cut(segs *[panelSegMax]panelSeg, j0, jw int) []panelSeg {
	return segs[:g.cutAt(segs, 0, 0, j0, jw, 0)]
}

// cutAt is cut for a panel that joins several planes (the folded int8
// batch): it appends, after the n segments already there, the segments
// of output pixels [j0, j0+jw) landing at panel column off, of a plane
// whose source starts base elements in, and returns the new count.
func (g *convGeom) cutAt(segs *[panelSegMax]panelSeg, n, off, j0, jw, base int) int {
	oy, ox := j0/g.ow, j0%g.ow
	for end := off + jw; off < end; n++ {
		cnt := min(g.ow-ox, end-off)
		segs[n] = panelSeg{off: int32(off), cnt: int32(cnt), pos: int32(base + oy*g.sh*g.w + ox*g.sw)}
		off += cnt
		oy, ox = oy+1, 0
	}
	return n
}

// gatherTab is what a conv B source keeps for the packs of one call: the
// offset of each kernel tap into a plane of its bordered geometry — a
// virtual row reads plane c at taps[ky·kw+kx], rowOff without the plane —
// and the segment list of the panel being packed. Both are handed to the
// gather kernel through a func value (rowKernels), where a pointer into a
// stack array would move the array to the heap on every pack; they are
// one draw from scratchI32 per conv call instead.
type gatherTab struct {
	taps []int32
	segs *[panelSegMax]panelSeg
}

// newGatherTab draws the table of g, the bordered geometry of a source
// of n elements — which the segments' int32 offsets must span.
func (g *convGeom) newGatherTab(n int) gatherTab {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: conv source of %d elements: the panel gather holds offsets in int32", n))
	}
	nt := g.kh * g.kw
	tab := scratchI32.get(nt + 3*panelSegMax)
	for t := 0; t < nt; t++ {
		tab[t] = int32(g.rowOff(0, t/g.kw, t%g.kw))
	}
	return gatherTab{taps: tab[:nt], segs: (*[panelSegMax]panelSeg)(unsafe.Pointer(&tab[nt]))}
}

func (t gatherTab) release() { scratchI32.put(t.taps) }

// gather hands the gather kernel the panel cut into segs: rows virtual
// rows from row k0 on, of a source of n dwords at src whose planes are
// plane dwords each, into rows ld apart at dst. The kernel tests no
// bound, so one is tested for it here: offsets grow with the row and
// with the segment, and the last element of the last segment of the last
// row is the farthest the whole gather reads.
func (t gatherTab) gather(dst unsafe.Pointer, ld int, src unsafe.Pointer, n, plane, k0, rows int, segs []panelSeg, sw int) {
	nt, k, last := len(t.taps), k0+rows-1, segs[len(segs)-1]
	if end := k/nt*plane + int(t.taps[k%nt]) + int(last.pos) + int(last.cnt-1)*sw; end >= n {
		panic(fmt.Sprintf("tensor: conv panel gather reads element %d of a source of %d", end, n))
	}
	kernRows.gather(dst, ld, unsafe.Add(src, 4*(k0/nt*plane)), &t.taps[0], nt, k0%nt, plane, rows, &segs[0], len(segs), sw)
}

// f32ConvB gathers B panels from a CHW input's receptive fields — im2col
// fused into the panel pack (implicit GEMM). Row r of the virtual B
// matrix is the (c, ky, kx) unroll of channels [c0, c0+icg) exactly as
// im2colRow lays it out, so packed-conv results match the
// materialised-cols reference bit for bit. Like its int8 twin (qConvB)
// the pack reads a bordered source and tests no bound: a conv that
// reaches outside its planes gathers from a copy of them made once per
// call with the border zero (newF32ConvB), one that does not — every
// 1×1, every unpadded conv whose last tap stays inside — from the input
// itself. pack cuts the panel's segments and hands all its k rows to the
// gather kernel in one call; its loop is the Go form of that kernel, for
// the tiers that bind none and for strides past 2.
type f32ConvB struct {
	src    []float32 // the group's planes, bordered, channel c0 first
	g      convGeom  // over src: h, w include the border, ph = pw = 0
	pooled bool      // src is a copy drawn from Scratch
	tab    gatherTab
}

// newF32ConvB is the B source of channels [c0, c0+icg) of x. The pool
// hands out dirty floats, so the copy zeroes everything the interior
// rows do not overwrite — the gaps between them, which are the border —
// on the way. release returns the copy.
func newF32ConvB(x *Tensor, spec ConvSpec, c0, icg, oh, ow int) f32ConvB {
	h, w := x.Shape[1], x.Shape[2]
	g := newConvGeom(spec, h, w, ow).bordered(oh)
	planes := x.Data[c0*h*w:]
	if g.h == h && g.w == w {
		return f32ConvB{src: planes, g: g, tab: g.newGatherTab(len(planes))}
	}
	src := Scratch.GetRaw(icg * g.h * g.w)
	rows, run := h, w
	if g.w == w { // no side border: a plane lands as one run
		rows, run = 1, h*w
	}
	done := 0
	for c := 0; c < icg; c++ {
		for y := 0; y < rows; y++ {
			at := (c*g.h+y+spec.PadH)*g.w + spec.PadW
			clear(src[done:at])
			copy(src[at:at+run], planes[(c*h+y)*w:])
			done = at + run
		}
	}
	clear(src[done:])
	return f32ConvB{src: src, g: g, pooled: true, tab: g.newGatherTab(len(src))}
}

func (s f32ConvB) release() {
	s.tab.release()
	if s.pooled {
		Scratch.PutRaw(s.src)
	}
}

func (s f32ConvB) pack(bbuf []float32, nr, k0, kc, j0, jw int) {
	g := &s.g
	segs := g.cut(s.tab.segs, j0, jw)
	sw := g.sw
	bbuf = bbuf[:kc*nr]
	if jw < nr {
		clear(bbuf)
	}
	if kernRows != nil && sw <= 2 {
		s.tab.gather(unsafe.Pointer(&bbuf[0]), nr, unsafe.Pointer(&s.src[0]), len(s.src), g.h*g.w, k0, kc, segs, sw)
		return
	}
	c, ky, kx := g.unroll(k0)
	for kk := 0; kk < kc; kk++ {
		// One k row of the panel is one tap of one plane.
		row := bbuf[kk*nr : kk*nr+jw]
		src := s.src[g.rowOff(c, ky, kx):]
		c, ky, kx = g.next(c, ky, kx)
		for i := range segs {
			sg := &segs[i]
			d := row[sg.off : sg.off+sg.cnt]
			if sw == 1 && len(d) >= copyRunMin {
				copy(d, src[sg.pos:])
				continue
			}
			p := int(sg.pos)
			for j := range d {
				d[j] = src[p]
				p += sw
			}
		}
	}
}

// copyRunMin is the run length from which a stride-1 run moves faster
// through copy than through the element loop on the tiers whose packs
// run their Go forms: the deep layers' 3- and 6-wide output rows give
// runs shorter than a memmove call costs.
const copyRunMin = 8

// The narrow tile: where the 4×NR tile runs its vector lanes along n, a
// tier may also bind a narrowMR×12 tile whose lanes run along m
// (narrowMR rows — the tier's: 8 on avx2fma, 16 on avx512vnni — from
// narrowMR/4 adjacent PackedA panels) and whose B values are broadcast.
// A GEMM of at most narrowMaxN columns fills it where the wide tile
// would compute mostly zero padding: every conv from the 6×6 feature
// map down has n = 36 or 9, and ran 24 lanes for 12 or 9 live ones.
// Both tiles give every C element the same ascending-k chain of fused
// multiply-adds from zero, so which one ran never shows in the result.
const (
	narrowNR = 12
	// narrowMaxN is three full narrow slivers. Above it the wide tile's
	// share of padded lanes is small enough that it wins (measured:
	// BENCHMARKS.md §PR 14).
	narrowMaxN = 3 * narrowNR
)

// useNarrowF32 is the tile selection, from the GEMM shape alone.
func useNarrowF32(m, n int) bool {
	return kernNarrowF32 != nil && m%narrowMR == 0 && n <= narrowMaxN
}

// ConvRouteF32 names the driver an fp32 conv group of m output
// channels and n output pixels runs on the tier in effect — for per-op
// profiles.
func ConvRouteF32(m, n int) string {
	if useNarrowF32(m, n) {
		return "narrow"
	}
	return "stripe"
}

// gemmStripesF32 runs the packed GEMM over C = A×B (+epilogue), one
// NR-column sliver after the other. dst must hold m×n row-major values;
// it is fully overwritten (no pre-zeroing needed — the first k-block
// initialises the accumulators). apData is A in micro-panel layout
// covering depth k. With csum/acsum (A's plain and absolute column
// checksums over depth k, see abft.go) every stripe is verified before
// its epilogue and the result reports whether all passed; nil checksums
// run unchecked and report true. The checked run keeps the unchecked
// kernel schedule (results are bit-equal): it only folds the expected
// column sums out of each packed panel and compares them before the
// epilogue touches the stripe.
func gemmStripesF32[S f32BSource](dst []float32, m, n, k int, apData []float32, src S, ep Epilogue, chanOff int, csum, acsum []float64) bool {
	if useNarrowF32(m, n) {
		return gemmNarrowF32(dst, m, n, k, apData, src, ep, chanOff, csum, acsum)
	}
	nr := gemmNR
	buf := Scratch.GetRaw((gemmKC + gemmMR) * nr)
	bbuf, ctile := buf[:gemmKC*nr], buf[gemmKC*nr:]
	epWork := ep.hasWork()
	ok := true
	// Fixed max-tier arrays so the checksum rows never escape.
	var expArr, magArr [gemmNRMax]float64
	exp, mag := expArr[:nr], magArr[:nr]
	for j0 := 0; j0 < n; j0 += nr {
		jw := min(nr, n-j0)
		clear(exp)
		clear(mag)
		for k0 := 0; k0 < k; k0 += gemmKC {
			kc := min(gemmKC, k-k0)
			src.pack(bbuf, nr, k0, kc, j0, jw)
			if csum != nil {
				abftFoldPanelF32(exp, mag, csum[k0:k0+kc], acsum[k0:k0+kc], bbuf)
			}
			accum := uintptr(0)
			if k0 > 0 {
				accum = 1
			}
			i0 := 0
			if jw == nr {
				for ; i0+gemmMR <= m; i0 += gemmMR {
					apan := apData[(i0/gemmMR)*k*gemmMR+k0*gemmMR:]
					kernF32(&dst[i0*n+j0], n, &apan[0], &bbuf[0], kc, accum)
				}
			}
			if i0 < m {
				gemmEdgeF32(dst, n, apData, bbuf, ctile, k, k0, kc, i0, m, j0, jw, accum == 1)
			}
		}
		if csum != nil && !abftVerifyF32(dst, m, n, k, j0, jw, exp, mag) {
			ok = false
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	Scratch.PutRaw(buf)
	return ok
}

// gemmNarrowF32 is gemmStripesF32 for the shapes useNarrowF32 selects.
// All of B (at most narrowMaxN columns) is packed first, one full-depth
// panel per narrowNR-column sliver, so the row blocks can be the outer
// loop: each block of narrowMR/4 A panels is streamed once and meets every sliver
// while it is cache-resident — at these shapes A is the big operand
// (9.4 MB against 166 KB of B for the m = 512, k = 4608, n = 9 conv). A
// tile runs the whole depth in registers, so C is written once and the
// kernel has no accumulate mode.
func gemmNarrowF32[S f32BSource](dst []float32, m, n, k int, apData []float32, src S, ep Epilogue, chanOff int, csum, acsum []float64) bool {
	nSliv := (n + narrowNR - 1) / narrowNR
	panel := k * narrowNR
	mr := narrowMR
	buf := Scratch.GetRaw(nSliv*panel + mr*narrowNR)
	ctile := buf[nSliv*panel:]
	var expArr, magArr [narrowMaxN]float64
	for s := 0; s < nSliv; s++ {
		j0 := s * narrowNR
		bbuf := buf[s*panel : (s+1)*panel]
		src.pack(bbuf, narrowNR, 0, k, j0, min(narrowNR, n-j0))
		if csum != nil {
			abftFoldPanelF32(expArr[j0:j0+narrowNR], magArr[j0:j0+narrowNR], csum, acsum, bbuf)
		}
	}
	for i0 := 0; i0 < m; i0 += mr {
		for s := 0; s < nSliv; s++ {
			kernNarrowF32(&ctile[0], &apData[i0*k], &buf[s*panel], k)
			j0 := s * narrowNR
			jw := min(narrowNR, n-j0)
			for r := 0; r < mr; r++ {
				drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+jw]
				for j := range drow {
					drow[j] = ctile[j*mr+r]
				}
			}
		}
	}
	Scratch.PutRaw(buf)
	ok := csum == nil || abftVerifyF32(dst, m, n, k, 0, n, expArr[:], magArr[:])
	if ep.hasWork() {
		ep.applyCols(dst, 0, m, n, 0, n, chanOff)
	}
	return ok
}

// gemmEdgeF32 finishes the ragged tiles (rows [i0, m), columns
// [j0, j0+jw)) by running the selected micro-kernel on a pooled
// MR×NR staging tile and copying the valid region out. Routing edges
// through the same kernel — rather than a scalar fallback — keeps
// every C element on the selected tier's exact op chain, so results
// are independent of how a caller tiles the output (per-sample vs
// batched convs, implicit vs materialised im2col) even on FMA tiers,
// where a separate multiply+add edge would round differently. A
// padded rows (packATo zero-fills past m) and B columns (pack
// zero-fills past jw) contribute exact zeros, and the tile is
// pre-zeroed, so starting the kernel in accumulate mode from zeros
// reproduces the overwrite path bit for bit.
func gemmEdgeF32(dst []float32, n int, apData, bbuf, ctile []float32, k, k0, kc, i0, m, j0, jw int, accum bool) {
	for ; i0 < m; i0 += gemmMR {
		rows := m - i0
		if rows > gemmMR {
			rows = gemmMR
		}
		for i := range ctile[:gemmMR*gemmNR] {
			ctile[i] = 0
		}
		if accum {
			for r := 0; r < rows; r++ {
				copy(ctile[r*gemmNR:r*gemmNR+jw], dst[(i0+r)*n+j0:(i0+r)*n+j0+jw])
			}
		}
		apan := apData[(i0/gemmMR)*k*gemmMR+k0*gemmMR:]
		kernF32(&ctile[0], gemmNR, &apan[0], &bbuf[0], kc, 1)
		for r := 0; r < rows; r++ {
			copy(dst[(i0+r)*n+j0:(i0+r)*n+j0+jw], ctile[r*gemmNR:r*gemmNR+jw])
		}
	}
}

// matMulPackedInto computes dst = A×B (+ optional fused epilogue) with
// the packed kernel, packing A per call into pooled scratch. Callers
// must have checked usePackedGEMM.
func matMulPackedInto(dst, a, b *Tensor, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	apData := Scratch.GetRaw(packALen(m, k))
	packATo(apData, a.Data, m, k)
	gemmStripesF32(dst.Data, m, n, k, apData, f32MatrixB{b: b.Data, n: n}, ep, chanOff, nil, nil)
	Scratch.PutRaw(apData)
}

// convPackedF32 is the body of ConvPackedInto and ConvPackedCheckInto,
// which differ in whether the run carries wp's checksums. It trusts none
// of its operands — the fp32 twin of PackedQ.want: fn names the entry
// point in the refusal of a dst of another shape, of weights whose depth
// is not whole channels of the kernel's taps, of a channel range outside
// x, and of output dims that are not spec's for x.
func convPackedF32(fn string, dst *Tensor, wp *PackedA, x *Tensor, spec ConvSpec, c0, oh, ow int, ep Epilogue, chanOff int, check bool) bool {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", fn, dst.Shape, m, n))
	}
	taps := spec.KH * spec.KW
	if taps <= 0 || k%taps != 0 {
		panic(fmt.Sprintf("tensor: %s weights of depth k=%d against a %dx%d kernel: not whole channels of %d taps", fn, k, spec.KH, spec.KW, taps))
	}
	icg := k / taps
	if c0 < 0 || c0+icg > x.Shape[0] {
		panic(fmt.Sprintf("tensor: %s channels [%d, %d) of an input of %d", fn, c0, c0+icg, x.Shape[0]))
	}
	if eh, ew := spec.OutSize(x.Shape[1], x.Shape[2]); oh != eh || ow != ew {
		panic(fmt.Sprintf("tensor: %s output %dx%d, spec %+v gives %dx%d over a %dx%d input", fn, oh, ow, spec, eh, ew, x.Shape[1], x.Shape[2]))
	}
	var csum, acsum []float64
	if check {
		csum, acsum = wp.csum, wp.acsum
	}
	src := newF32ConvB(x, spec, c0, icg, oh, ow)
	ok := gemmStripesF32(dst.Data, m, n, k, wp.data, src, ep, chanOff, csum, acsum)
	src.release()
	return ok
}

// ConvPackedInto computes one conv group with the implicit-im2col
// packed GEMM: dst ([ocg, oh·ow] view of the group's output planes) =
// wp × im2col(x channels [c0, c0+icg)), icg = wp.K()/(KH·KW), with the
// fused epilogue (folded BN/bias + activation; zero value for none)
// applied per column stripe. chanOff maps GEMM rows to epilogue channels
// (the group offset of a grouped conv). Steady-state calls perform zero
// heap allocations.
func ConvPackedInto(dst *Tensor, wp *PackedA, x *Tensor, spec ConvSpec, c0, oh, ow int, ep Epilogue, chanOff int) {
	convPackedF32("ConvPackedInto", dst, wp, x, spec, c0, oh, ow, ep, chanOff, false)
}
