package tensor

import (
	"fmt"
	"slices"
	"unsafe"
)

// The int8 half of the packed GEMM core (see pack.go for the fp32
// design). Differences from the fp32 driver:
//
//   - Panels are group-interleaved: qK consecutive k values sit adjacent
//     per row/column, so the micro-kernel (kernQ, bound by CPU dispatch)
//     folds qK k steps per lane. The group is the tier's. The word tiers
//     — PMADDWD on sse2, VPMADDWD on avx2fma, their Go replay on generic
//     — take pairs (qK = 2): weights sign-extended to int16 at pack time
//     against int8 activations. avx512vnni takes quads (qK = 4): VPDPBUSD
//     multiplies *unsigned* bytes by signed ones, so weights stay int8,
//     activations are stored plus 128 (one XOR with 0x80 where they are
//     quantized), and the kernel's Σ a·(b+128) is put right by
//     subtracting the row constant comp[i] = 128·Σ_k A[i,k] from each
//     accumulator before it is requantized. That is an integer identity,
//     not an approximation: integer accumulation is exact, so neither
//     the grouping, the offset, nor the tile width (qNR = 8, 16, or 32
//     columns per tier) can change results — int8 parity with the
//     reference tiles is automatic on every tier.
//   - Nor can the order of the depth, and a conv's is chosen so that a
//     k-group is qK channels of one kernel tap: (c/qK, ky, kx, c%qK)
//     where the reference im2col unrolls (c, ky, kx), the channels of a
//     group padded with zero weights to a multiple of qK (depthQ). The
//     quantized copy of the input (qConvB) stores those qK channels of a
//     pixel adjacent — the NC4HW4 form of int8 conv libraries — so one
//     k-group of a sliver is a run of the copy, moved as it lies. A plain
//     matrix is the one-tap case and keeps its k order.
//   - Weights pack (PackedQ) at plan-compile / quantize-bind time, in the
//     layout of the tier selected then.
//   - There is no kc blocking: the full-depth B sliver (k·qNR bytes)
//     streams well and skipping the block loop keeps the int32
//     accumulators register-resident across all of k. They are exact
//     while no column can overflow one — k ≤ maxDepthQ, checked where
//     weights are packed.
//   - The requantization (float32(acc − comp)·rowScale) and the
//     optional BN/activation epilogue run per accumulator tile, in one
//     row-kernel call that stores each output once (requantTile), the
//     same float32 op sequence as the reference int8 kernels.
//   - Two drivers share that kernel, the packed layouts and the
//     optional ABFT check: gemmStripesQ (slivers outermost; matrices,
//     and convs sample by sample) and gemmFoldedQ (a batch of small conv
//     planes as one GEMM, A panels outermost). The k-group is data to
//     both. A ragged sliver with at most half its columns live takes the
//     tier's half-width tile where one is bound (kernHalfQ).

// qFlip is the byte XORed into every quantized activation on a tier of
// k-group kq: 0x80 on the quad tier, whose kernel reads activations as
// unsigned bytes (v ^ 0x80 is v + 128 as a byte), nothing on the pair
// tiers. An activation of zero — padding, dead columns, the k tail — is
// therefore stored as qFlip itself.
func qFlip(kq int) int8 {
	if kq == 4 {
		return -128
	}
	return 0
}

// maxDepthQ is the deepest GEMM whose int32 accumulators are exact on a
// tier of k-group kq: a column of offset bytes can reach k·255·128, one
// of int8 pairs k·128·128, and either must stay below 2³¹.
func maxDepthQ(kq int) int {
	if kq == 4 {
		return 65793
	}
	return 131071
}

// depthQ is where weight (c, t) — input channel c of the group, kernel
// tap t of taps — sits in the packed depth of a tier of k-group kq:
// channel groups outermost, then taps, then the channel within its
// group. With one tap it is c itself.
func depthQ(c, t, taps, kq int) int { return (c/kq*taps+t)*kq + c%kq }

// PackedQ is an int8 left operand packed for the int8 micro-kernel of
// the tier selected at pack time, four rows a panel, kq consecutive
// depth steps of a row adjacent. Row-major A holds, per row, icg
// channels of taps kernel taps each (a plain matrix: k channels of one),
// and step d = depthQ(c, t, taps, kq) of the packed depth is A[·, c·taps+t]:
//
//	kq = 2: pairs[p·(kg·8)  + d/2·8  + r·2 + d%2] = int16(A[4p+r, c·taps+t])
//	kq = 4: quads[p·(kg·16) + d/4·16 + r·4 + d%4] =       A[4p+r, c·taps+t]
//
// with rows past m and the channels from icg up to a whole group
// zero-padded (exact for integer math). The drivers run a PackedQ only
// under a tier of the same k-group, against a source of the same taps,
// and panic, naming both, otherwise.
type PackedQ struct {
	m, k  int
	kq    int // k-group packed for
	icg   int // channels a row, k/taps
	taps  int // kernel taps a channel; 1 for a plain matrix
	kg    int // ⌈icg/kq⌉·taps groups a panel
	pairs []int16
	quads []int8
	// comp[i] = 128·Σ_k A[i,k] on the quad tier — what the offset of the
	// activation bytes added to row i's accumulators — and zero on the
	// pair tiers; requantTile subtracts it either way.
	comp []int32
	// ABFT column checksums (abft.go): csum[d] = Σ_i A[i, c·taps+t] at
	// d = depthQ(c, t), exact integer sums, zero on the pad channels like
	// the panels.
	csum []int64
}

// WeightSize reports the bytes a weight takes in p — two as an int16 of
// the pair tiers, one as an int8 of the quad tier: what a pass over the
// operand streams per value.
func (p *PackedQ) WeightSize() int {
	if p.kq == 4 {
		return 1
	}
	return 2
}

// ForTier reports whether p was packed for the selected tier's k-group —
// whether the int8 drivers will run it. A holder of cached panels
// repacks them when a SetKernelTier has made this false.
func (p *PackedQ) ForTier() bool { return p.kq == qK }

// panel returns the 4-row panel that starts at row i0, as the kernels
// take it.
func (p *PackedQ) panel(i0 int) unsafe.Pointer {
	if p.kq == 4 {
		return unsafe.Pointer(&p.quads[i0/4*p.kg*16])
	}
	return unsafe.Pointer(&p.pairs[i0/4*p.kg*8])
}

// want panics unless p was packed for the selected tier's k-group and
// for a source of the given taps.
func (p *PackedQ) want(taps int) {
	if !p.ForTier() {
		panic(fmt.Sprintf("tensor: PackedQ packed for int8 k-group %d, kernel tier %s runs k-group %d: repack int8 weights after SetKernelTier",
			p.kq, curTier.name, qK))
	}
	if p.taps != taps {
		panic(fmt.Sprintf("tensor: PackedQ packed for %d channels of %d taps, the source unrolls %d taps a channel: pack a conv's int8 weights with its kernel's taps",
			p.icg, p.taps, taps))
	}
}

// newPackedQ packs row-major int8 a (m×k, each row k/taps channels of
// taps values) for the selected tier into slices drawn from the three
// allocators, reading a through depthQ — no permuted copy of it is made.
// Depths past maxDepthQ are refused: their accumulators could wrap (pad
// channels add nothing: their weights are zero).
func newPackedQ(a []int8, m, k, taps int, pairs func(int) []int16, quads func(int) []int8, comp func(int) []int32) PackedQ {
	kq := qK
	if k > maxDepthQ(kq) {
		panic(fmt.Sprintf("tensor: int8 GEMM depth k=%d: int32 accumulators are exact only to k=%d on kernel tier %s (k-group %d)",
			k, maxDepthQ(kq), curTier.name, kq))
	}
	if taps <= 0 || k%taps != 0 {
		panic(fmt.Sprintf("tensor: int8 pack of depth k=%d in channels of %d taps", k, taps))
	}
	icg := k / taps
	kg := (icg + kq - 1) / kq * taps
	p := PackedQ{m: m, k: k, kq: kq, icg: icg, taps: taps, kg: kg, comp: comp(m)}
	n := (m + 3) / 4 * kg * 4 * kq
	if kq == 4 {
		p.quads = quads(n)
		clear(p.quads)
	} else {
		p.pairs = pairs(n)
		clear(p.pairs)
	}
	for row := 0; row < m; row++ {
		arow := a[row*k : (row+1)*k]
		base := row/4*kg*4*kq + row%4*kq
		var sum int32
		// Channel by channel: the weight at depthQ(c, t) sits in group
		// c/kq·taps + t, lane c%kq, so a channel's taps are a group apart.
		if kq == 4 {
			dst := p.quads[base:]
			for c := 0; c < icg; c++ {
				at := c>>2*taps*16 + c&3
				for _, v := range arow[c*taps:][:taps] {
					dst[at] = v
					sum += int32(v)
					at += 16
				}
			}
		} else {
			dst := p.pairs[base:]
			for c := 0; c < icg; c++ {
				at := c>>1*taps*8 + c&1
				for _, v := range arow[c*taps:][:taps] {
					dst[at] = int16(v)
					at += 8
				}
			}
		}
		p.comp[row] = sum * 128
	}
	return p
}

// PackWeightsQ packs a symmetric int8 weight slice (one conv group's
// [ocg, k] view, k = icg·taps in the (c, ky, kx) order weights are
// stored in; taps = KH·KW, or 1 for a plain matrix) for the int8
// micro-kernel of the selected tier. Cached per group by nn's quantize
// bind, exactly as PackWeights is for fp32.
func PackWeightsQ(data []int8, m, k, taps int) *PackedQ {
	if len(data) != m*k {
		panic(fmt.Sprintf("tensor: PackWeightsQ %d values for %dx%d", len(data), m, k))
	}
	p := newPackedQ(data, m, k, taps, func(n int) []int16 { return make([]int16, n) },
		func(n int) []int8 { return make([]int8, n) }, func(n int) []int32 { return make([]int32, n) })
	p.csum = make([]int64, p.kg*p.kq)
	colChecksumsQ(p.csum, data, m, k, taps, p.kq)
	return &p
}

// scratchW recycles int16 slices for per-call int8 weight packing on
// the pair tiers — the int16 instance of the shared rawPool core, kept
// unexported because only the packed int8 drivers draw from it (the
// quad tier's per-call panels come from ScratchB, every tier's comp from
// scratchI32). It is what keeps the generic MatMulInt8Into/Conv2DQ entry
// points allocation-free in steady state (plan ops cache PackedQ
// instead and never touch it).
var scratchW = func() *rawPool[int16] { p := newRawPool[int16](); return &p }()

// packScratchQ is the per-call pack: a into pooled scratch, without
// checksums. release returns the scratch.
func packScratchQ(a []int8, m, k, taps int) PackedQ {
	return newPackedQ(a, m, k, taps, scratchW.get, ScratchB.Get, scratchI32.get)
}

func (p *PackedQ) release() {
	if p.kq == 4 {
		ScratchB.Put(p.quads)
	} else {
		scratchW.put(p.pairs)
	}
	scratchI32.put(p.comp)
}

// qBSource supplies full-depth int8 B slivers in the selected tier's
// group-interleaved layout: with kq = qK, pack fills
// bbuf[kk·kq·qNR + jj·kq + s] = B[kq·kk+s, j0+jj] ^ qFlip(kq), B's rows
// in the packed depth order of taps() taps a channel (depthQ), and the
// columns ≥ jw, the k tail and the pad channels with qFlip(kq) — zero
// activations. Value structs only, as f32BSource.
type qBSource interface {
	pack(bbuf []int8, j0, jw int)
	taps() int
}

// fillBytes sets every byte of b to v.
func fillBytes(b []int8, v int8) {
	if v == 0 || len(b) == 0 {
		clear(b)
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// flipBytes XORs every byte of b, whose length is a multiple of 8, with
// flip, eight at a time.
func flipBytes(b []int8, flip int8) {
	if flip == 0 || len(b) == 0 {
		return
	}
	mask := uint64(uint8(flip)) * 0x0101010101010101
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	for i := range w {
		w[i] ^= mask
	}
}

// qMatrixB packs slivers from a row-major int8 k×n matrix: whole
// k-groups by zipping their rows, the ragged last group byte by byte,
// then the offset over the finished sliver.
type qMatrixB struct {
	b    []int8
	k, n int
}

func (s qMatrixB) taps() int { return 1 }

func (s qMatrixB) pack(bbuf []int8, j0, jw int) {
	kq, nr, n := qK, qNR, s.n
	bbuf = bbuf[:(s.k+kq-1)/kq*kq*nr]
	whole := s.k / kq * kq
	if jw < nr || whole < s.k {
		clear(bbuf)
	}
	for kk := 0; kk < whole; kk += kq {
		r := s.b[kk*n+j0:][:(kq-1)*n+jw]
		if kq == 4 {
			interleaveQuads(&bbuf[kk*nr], &r[0], &r[n], &r[2*n], &r[3*n], jw)
		} else {
			interleavePairs(&bbuf[kk*nr], &r[0], &r[n], jw)
		}
	}
	for kk := whole; kk < s.k; kk++ {
		row := bbuf[whole*nr+kk-whole:]
		for jj, v := range s.b[kk*n+j0:][:jw] {
			row[jj*kq] = v
		}
	}
	flipBytes(bbuf, qFlip(kq))
}

// qConvB is the int8 twin of f32ConvB, over one sample or a whole batch.
// The group's input planes are quantized once per conv call (newQConvB)
// into a pooled byte copy with a border of the conv's padding, so each
// pixel meets quantizeRound once rather than once per kernel tap and
// column sliver, and the sliver pack never leaves the copy: padding
// reads the border. The copy is channel-group-interleaved: group cg
// holds channels [cg·kq, cg·kq+kq) as [hp][wp][kq] bytes — a pixel's kq
// channels adjacent, the channels past icg zero — which is one k-group
// of the packed depth per kernel tap (depthQ), so a sliver's k-group is
// a run of pixels of one group plane moved as it lies — and on the quad
// tier a pixel of a group plane is one dword, so the sliver is the fp32
// panel gather at width qNR and goes to the same kernel
// (rowKernels.gather); pack's loop is its Go form, and the pair tiers'
// 2-byte groups and strides past 2 always take it. Every element is
// the quantizeRound value the reference im2colQRow computes, XORed with
// the tier's qFlip like the zeros of the border and the pad channels, so
// packed int8 convs match the materialised reference bit for bit. A
// batch is the samples' B matrices side by side: sample s owns columns
// [s·n, (s+1)·n).
type qConvB struct {
	q   []int8   // per sample: ⌈icg/kq⌉ group planes of hp·wp pixels, kq bytes a pixel
	g   convGeom // over the bordered group planes, in pixels: h, w include the border, ph = pw = 0
	kg  int      // k-groups a sliver: group planes × taps
	kq  int      // the tier's k-group when the copy was made: zeros are stored as qFlip(kq)
	n   int      // columns per sample, oh·ow
	per int      // pixels of q per sample
	tab gatherTab
}

// zipChunk is how many pixels newQConvB quantizes, plane by plane, before
// it zips them: kq staged rows of it stay in L1.
const zipChunk = 1024

// newQConvB quantizes channels [c0, c0+k/(KH·KW)) of every sample at
// inverse scale inv: kq channels a turn, each a rowQuantize into a
// staging row, then one zip of the rows into the group plane. The
// drivers only read the copy; release returns it to ScratchB.
func newQConvB(xs []*Tensor, inv float32, spec ConvSpec, c0, k, oh, ow int) qConvB {
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	g := newConvGeom(spec, h, w, ow).bordered(oh)
	hp, wp := g.h, g.w
	kq := qK
	flip := qFlip(kq)
	taps := spec.KH * spec.KW
	icg := k / taps
	ncg := (icg + kq - 1) / kq
	per := ncg * hp * wp
	q := ScratchB.Get(len(xs) * per * kq)
	// Whole source rows are staged, as many as fit the chunk; without a
	// side border they land in the copy as one run.
	stage := max(zipChunk/w, 1) * w
	zip := ScratchB.Get(kq * stage)
	for s, x := range xs {
		// The pool hands out dirty bytes; everything the interior rows do
		// not overwrite — the gaps between them, which are the border — is
		// filled on the way.
		qs := q[s*per*kq : (s+1)*per*kq]
		done := 0
		for cg := 0; cg < ncg; cg++ {
			live := min(kq, icg-cg*kq)
			if live < kq {
				fillBytes(zip[live*stage:], flip)
			}
			for y0 := 0; y0 < h; y0 += stage / w {
				cnt := min(stage, (h-y0)*w)
				for r := 0; r < live; r++ {
					src := x.Data[(c0+cg*kq+r)*h*w+y0*w:][:cnt]
					rowQuantize(zip[r*stage:][:cnt], src, inv, flip)
				}
				rows, run := cnt/w, w
				if wp == w {
					rows, run = 1, cnt
				}
				for y := 0; y < rows; y++ {
					row := ((cg*hp+y0+y+spec.PadH)*wp + spec.PadW) * kq
					fillBytes(qs[done:row], flip)
					d, z := qs[row:row+run*kq], zip[y*run:]
					if kq == 4 {
						interleaveQuads(&d[0], &z[0], &z[stage], &z[2*stage], &z[3*stage], run)
					} else {
						interleavePairs(&d[0], &z[0], &z[stage], run)
					}
					done = row + run*kq
				}
			}
		}
		fillBytes(qs[done:], flip)
	}
	ScratchB.Put(zip)
	return qConvB{q: q, g: g, kg: ncg * taps, kq: kq, n: oh * ow, per: per, tab: g.newGatherTab(len(xs) * per)}
}

func (s qConvB) release() {
	s.tab.release()
	ScratchB.Put(s.q)
}

func (s qConvB) taps() int { return s.g.kh * s.g.kw }

// sampleRun locates column j of a batch whose samples own n columns
// each: the sample, the column within it, and how many of the next left
// columns stay inside that sample.
func sampleRun(j, n, left int) (smp, c, cnt int) {
	smp, c = j/n, j%n
	return smp, c, min(n-c, left)
}

func (s qConvB) pack(bbuf []int8, j0, jw int) {
	g := &s.g
	ns := 0
	// Sample by sample: a sliver of a folded batch straddles several.
	for off := 0; off < jw; {
		smp, p, cnt := sampleRun(j0+off, s.n, jw-off)
		ns = g.cutAt(s.tab.segs, ns, off, p, cnt, smp*s.per)
		off += cnt
	}
	segs := s.tab.segs[:ns]
	nr, sw, q, kq := qNR, g.sw, s.q, s.kq
	bbuf = bbuf[:s.kg*kq*nr]
	if jw < nr {
		fillBytes(bbuf, qFlip(kq))
	}
	if kernRows != nil && kq == 4 && sw <= 2 {
		// A pixel's channel quad is one dword: the fp32 gather, qNR wide.
		s.tab.gather(unsafe.Pointer(&bbuf[0]), nr, unsafe.Pointer(&q[0]), len(q)/4, g.h*g.w, 0, s.kg, segs, sw)
		return
	}
	cg, ky, kx := 0, 0, 0
	for kk := 0; kk < s.kg; kk++ {
		// One k-group of the sliver is one tap of one group plane.
		roff := g.rowOff(cg, ky, kx)
		cg, ky, kx = g.next(cg, ky, kx)
		grp := bbuf[kk*kq*nr : (kk+1)*kq*nr]
		for i := range segs {
			sg := &segs[i]
			d := grp[kq*int(sg.off) : kq*int(sg.off+sg.cnt)]
			src := q[kq*(roff+int(sg.pos)):]
			switch {
			case sw == 1:
				copy(d, src[:len(d)])
			case kq == 4:
				gatherGroups[[4]int8](d, src, sw)
			default:
				gatherGroups[[2]int8](d, src, sw)
			}
		}
	}
}

// gatherGroups fills d with every sw-th k-group of src, a group being
// the bytes of an E: one dword (pairs: word) move each. The array views
// need no alignment, so this is the portable form of a strided
// unaligned load.
func gatherGroups[E [2]int8 | [4]int8](d, src []int8, sw int) {
	var e E
	cnt := len(d) / len(e)
	src = src[:len(e)*((cnt-1)*sw+1)]
	dv := unsafe.Slice((*E)(unsafe.Pointer(&d[0])), cnt)
	sv := unsafe.Slice((*E)(unsafe.Pointer(&src[0])), (cnt-1)*sw+1)
	for i := range dv {
		dv[i] = sv[i*sw]
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

// requantTile finishes rows × cnt accumulators, from column a0 of the
// 4×qNR tile acc on, into dst[i0+r, c0+j] (dst rows are ld wide): v =
// float32(acc − comp[i0+r]) · rowScale[i0+r] (comp is PackedQ's), then
// the epilogue of channel chanOff+i0+r — on a tier with row kernels in
// one epilogue call that stores each output once, else the Go loop and
// then applyCols' own. A checked run passes the columns' actual sums in
// act and the compensated accumulators are added to them first, so the
// ABFT equality test sees precisely the values that produce dst.
func requantTile(dst []float32, ld, i0, rows, c0 int, acc []int32, a0, cnt int, rowScale []float32, comp []int32, ep Epilogue, chanOff int, act []int64) {
	if act != nil {
		for r := 0; r < rows; r++ {
			cp := comp[i0+r]
			for j, v := range acc[r*qNR+a0:][:cnt] {
				act[j] += int64(v - cp)
			}
		}
	}
	if kernRows != nil {
		blk := dst[i0*ld+c0 : (i0+rows-1)*ld+c0+cnt]
		a := acc[a0 : (rows-1)*qNR+a0+cnt]
		scale, shift := ep.rowPtrs(chanOff+i0, chanOff+i0+rows)
		kernRows.epilogue(&blk[0], rows, ld, cnt, scale, shift, ep.Act,
			&a[0], qNR, &comp[i0 : i0+rows][0], &rowScale[i0 : i0+rows][0])
		return
	}
	for r := 0; r < rows; r++ {
		sc, cp := rowScale[i0+r], comp[i0+r]
		drow := dst[(i0+r)*ld+c0:][:cnt]
		for j, v := range acc[r*qNR+a0:][:cnt] {
			drow[j] = float32(v-cp) * sc
		}
	}
	ep.applyCols(dst, i0, i0+rows, ld, c0, c0+cnt, chanOff)
}

// gemmStripesQ runs the packed int8 GEMM with fused requantization:
// dst[i,j] = float32(Σ_k A[i,k]·B[k,j]) · rowScale[i], plus the
// optional epilogue, one qNR-column sliver after the other. Ragged tiles
// (rows past m, columns past jw) run the same kernel over the
// zero-padded panels — exact integer zeros from newPackedQ and the pack
// sources — and only their live part is written, so the deep
// small-spatial convs whose n fits inside one sliver stay on vector
// lanes. With check (wp then carries A's checksum row, see abft.go)
// every sliver's accumulators are verified and the result reports
// whether all matched; without, the run is unchecked, on the same kernel
// schedule, and reports true.
func gemmStripesQ[S qBSource](dst []float32, n int, wp *PackedQ, src S, rowScale []float32, ep Epilogue, chanOff int, check bool) bool {
	wp.want(src.taps())
	m, kg, nr := wp.m, wp.kg, qNR
	bbuf := ScratchB.Get(kg * wp.kq * nr)
	// The accumulator tile is pooled, not a stack array: its pointer
	// passes through the kernQ func value (and the fault hook sees it as
	// a slice), which defeats escape analysis and would heap-allocate the
	// tile every call.
	acc := scratchI32.get(4 * nr)
	ok := true
	// Fixed max-tier arrays so the checksum rows never escape; only the
	// first qNR entries are live for the selected tier.
	var expArr, actArr [qNRMax]int64
	var exp, act []int64
	if check {
		exp, act = expArr[:nr], actArr[:nr]
	}
	for j0 := 0; j0 < n; j0 += nr {
		jw := min(nr, n-j0)
		src.pack(bbuf, j0, jw)
		if check {
			clear(exp)
			clear(act)
			abftFoldSliverQ(exp, wp.csum, bbuf, wp.kq)
			if abftFaultB != nil {
				abftFaultB(bbuf, j0)
			}
		}
		kern := kernForQ(jw)
		for i0 := 0; i0 < m; i0 += 4 {
			kern(&acc[0], wp.panel(i0), &bbuf[0], kg)
			if check && ABFTFaultQ != nil {
				ABFTFaultQ(acc, i0, j0)
			}
			requantTile(dst, n, i0, min(4, m-i0), j0, acc, 0, jw, rowScale, wp.comp, ep, chanOff, act)
		}
		if check && !slices.Equal(exp[:jw], act[:jw]) {
			ok = false
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
// A non-nil bad asks for the run to be checked as gemmStripesQ's is, per
// column of the folded GEMM: bad[s] is set for every sample that owns a
// mismatching column, and the result reports whether there was none.
func gemmFoldedQ(dsts []*Tensor, wp *PackedQ, src qConvB, rowScale []float32, ep Epilogue, chanOff int, bad []bool) bool {
	wp.want(src.taps())
	m, kg, nr, n := wp.m, wp.kg, qNR, src.n
	check := bad != nil
	cols := len(dsts) * n
	nSliv := (cols + nr - 1) / nr
	sliver := kg * wp.kq * nr
	bbuf := ScratchB.Get(nSliv * sliver)
	// Expected and actual sums of every packed column, when checked.
	var sums []int64
	if check {
		sums = scratchQC.get(2 * nSliv * nr)
		clear(sums)
	}
	exp, act := sums[:len(sums)/2], sums[len(sums)/2:]
	for s := 0; s < nSliv; s++ {
		b := bbuf[s*sliver : (s+1)*sliver]
		src.pack(b, s*nr, min(nr, cols-s*nr))
		if check {
			abftFoldSliverQ(exp[s*nr:(s+1)*nr], wp.csum, b, wp.kq)
			if abftFaultB != nil {
				abftFaultB(b, s*nr)
			}
		}
	}
	acc := scratchI32.get(4 * nr)
	for i0 := 0; i0 < m; i0 += 4 {
		rows := min(4, m-i0)
		for j0 := 0; j0 < cols; j0 += nr {
			kernForQ(cols-j0)(&acc[0], wp.panel(i0), &bbuf[j0/nr*sliver], kg)
			if check && ABFTFaultQ != nil {
				ABFTFaultQ(acc, i0, j0)
			}
			// Each run of the tile's columns goes to the sample that owns it.
			for off, jw := 0, min(nr, cols-j0); off < jw; {
				smp, c, cnt := sampleRun(j0+off, n, jw-off)
				var a []int64
				if check {
					a = act[j0+off:]
				}
				requantTile(dsts[smp].Data, n, i0, rows, c, acc, off, cnt, rowScale, wp.comp, ep, chanOff, a)
				off += cnt
			}
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
	ok := true
	if check {
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
	wp := packScratchQ(a.Data, m, k, 1)
	gemmStripesQ(dst.Data, n, &wp, qMatrixB{b: b.Data, k: k, n: n}, rowScale, ep, chanOff, false)
	wp.release()
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
// route, checked when check is set.
func convPackedQ(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int, check bool) bool {
	n := oh * ow
	wantConvDstQ(dst, wp.m, n)
	src := newQConvB([]*Tensor{x}, inv, spec, c0, wp.k, oh, ow)
	ok := gemmStripesQ(dst.Data, n, wp, src, rowScale, ep, chanOff, check)
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
	clear(bad)
	ok := true
	if !foldsBatchQ(len(xs), oh*ow) {
		for s, x := range xs {
			if !convPackedQ(dsts[s], wp, x, spec, c0, oh, ow, inv, rowScale, ep, chanOff, bad != nil) {
				bad[s], ok = true, false
			}
		}
		return ok
	}
	for _, dst := range dsts {
		wantConvDstQ(dst, wp.m, oh*ow)
	}
	src := newQConvB(xs, inv, spec, c0, wp.k, oh, ow)
	ok = gemmFoldedQ(dsts, wp, src, rowScale, ep, chanOff, bad)
	src.release()
	return ok
}
