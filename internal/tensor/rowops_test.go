package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ocularone/internal/rng"
)

// withRowKernels runs fn on a tier that binds vector row kernels, or
// skips: where none is bound the Go forms are all there is.
func withRowKernels(t *testing.T, fn func()) {
	orig := KernelTier()
	defer func() {
		if err := SetKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		if kernRows != nil {
			fn()
			return
		}
	}
	t.Skip("no tier on this CPU binds vector row kernels")
}

// sweepFloat32 hands fn every float32 bit pattern, in ascending runs of
// at most sweepChunk, from as many goroutines as there are procs. The
// short sweep (-short, or under the race detector) is every 997th
// pattern plus the patterns around every exponent boundary of both
// signs — zeros, denormals, ±Inf and the first and last NaNs among them.
// newFn is called once per goroutine, so what it returns may keep
// scratch; that function returns a description of the first failure it
// saw, or "".
const sweepChunk = 4096

func sweepFloat32(t *testing.T, newFn func() func(bits []uint32) string) {
	t.Helper()
	if testing.Short() || raceEnabled {
		fn := newFn()
		var bits []uint32
		for b := uint64(0); b < 1<<32; b += 997 {
			bits = append(bits, uint32(b))
		}
		for e := uint32(0); e < 512; e++ { // sign and exponent
			for _, m := range []uint32{0, 1, 2, 0x3fffff, 0x400000, 0x400001, 0x7ffffe, 0x7fffff} {
				bits = append(bits, e<<23|m)
			}
		}
		for len(bits) > 0 {
			n := min(sweepChunk, len(bits))
			if msg := fn(bits[:n]); msg != "" {
				t.Fatal(msg)
			}
			bits = bits[n:]
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	span := uint64(1<<32) / uint64(workers)
	fails := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*span, uint64(w+1)*span
		if w == workers-1 {
			hi = 1 << 32
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := newFn()
			bits := make([]uint32, sweepChunk)
			for b := lo; b < hi && fails[w] == ""; {
				n := int(min(sweepChunk, hi-b))
				for i := range bits[:n] {
					bits[i] = uint32(b) + uint32(i)
				}
				fails[w] = fn(bits[:n])
				b += uint64(n)
			}
		}(w)
	}
	wg.Wait()
	for _, msg := range fails {
		if msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestLogisticRowMatchesDefinition holds the assembly SiLU and sigmoid to
// the Go definition on every float32, NaN payloads and ±Inf included.
// Each run of patterns goes through the kernel twice: as one long row
// with a ragged tail, and — its first 820 patterns — as rows of 1…40
// elements, each at the next pointer offset of 0…7 floats from a 64-byte
// boundary, so every tail mask and alignment meets every class of
// pattern.
func TestLogisticRowMatchesDefinition(t *testing.T) {
	withRowKernels(t, func() {
		sweepFloat32(t, func() func(bits []uint32) string {
			in := make([]float32, sweepChunk)
			want := [2][]float32{make([]float32, sweepChunk), make([]float32, sweepChunk)}
			buf := alignedSlice[float32](sweepChunk + 8)
			return func(bits []uint32) string {
				for i, b := range bits {
					v := math.Float32frombits(b)
					d := logisticDenom(v)
					in[i], want[0][i], want[1][i] = v, v/d, 1/d
				}
				check := func(lo, n, off int) string {
					for a, act := range []EpAct{EpActSiLU, EpActSigmoid} {
						row := buf[off : off+n]
						copy(row, in[lo:lo+n])
						kernRows.epilogue(&row[0], 1, 0, n, nil, nil, act, nil, 0, nil, nil)
						if i := sameBits(row, want[a][lo:lo+n]); i >= 0 {
							return fmt.Sprintf("act %d, input %#08x (%v), lane %d of a row of %d at offset %d: assembly %#08x (%v), definition %#08x (%v)",
								act, bits[lo+i], in[lo+i], i, n, off, math.Float32bits(row[i]), row[i], math.Float32bits(want[a][lo+i]), want[a][lo+i])
						}
					}
					return ""
				}
				off := int(bits[0] / sweepChunk % 8)
				if msg := check(0, len(bits)-off%3, off); msg != "" {
					return msg
				}
				for lo, n := 0, 1; n <= 40 && lo+n <= len(bits); lo, n = lo+n, n+1 {
					off = (off + 1) % 8
					if msg := check(lo, n, off); msg != "" {
						return msg
					}
				}
				return ""
			}
		})
	})
}

// TestQuantizeRowMatchesQuantizeRound holds the assembly quantizing row
// to quantizeRound on every float32 — NaNs, ±Inf and products past int32
// included, which the conversion turns into 0x80000000 and both forms
// then clamp to −128 — at four inverse scales, with and without the quad
// tier's offset XOR. Each run of patterns goes through the kernel as one
// long row with a ragged tail and, its first 820 patterns, as rows of
// 1…40 elements at the next source offset of 0…7 floats and destination
// offset of 0…7 bytes, a sentinel after each row's last byte.
func TestQuantizeRowMatchesQuantizeRound(t *testing.T) {
	withRowKernels(t, func() {
		for _, inv := range []float32{1, 127.0 / 6, 1e-3, 1e6} {
			sweepFloat32(t, func() func(bits []uint32) string {
				want := make([]int8, sweepChunk)
				src := alignedSlice[float32](sweepChunk + 8)
				dst := alignedSlice[int8](sweepChunk + 9)
				return func(bits []uint32) string {
					for i, b := range bits {
						want[i] = quantizeRound(math.Float32frombits(b), inv, 0)
					}
					check := func(lo, n, off int, flip int8) string {
						in, out := src[off:off+n], dst[off:off+n+1]
						for i := range in {
							in[i] = math.Float32frombits(bits[lo+i])
						}
						out[n] = 0x55
						kernRows.quantize(&out[0], &in[0], n, inv, uint32(uint8(flip))*0x01010101)
						for i, w := range want[lo : lo+n] {
							if out[i] != w^flip {
								return fmt.Sprintf("inv %v, input %#08x (%v), lane %d of a row of %d at offset %d, flip %d: assembly %d, quantizeRound %d",
									inv, bits[lo+i], in[i], i, n, off, flip, out[i], w^flip)
							}
						}
						if out[n] != 0x55 {
							return fmt.Sprintf("inv %v: a row of %d at offset %d wrote past its end", inv, n, off)
						}
						return ""
					}
					off := int(bits[0] / sweepChunk % 8)
					flip := int8(bits[0] / sweepChunk / 8 % 2 * 0x80)
					if msg := check(0, len(bits)-off%3, off, flip); msg != "" {
						return msg
					}
					for lo, n := 0, 1; n <= 40 && lo+n <= len(bits); lo, n = lo+n, n+1 {
						off = (off + 1) % 8
						if msg := check(lo, n, off, flip^int8(n%2*0x80)); msg != "" {
							return msg
						}
					}
					return ""
				}
			})
		}
	})
}

// requantExt are accumulators and compensations at and around the int32
// extremes and the float32 integer limit; requantScales run from the
// smallest subnormal to the largest float.
var (
	requantExt    = []int32{0, 1, -1, 127, -128, 1 << 24, 1<<24 + 1, -(1 << 24) - 1, 1<<30 + 1<<6, math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, math.MinInt32 + 1}
	requantScales = []float32{1, 1.0 / 127 / 127, 0x1p-149, 0x1p-130, 0x1p100, math.MaxFloat32, -3.5, 0}
)

// requantRow is requantTile's requant-only call on one row of a tile:
// dst[j] = float32(acc[j] − comp)·scale, through the tier's epilogue
// kernel where one is bound.
func requantRow(dst []float32, acc []int32, comp int32, scale float32) {
	requantTile(dst, len(acc), 0, 1, 0, acc, 0, len(acc), []float32{scale}, []int32{comp}, Epilogue{}, 0, nil)
}

// TestRequantRowMatchesGo holds the requantization of every tier — the
// epilogue kernel's int32 source with no affine and no activation — to
// the loop it replaced, bit for bit: rows of 1 to 40 accumulators at
// every pointer offset, accumulators and compensations at the int32
// extremes (the subtraction wraps), scales from the smallest subnormal to
// the largest float, nothing written past the row; and, at three
// (comp, scale) pairs, every int32 accumulator (sweepFloat32's patterns
// read as integers: all 2³² without -short).
func TestRequantRowMatchesGo(t *testing.T) {
	goRow := func(dst []float32, acc []int32, comp int32, scale float32) {
		for j, v := range acc {
			dst[j] = float32(v-comp) * scale
		}
	}
	forEachTier(t, func(t *testing.T, tier string) {
		r := rng.New(2300)
		acc := alignedSlice[int32](48)
		dst := alignedSlice[float32](49)
		want := make([]float32, 40)
		for cnt := 1; cnt <= 40; cnt++ {
			for _, comp := range requantExt {
				for si, scale := range requantScales {
					off := (cnt + si) % 8
					in, out := acc[off:off+cnt], dst[off:off+cnt+1]
					for i := range in {
						if in[i] = int32(r.Uint64()); i%3 == 0 {
							in[i] = requantExt[r.Uint64()%uint64(len(requantExt))]
						}
					}
					out[cnt] = 0x55
					requantRow(out[:cnt], in, comp, scale)
					goRow(want, in, comp, scale)
					for i := range in {
						if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
							t.Fatalf("row of %d at offset %d, acc %d comp %d scale %v: lane %d is %v, the loop gives %v", cnt, off, in[i], comp, scale, i, out[i], want[i])
						}
					}
					if out[cnt] != 0x55 {
						t.Fatalf("row of %d at offset %d wrote past its end", cnt, off)
					}
				}
			}
		}
		if kernRows == nil {
			return // the Go form is the loop
		}
		for _, p := range []struct {
			comp  int32
			scale float32
		}{{0, 1}, {128 * 4608 * 127, 1.0 / 127 / 127}, {math.MinInt32 + 12345, -0x1.fffffep-100}} {
			sweepFloat32(t, func() func(bits []uint32) string {
				in := make([]int32, sweepChunk)
				got, want := make([]float32, sweepChunk), make([]float32, sweepChunk)
				return func(bits []uint32) string {
					n := len(bits) - int(bits[0]/sweepChunk%8) // every tail length
					for i, b := range bits[:n] {
						in[i] = int32(b)
					}
					requantRow(got[:n], in[:n], p.comp, p.scale)
					goRow(want, in[:n], p.comp, p.scale)
					for i := range in[:n] {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							return fmt.Sprintf("acc %d comp %d scale %v: kernel %v, the loop %v", in[i], p.comp, p.scale, got[i], want[i])
						}
					}
					return ""
				}
			})
		}
	})
}

// logisticDriftUlp and logisticDriftAbs bound the new definition's
// distance from the math.Exp expressions it replaced: 2 units of 2⁻²³
// relative to the old value, or 10⁻³⁶ absolute (where exp(−v) nears the
// float32 range's end the old form flushes to −0 a little earlier).
const (
	logisticDriftUlp = 2.0
	logisticDriftAbs = 1e-36
)

// TestLogisticDrift measures what ships on the tier in effect — the
// assembly where it is bound, which the test above holds to the
// definition, else the definition — against the old expressions over the
// same sweep, and prints the worst input.
func TestLogisticDrift(t *testing.T) {
	type worst struct {
		ulp float64
		v   float32
	}
	var mu sync.Mutex
	var worsts [2]worst // SiLU, sigmoid
	sweepFloat32(t, func() func(bits []uint32) string {
		silu, sigmoid := make([]float32, sweepChunk), make([]float32, sweepChunk)
		return func(bits []uint32) string {
			got := [2][]float32{silu[:len(bits)], sigmoid[:len(bits)]}
			for i, b := range bits {
				got[0][i], got[1][i] = math.Float32frombits(b), math.Float32frombits(b)
			}
			rowAct(got[0], EpActSiLU)
			rowAct(got[1], EpActSigmoid)
			var w [2]worst
			for i, b := range bits {
				v := math.Float32frombits(b)
				ref := refLogisticDenom(v)
				for a, want := range [2]float32{v / ref, 1 / ref} {
					got := got[a][i]
					if got == want || got != got && want != want {
						continue
					}
					d := math.Abs(float64(got) - float64(want))
					if d <= logisticDriftAbs {
						continue
					}
					u := d / math.Abs(float64(want)) * (1 << 23)
					if !(u <= logisticDriftUlp) {
						return fmt.Sprintf("%s(%v) (bits %#08x) is %v, the math.Exp form gives %v: %.3f ulp",
							[2]string{"SiLU", "sigmoid"}[a], v, b, got, want, u)
					}
					if u > w[a].ulp {
						w[a] = worst{u, v}
					}
				}
			}
			mu.Lock()
			for a := range w {
				if w[a].ulp > worsts[a].ulp {
					worsts[a] = w[a]
				}
			}
			mu.Unlock()
			return ""
		}
	})
	ws, wg := worsts[0], worsts[1]
	t.Logf("worst drift from the math.Exp forms: SiLU %.3f ulp at v = %v (bits %#08x), sigmoid %.3f ulp at v = %v (bits %#08x)",
		ws.ulp, ws.v, math.Float32bits(ws.v), wg.ulp, wg.v, math.Float32bits(wg.v))
}

// rowSpecials are the values the ordinary draws never produce.
var rowSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xff812345, // quiet and signalling NaNs
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
}

// drawRow fills row with activations in (−4, 4), about one in eight
// replaced by a special.
func drawRow(r *rng.RNG, row []float32) {
	for i := range row {
		row[i] = 8*r.Float32() - 4
		if u := r.Uint64(); u%8 == 0 {
			row[i] = math.Float32frombits(rowSpecials[u>>8%uint64(len(rowSpecials))])
		}
	}
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// epActs is every activation an epilogue applies.
var epActs = []EpAct{EpActNone, EpActReLU, EpActSiLU, EpActSigmoid}

// checkRowKernels runs one rows×[j0, j0+jw) stripe of a ld-wide block
// through Epilogue.applyCols on the current tier and wants the Go form's
// bits (goEpilogue) — and, when the stripe fits an int8 tile, the same
// shape through requantTile from an accumulator tile (checkRequantTile).
// Then Tensor.Add, Tensor.ReLU and rowMax over jw elements against their
// old loops.
func checkRowKernels(t *testing.T, seed uint64, rows, ld, j0, jw, chanOff int) {
	t.Helper()
	r := rng.New(seed)
	data := make([]float32, rows*ld)
	drawRow(r, data)
	scale, shift := make([]float32, chanOff+rows), make([]float32, chanOff+rows)
	drawRow(r, scale)
	drawRow(r, shift)
	for _, ep := range []Epilogue{{Scale: scale, Shift: shift}, {Shift: shift}, {}} {
		for _, act := range epActs {
			ep.Act = act
			got := append([]float32(nil), data...)
			ep.applyCols(got, 0, rows, ld, j0, j0+jw, chanOff)
			want := append([]float32(nil), data...)
			goEpilogue(ep, want, 0, rows, ld, j0, j0+jw, chanOff)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("seed %d rows %d ld %d cols [%d, %d) scale %v shift %v act %d: elem %d (input %v) is %v (%#08x), the old loop gives %v (%#08x)",
					seed, rows, ld, j0, j0+jw, ep.Scale != nil, ep.Shift != nil, act, i, data[i],
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	if rows <= 4 && jw <= qNR {
		checkRequantTile(t, seed, rows, (j0+chanOff)%(qNR-jw+1), jw, j0, ld, chanOff)
	}

	a, b := make([]float32, jw), make([]float32, jw)
	drawRow(r, a)
	drawRow(r, b)
	got, want := FromSlice(append([]float32(nil), a...), jw), append([]float32(nil), a...)
	got.Add(FromSlice(b, jw))
	refAdd(want, b)
	if i := sameBits(got.Data, want); i >= 0 {
		t.Fatalf("seed %d: Add of %d elements: elem %d: %v + %v is %#08x, the old loop gives %#08x",
			seed, jw, i, a[i], b[i], math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
	}
	got.ReLU()
	refApplyCols(Epilogue{Act: EpActReLU}, want, 0, 1, jw, 0, jw, 0)
	if i := sameBits(got.Data, want); i >= 0 {
		t.Fatalf("seed %d: ReLU of %d elements: elem %d is %#08x, the old loop gives %#08x",
			seed, jw, i, math.Float32bits(got.Data[i]), math.Float32bits(want[i]))
	}
	best, wantBest := append([]float32(nil), a...), append([]float32(nil), a...)
	rowMax(best, b)
	for i, v := range b {
		if v > wantBest[i] {
			wantBest[i] = v
		}
	}
	if i := sameBits(best, wantBest); i >= 0 {
		t.Fatalf("seed %d: pooling step over %d elements: elem %d: best %v, v %v gives %#08x, the old step %#08x",
			seed, jw, i, a[i], b[i], math.Float32bits(best[i]), math.Float32bits(wantBest[i]))
	}
}

// checkRequantTile finishes rows (1–4) × cnt accumulators, from column a0
// of a 4×qNR tile, through requantTile into column c0 of an ld-wide
// block, checked, under every epilogue and activation checkRowKernels
// runs, and wants the Go form's bits: the requant loop, then goEpilogue.
// Accumulators and compensations reach the int32 extremes, row scales
// run from the smallest subnormal to the largest float, every element
// outside the block — the one past its last row included — keeps its
// value, and the checked sums are the compensated accumulators'.
func checkRequantTile(t *testing.T, seed uint64, rows, a0, cnt, c0, ld, chanOff int) {
	t.Helper()
	r := rng.New(seed)
	pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
	acc := make([]int32, 4*qNR)
	for i := range acc {
		if acc[i] = int32(r.Uint64()); pick(3) == 0 {
			acc[i] = requantExt[pick(len(requantExt))]
		}
	}
	comp, rowScale := make([]int32, rows), make([]float32, rows)
	for i := range comp {
		comp[i] = requantExt[pick(len(requantExt))]
		if rowScale[i] = requantScales[pick(len(requantScales))]; pick(2) == 0 {
			rowScale[i] = r.Float32() / 127 / 100
		}
	}
	data := make([]float32, rows*ld+1)
	drawRow(r, data)
	scale, shift := make([]float32, chanOff+rows), make([]float32, chanOff+rows)
	drawRow(r, scale)
	drawRow(r, shift)
	wantSums := make([]int64, cnt)
	for rr := 0; rr < rows; rr++ {
		for j, v := range acc[rr*qNR+a0:][:cnt] {
			wantSums[j] += int64(v - comp[rr])
		}
	}
	for _, ep := range []Epilogue{{Scale: scale, Shift: shift}, {Shift: shift}, {}} {
		for _, act := range epActs {
			ep.Act = act
			got, sums := append([]float32(nil), data...), make([]int64, cnt)
			requantTile(got, ld, 0, rows, c0, acc, a0, cnt, rowScale, comp, ep, chanOff, sums)
			want := append([]float32(nil), data...)
			for rr := 0; rr < rows; rr++ {
				for j, v := range acc[rr*qNR+a0:][:cnt] {
					want[rr*ld+c0+j] = float32(v-comp[rr]) * rowScale[rr]
				}
			}
			goEpilogue(ep, want, 0, rows, ld, c0, c0+cnt, chanOff)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("seed %d: %d×%d accumulators from column %d of a 4×%d tile into column %d of a %d-wide block, scale %v shift %v act %d: elem %d is %v (%#08x), the Go form gives %v (%#08x)",
					seed, rows, cnt, a0, qNR, c0, ld, ep.Scale != nil, ep.Shift != nil, act, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
			if !slices.Equal(sums, wantSums) {
				t.Fatalf("seed %d: %d×%d tile from column %d: checked sums %v, want %v", seed, rows, cnt, a0, sums, wantSums)
			}
		}
	}
}

// gatherRowsRef is rowKernels.gather's contract as a Go loop over
// slices, so every access it makes is bounds-checked.
func gatherRowsRef(dst []uint32, ld int, src []uint32, taps []int32, t0, plane, rows int, segs []panelSeg, sw int) {
	c, t := 0, t0
	for r := 0; r < rows; r++ {
		row := src[c*plane+int(taps[t]):]
		if t++; t == len(taps) {
			c, t = c+1, 0
		}
		for _, sg := range segs {
			for j := 0; j < int(sg.cnt); j++ {
				dst[r*ld+int(sg.off)+j] = row[int(sg.pos)+j*sw]
			}
		}
	}
}

// TestGatherRowsMatchesGo runs the gather kernel of every tier that
// binds one against that loop: segment lists of 1 … panelSegMax runs,
// every length 1 … 32 among them, with and without gaps between them, in
// panels 12, 24 and 32 dwords wide, at both strides, from a random tap of
// a random tap table on, across plane wraps. The source holds its own
// index in every dword and ends on the last one the panel needs; the
// panel lies between guard words, and the guards, the gaps and the panel
// columns past the last segment must all come back as they went in.
func TestGatherRowsMatchesGo(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		if kernRows == nil {
			t.Skip("tier binds no row kernels")
		}
		r := rng.New(24)
		pick := func(lim int) int { return int(r.Uint64() % uint64(lim)) }
		const guard = 8
		for trial := 0; trial < 4000; trial++ {
			ld, sw := []int{12, 24, 32}[trial%3], 1+trial/3%2
			// The first 32 rounds of each width are one run of each length
			// (those that fit); the rest cut the row at random.
			var segs []panelSeg
			maxPos := 0
			add := func(off, cnt int) {
				pos := pick(40)
				segs = append(segs, panelSeg{off: int32(off), cnt: int32(cnt), pos: int32(pos)})
				maxPos = max(maxPos, pos+(cnt-1)*sw)
			}
			if fixed := 1 + trial/6%32; trial < 6*32 && fixed <= ld {
				add(pick(ld-fixed+1), fixed)
			} else {
				for off := pick(3); off < ld && len(segs) < panelSegMax; off += pick(2) * pick(3) {
					cnt := 1 + pick(min(ld-off, 1+pick(32)))
					add(off, cnt)
					off += cnt
				}
			}
			nt, rows := 1+pick(9), 1+pick(20)
			taps := make([]int32, nt)
			for i := range taps {
				taps[i] = int32(pick(30))
			}
			t0, plane := pick(nt), 20+pick(50)
			maxRow := 0
			for c, tp, row := 0, t0, 0; row < rows; row++ {
				maxRow = max(maxRow, c*plane+int(taps[tp]))
				if tp++; tp == nt {
					c, tp = c+1, 0
				}
			}
			src := make([]uint32, maxRow+maxPos+1)
			for i := range src {
				src[i] = uint32(i) | 0xab<<24
			}
			got := make([]uint32, guard+rows*ld+guard)
			for i := range got {
				got[i] = 0xdead0000 + uint32(i)
			}
			want := append([]uint32(nil), got...)
			gatherRowsRef(want[guard:], ld, src, taps, t0, plane, rows, segs, sw)
			kernRows.gather(unsafe.Pointer(&got[guard]), ld, unsafe.Pointer(&src[0]), &taps[0], nt, t0, plane, rows, &segs[0], len(segs), sw)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (ld %d, stride %d, %d rows from tap %d of %d, segs %v): dword %d of the guarded panel = %#x, want %#x",
						trial, ld, sw, rows, t0, nt, segs, i-guard, got[i], want[i])
				}
			}
		}
	})
}

// TestRowKernelsMatchReference: every stripe shape up to five vectors
// wide, ragged on both sides, and every int8 tile of 1–4 rows, 1…qNR
// columns and every column offset, on every tier.
func TestRowKernelsMatchReference(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		seed := uint64(0)
		for jw := 1; jw <= 41; jw++ {
			for _, rows := range []int{1, 3, 8} {
				for _, j0 := range []int{0, 1, 5} {
					seed++
					checkRowKernels(t, seed, rows, j0+jw+int(seed%3), j0, jw, int(seed%5))
				}
			}
		}
		for rows := 1; rows <= 4; rows++ {
			for cnt := 1; cnt <= qNR; cnt++ {
				for a0 := 0; a0+cnt <= qNR; a0++ {
					seed++
					c0 := int(seed % 3)
					checkRequantTile(t, seed, rows, a0, cnt, c0, c0+cnt+int(seed/3%2), int(seed%5))
				}
			}
		}
	})
}

func FuzzRowKernels(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(9), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(4), uint8(24), uint8(3), uint8(7), uint8(2))
	f.Add(uint64(3), uint8(7), uint8(36), uint8(8), uint8(1), uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, lead, slack, chanOff uint8) {
		m, jw, j0 := 1+int(rows%16), 1+int(cols%80), int(lead%16)
		forEachTier(t, func(t *testing.T, tier string) {
			checkRowKernels(t, seed, m, j0+jw+int(slack%8), j0, jw, int(chanOff))
			cnt := 1 + int(cols)%qNR
			checkRequantTile(t, seed, 1+int(rows%4), int(lead)%(qNR-cnt+1), cnt, j0, j0+cnt+int(slack%8), int(chanOff))
		})
	})
}

// checkMaxPool holds MaxPool2DInto to the old per-output scan, bit for
// bit, on a c×h×w input with NaNs, ±0 and ±Inf among the values.
func checkMaxPool(t *testing.T, seed uint64, c, h, w, k, stride, pad int) {
	t.Helper()
	x := New(c, h, w)
	drawRow(rng.New(seed), x.Data)
	oh, ow := PoolOutSize(h, w, k, stride, pad)
	got, want := New(c, oh, ow), New(c, oh, ow)
	MaxPool2DInto(got, x, k, stride, pad)
	for ci := 0; ci < c; ci++ {
		refMaxPoolChan(want, x, ci, k, stride, pad)
	}
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("seed %d: %dx%d pool, stride %d, pad %d over %dx%dx%d: output %d is %v (%#08x), the old scan gives %v (%#08x)",
			seed, k, k, stride, pad, c, h, w, i, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
	}
}

// poolGeometryOK is PoolOutSize's acceptance rule.
func poolGeometryOK(h, w, k, pad int) bool {
	return pad < k && k <= h+2*pad && k <= w+2*pad
}

func TestMaxPoolMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		seed := uint64(0)
		for k := 1; k <= 7; k++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad < k; pad++ {
					for h := 1; h <= 17; h++ {
						// Every width for two heights, a stride of them for the rest.
						step := 1
						if h != 4 && h != 17 {
							step = 5
						}
						for w := 1 + h%step; w <= 23; w += step {
							if poolGeometryOK(h, w, k, pad) {
								seed++
								checkMaxPool(t, seed, 2, h, w, k, stride, pad)
							}
						}
					}
				}
			}
		}
	})
}

func FuzzMaxPool(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint8(1), uint8(48), uint8(48), uint8(2))
	f.Add(uint64(2), uint8(5), uint8(1), uint8(2), uint8(3), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(3), uint8(0), uint8(17), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, kern, stride, pad, h, w, c uint8) {
		k, s := 1+int(kern%7), 1+int(stride%3)
		p, hh, ww := int(pad)%k, 1+int(h%64), 1+int(w%64)
		if !poolGeometryOK(hh, ww, k, p) {
			t.Skip()
		}
		forEachTier(t, func(t *testing.T, tier string) {
			checkMaxPool(t, seed, 1+int(c%3), hh, ww, k, s, p)
		})
	})
}

// TestMaxPoolRejectsEmptyWindows: a kernel larger than the padded plane,
// or padding as wide as the kernel, would pool windows with no input.
func TestMaxPoolRejectsEmptyWindows(t *testing.T) {
	for _, g := range [][5]int{ // h, w, k, stride, pad
		{2, 8, 3, 1, 0}, {8, 2, 5, 2, 1}, {4, 4, 2, 1, 2}, {4, 4, 3, 2, 5},
	} {
		h, w, k, stride, pad := g[0], g[1], g[2], g[3], g[4]
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("%dx%d max pool, pad %d, over a %dx%d plane:", k, k, pad, h, w)) {
					t.Errorf("%dx%d pool pad %d over %dx%d: panic %q does not name the shape", k, k, pad, h, w, msg)
				}
			}()
			MaxPool2D(New(1, h, w), k, stride, pad)
		}()
	}
	// The Table-2 pools pass.
	PoolOutSize(48, 48, 3, 2, 1)
	PoolOutSize(3, 3, 5, 1, 2)
}

// BenchmarkRowKernels times the old loops (reference_test.go) against the
// shipped kernels from one binary, in ns per element: SiLU, sigmoid,
// affine + ReLU and add over a block of about 4608 floats cut into
// stripes of the widths the GEMM drivers hand the epilogue (9 and 36 are
// the narrow and folded routes' whole rows, 12 / 24 / 32 the tiles' widths,
// 576 and 2304 whole planes), and the two pools the Table-2 networks run
// at 96×96. SiLU and affine + ReLU also run the kernel one row a call
// (perrow), the alternative to handing it the stripe. Every in-place case
// first restores its block from a copy, which the copy row prices. The
// tile cases finish a 64-row int8 stripe one tile wide, in ns a 4×qNR
// tile: twopass as the drivers did before the fused call — four
// requant-only calls a tile, then applyCols over the stripe — against
// fused, one requantTile call a tile with the epilogue in it. Run with
// GOMAXPROCS=1.
func BenchmarkRowKernels(b *testing.B) {
	r := rng.New(16)
	perElem := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
	}
	{
		const m = 64
		acc, dst := make([]int32, 4*qNR), make([]float32, m*qNR)
		for i := range acc {
			acc[i] = int32(r.Uint64()>>40) - 1<<23
		}
		comp, rowScale := make([]int32, m), make([]float32, m)
		scale, shift := make([]float32, m), make([]float32, m)
		for i := range comp {
			comp[i] = int32(r.Uint64()>>48) - 1<<15
			rowScale[i] = r.Float32() / 127 / 100
			scale[i], shift[i] = r.Float32()+0.5, r.Float32()-0.5
		}
		for _, act := range []EpAct{EpActSiLU, EpActReLU} {
			ep := Epilogue{Scale: scale, Shift: shift, Act: act}
			for _, side := range []struct {
				name string
				fn   func()
			}{
				{"twopass", func() {
					for i0 := 0; i0 < m; i0 += 4 {
						for rr := i0; rr < i0+4; rr++ {
							requantTile(dst, qNR, rr, 1, 0, acc[(rr-i0)*qNR:], 0, qNR, rowScale, comp, Epilogue{}, 0, nil)
						}
					}
					ep.applyCols(dst, 0, m, qNR, 0, qNR, 0)
				}},
				{"fused", func() {
					for i0 := 0; i0 < m; i0 += 4 {
						requantTile(dst, qNR, i0, 4, 0, acc, 0, qNR, rowScale, comp, ep, 0, nil)
					}
				}},
			} {
				b.Run(fmt.Sprintf("tile/affine+%s/4x%d/%s", [...]string{EpActSiLU: "silu", EpActReLU: "relu"}[act], qNR, side.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						side.fn()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(m/4), "ns/tile")
				})
			}
		}
	}
	for _, w := range []int{9, 12, 24, 32, 36, 576, 2304} {
		rows := max(1, 4608/w)
		src, blk, other := make([]float32, rows*w), make([]float32, rows*w), make([]float32, rows*w)
		for i := range src {
			src[i], other[i] = 8*r.Float32()-4, 8*r.Float32()-4
		}
		scale, shift := make([]float32, rows), make([]float32, rows)
		for i := range scale {
			scale[i], shift[i] = r.Float32()+0.5, r.Float32()-0.5
		}
		affineReLU := Epilogue{Scale: scale, Shift: shift, Act: EpActReLU}
		perRow := func(ep Epilogue) func() {
			return func() {
				for r := 0; r < rows; r++ {
					ep.applyCols(blk, r, r+1, w, 0, w, 0)
				}
			}
		}
		for _, c := range []struct {
			name              string
			ref, kern, perRow func()
		}{
			{"copy", func() {}, nil, nil},
			{"silu", func() { refApplyCols(Epilogue{Act: EpActSiLU}, blk, 0, rows, w, 0, w, 0) },
				func() { Epilogue{Act: EpActSiLU}.applyCols(blk, 0, rows, w, 0, w, 0) }, perRow(Epilogue{Act: EpActSiLU})},
			{"sigmoid", func() { refApplyCols(Epilogue{Act: EpActSigmoid}, blk, 0, rows, w, 0, w, 0) },
				func() { Epilogue{Act: EpActSigmoid}.applyCols(blk, 0, rows, w, 0, w, 0) }, nil},
			{"affine+relu", func() { refApplyCols(affineReLU, blk, 0, rows, w, 0, w, 0) },
				func() { affineReLU.applyCols(blk, 0, rows, w, 0, w, 0) }, perRow(affineReLU)},
			{"add", func() { refAdd(blk, other) }, func() { rowAdd(blk, other) }, nil},
		} {
			for _, side := range []struct {
				name string
				fn   func()
			}{{"ref", c.ref}, {"kernel", c.kern}, {"perrow", c.perRow}} {
				if side.fn == nil {
					continue
				}
				b.Run(fmt.Sprintf("%s/w%d/%s", c.name, w, side.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(blk, src)
						side.fn()
					}
					perElem(b, len(blk))
				})
			}
		}
	}
	for _, p := range []struct{ c, h, w, k, stride, pad int }{{64, 48, 48, 3, 2, 1}, {128, 3, 3, 5, 1, 2}} {
		x := New(p.c, p.h, p.w)
		for i := range x.Data {
			x.Data[i] = 8*r.Float32() - 4
		}
		oh, ow := PoolOutSize(p.h, p.w, p.k, p.stride, p.pad)
		dst := New(p.c, oh, ow)
		name := fmt.Sprintf("pool/%dx%dx%d_k%ds%dp%d", p.c, p.h, p.w, p.k, p.stride, p.pad)
		b.Run(name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for ci := 0; ci < p.c; ci++ {
					refMaxPoolChan(dst, x, ci, p.k, p.stride, p.pad)
				}
			}
			perElem(b, len(dst.Data))
		})
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxPool2DInto(dst, x, p.k, p.stride, p.pad)
			}
			perElem(b, len(dst.Data))
		})
	}
}
