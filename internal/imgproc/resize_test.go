package imgproc

import (
	"math"
	"testing"

	"ocularone/internal/rng"
)

// TestResizeRowForms holds the AVX-512 forms of the resampling kernel's
// three loops to their Go forms bit for bit, on rows of every length
// from one block to a few dozen plus a ragged tail, and on blend inputs
// past both ends of clampU8's range and on the rounding boundaries
// k+0.5, where a fused or reordered operation would show.
func TestResizeRowForms(t *testing.T) {
	if !VectorForm() {
		t.Skip("the AVX-512 forms run only on the avx512vnni tier")
	}
	r := rng.New(7)
	var tab [256]float64
	for v := range tab {
		tab[v] = r.Range(0, 255)
	}
	for n := 1; n < 300; n += 1 + n/16 {
		from := make([]uint8, n)
		for i := range from {
			from[i] = uint8(r.Uint64())
		}
		got, want := make([]float64, n), make([]float64, n)
		mapRow(got, from, &tab, true)
		mapRow(want, from, &tab, false)
		equalBits(t, "mapRow", got, want)

		src := make([]float64, 2*n+1)
		for i := range src {
			src[i] = float64(r.Intn(256))
		}
		at0, at1 := make([]int32, n), make([]int32, n)
		wg, wf := make([]float64, n), make([]float64, n)
		for e := range at0 {
			at0[e], at1[e] = int32(r.Intn(len(src))), int32(r.Intn(len(src)))
			wf[e] = r.Float64()
			wg[e] = 1 - wf[e]
		}
		lerpRow(got, src, at0, at1, wg, wf, true)
		lerpRow(want, src, at0, at1, wg, wf, false)
		equalBits(t, "lerpRow", got, want)

		top, bot := make([]float64, n), make([]float64, n)
		for i := range top {
			switch r.Intn(4) {
			case 0: // on a rounding boundary
				top[i], bot[i] = float64(r.Intn(256))+0.5, 0
			case 1: // past either end
				top[i], bot[i] = r.Range(-3, 0), r.Range(255, 258)
			default:
				top[i], bot[i] = r.Range(0, 255), r.Range(0, 255)
			}
		}
		for _, w := range []float64{0, 1, r.Float64()} {
			gotB, wantB := make([]uint8, n), make([]uint8, n)
			blendRow(gotB, top, bot, 1-w, w, true)
			blendRow(wantB, top, bot, 1-w, w, false)
			for i := range gotB {
				if gotB[i] != wantB[i] {
					t.Fatalf("blendRow n=%d fy=%v: value %d (%v, %v) = %d, Go form %d", n, w, i, top[i], bot[i], gotB[i], wantB[i])
				}
			}
		}
	}
}

func equalBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: value %d = %v, Go form %v", name, len(got), i, got[i], want[i])
		}
	}
}
