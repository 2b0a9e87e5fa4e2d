package imgproc

import (
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// TestScanForms holds the AVX-512 forms of the two scans to their Go
// forms: lumaRange over runs of 1 to 70 pixels (whole blocks of sixteen
// and every partial one) in rows of a wider stride, and ExtremaBox.Row
// over rows of 1 to 200 pixels (whole words, partial words, partial
// blocks) against boxes from empty to everything, each with one bound
// on the exact value so an off-by-one shows. Every run ends at the last
// byte of its slice, whose backing array goes on with sentinels.
func TestScanForms(t *testing.T) {
	if !VectorForm() {
		t.Skip("the AVX-512 forms run only on the avx512vnni tier")
	}
	r := rng.New(11)
	for n := 1; n <= 70; n++ {
		for _, rows := range []int{1, 2, 5} {
			stride := 3*n + 3*r.Intn(20)
			buf := make([]uint8, (rows-1)*stride+3*n+64)
			for i := range buf {
				buf[i] = uint8(40 + r.Intn(170))
			}
			pix := buf[:(rows-1)*stride+3*n]
			for _, s := range []uint8{0, 255} {
				for i := len(pix); i < len(buf); i++ {
					buf[i] = s
				}
				glo, ghi := lumaRange(pix, stride, rows, n, true)
				wlo, whi := lumaRange(pix, stride, rows, n, false)
				if glo != wlo || ghi != whi {
					t.Fatalf("lumaRange n=%d rows=%d stride=%d sentinel %d: (%d, %d), Go form (%d, %d)", n, rows, stride, s, glo, ghi, wlo, whi)
				}
			}
		}
	}
	for n := 1; n <= 200; n++ {
		buf := make([]uint8, 3*n+64)
		for i := range buf {
			buf[i] = uint8(r.Uint64())
		}
		row := buf[:3*n]
		px := row[3*r.Intn(n):]
		mx, mn := uint32(max(px[0], px[1], px[2])), uint32(min(px[0], px[1], px[2]))
		boxes := []ExtremaBox{
			{Lo: [3]uint32{256, 0, 0}},
			{Span: [3]uint32{255, 255, 255}},
			{Lo: [3]uint32{mx, mn, mx - mn}},
			{Lo: [3]uint32{mx + 1, 0, 0}, Span: [3]uint32{255, 255, 255}},
			{Lo: [3]uint32{0, mn + 1, 0}, Span: [3]uint32{255, 255, 255}},
			{Lo: [3]uint32{0, 0, 0}, Span: [3]uint32{255, 255, mx - mn - min(mx-mn, 1)}},
		}
		for k := 0; k < 6; k++ {
			var b ExtremaBox
			for i := range b.Lo {
				b.Lo[i] = uint32(r.Intn(256))
				b.Span[i] = uint32(r.Intn(256 - int(b.Lo[i])))
			}
			boxes = append(boxes, b)
		}
		for _, b := range boxes {
			for _, s := range []uint8{0, 255} {
				for i := len(row); i < len(buf); i++ {
					buf[i] = s
				}
				got, want := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
				for i := range got {
					got[i], want[i] = r.Uint64(), r.Uint64() // dirty, as a pooled mask arrives
				}
				b.Row(got, row)
				inGoForm(t, func() { b.Row(want, row) })
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ExtremaBox%+v.Row n=%d sentinel %d: word %d = %#x, Go form %#x", b, n, s, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// inGoForm runs f with the kernel tier forced to generic.
func inGoForm(tb testing.TB, f func()) {
	prev := tensor.KernelTier()
	if err := tensor.SetKernelTier(tensor.TierGeneric); err != nil {
		tb.Fatal(err)
	}
	defer tensor.SetKernelTier(prev)
	f()
}
