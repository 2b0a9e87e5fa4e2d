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

// FuzzMapBytes holds MapBytes, in each form, to the per-byte table
// loop for any table and runs of 0–300 bytes (whole 64-byte steps and
// every partial one), each run the start of a buffer whose trailing
// bytes are 0 or 255 sentinels: a step that read or wrote past the run
// would change them.
func FuzzMapBytes(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(2), uint16(1))
	f.Add(uint64(3), uint16(63))
	f.Add(uint64(4), uint16(64))
	f.Add(uint64(5), uint16(65))
	f.Add(uint64(6), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16) {
		r := rng.New(seed)
		n := int(n16) % 301
		var lut [256]uint8
		for v := range lut {
			lut[v] = uint8(r.Uint64())
		}
		src := make([]uint8, n)
		for i := range src {
			src[i] = uint8(r.Uint64())
		}
		want := make([]uint8, n)
		for i, v := range src {
			want[i] = lut[v]
		}
		for _, form := range []bool{false, true} {
			if form && !(VectorForm() && tensor.HasAVX512VBMI()) {
				continue
			}
			for _, s := range []uint8{0, 255} {
				buf := make([]uint8, n+64)
				copy(buf, src)
				for i := n; i < len(buf); i++ {
					buf[i] = s
				}
				if form {
					MapBytes(buf[:n], &lut)
				} else {
					inGoForm(t, func() { MapBytes(buf[:n], &lut) })
				}
				for i, v := range buf {
					w := s
					if i < n {
						w = want[i]
					}
					if v != w {
						t.Fatalf("vector form %v, seed %d, %d bytes, sentinel %d: byte %d = %d, want %d", form, seed, n, s, i, v, w)
					}
				}
			}
		}
	})
}
