//go:build !amd64

package tensor

// archTiers reports no assembly tiers off amd64: the pure-Go generic
// tier (registered unconditionally by dispatch.go) is the only one.
func archTiers() []kernelTier { return nil }

// interleavePairs zips n bytes of a and b into dst (dst[2i] = a[i],
// dst[2i+1] = b[i]) — the portable form of the amd64 assembly routine.
func interleavePairs(dst, a, b *int8, n int) {
	ds, as, bs := sliceFrom(dst, 2*n), sliceFrom(a, n), sliceFrom(b, n)
	for i, v := range as {
		ds[2*i], ds[2*i+1] = v, bs[i]
	}
}

// interleaveQuads zips n bytes of a, b, c and d into dst (dst[4i+s] =
// the s-th source's byte i) — the portable form of the amd64 assembly
// routine.
func interleaveQuads(dst, a, b, c, d *int8, n int) {
	ds := sliceFrom(dst, 4*n)
	as, bs, cs, es := sliceFrom(a, n), sliceFrom(b, n), sliceFrom(c, n), sliceFrom(d, n)
	for i, v := range as {
		ds[4*i], ds[4*i+1], ds[4*i+2], ds[4*i+3] = v, bs[i], cs[i], es[i]
	}
}
