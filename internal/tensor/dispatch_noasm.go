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
