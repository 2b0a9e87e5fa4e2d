package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic PRNG. Not safe for concurrent use; use Split to
// derive per-goroutine streams.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	// Avoid the all-zero fixed point and decorrelate trivially related
	// seeds with one SplitMix64 step.
	r := &RNG{state: seed + 0x9e3779b97f4a7c15}
	r.Uint64()
	return r
}

// Split derives an independent generator from the parent's seed state and
// a label. Splitting with the same label twice yields identical children;
// distinct labels yield decorrelated streams. The parent is not advanced,
// so splits commute with draws. A nil parent has nil children: a
// constructor tree handed a nil generator draws nothing (nn builds the
// architecture without filling its weights).
func (r *RNG) Split(label string) *RNG {
	if r == nil {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(r.state ^ h.Sum64() ^ 0xa5a5a5a55a5a5a5a)
}

// SplitN derives an independent generator from a label and an index, for
// per-item streams in loops. Nil in, nil out, as Split.
func (r *RNG) SplitN(label string, n int) *RNG {
	if r == nil {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(label))
	var buf [8]byte
	v := uint64(n)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return New(r.state ^ h.Sum64())
}

// Uint64 returns the next 64 uniformly distributed bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64's constants: the state advances by Gamma a draw, and Mix
// multiplies by MixMul1 and MixMul2.
const (
	Gamma   = 0x9e3779b97f4a7c15
	MixMul1 = 0xbf58476d1ce4e5b9
	MixMul2 = 0x94d049bb133111eb
)

// Mix is SplitMix64's output function: Uint64 returns Mix of the
// advanced state.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * MixMul1
	z = (z ^ (z >> 27)) * MixMul2
	return z ^ (z >> 31)
}

// Skip advances r past n draws and returns the state before them. The
// stream is counter-based, so draw i of the skipped run (0 <= i < n) is
// Mix(base + uint64(i+1)*Gamma): a caller can make the n draws in any
// order, or eight at a time.
func (r *RNG) Skip(n int) (base uint64) {
	base = r.state
	r.state += uint64(n) * Gamma
	return base
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here;
	// bias is < 2^-32 for the dataset-scale n values used in this repo.
	return int((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with mean 0 and stddev 1,
// via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	// Draw u1 in (0,1] to keep Log finite.
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormRange returns a normal draw with the given mean and stddev.
func (r *RNG) NormRange(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponentially distributed float64 with the given mean
// (the inter-arrival draw of a Poisson process). It panics if mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// 1 - Float64() is in (0, 1], keeping Log finite.
	return -mean * math.Log(1.0-r.Float64())
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes s in place (Fisher-Yates).
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Choose returns a uniformly selected element of s. It panics on empty s.
func Choose[T any](r *RNG, s []T) T {
	if len(s) == 0 {
		panic("rng: Choose from empty slice")
	}
	return s[r.Intn(len(s))]
}
