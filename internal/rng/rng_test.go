package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split("scenes")
	c2 := r.Split("scenes")
	c3 := r.Split("videos")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("same-label splits are not identical")
	}
	// Splitting must not advance the parent.
	p1 := New(7)
	p1.Split("anything")
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
	if c1.Uint64() == c3.Uint64() {
		t.Fatal("distinct-label splits correlated (first draw equal)")
	}
}

func TestSplitNDistinct(t *testing.T) {
	r := New(3)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := r.SplitN("item", i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN stream %d collides", i)
		}
		seen[v] = true
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	Shuffle(r, s)
	sum2 := 0
	for _, v := range s {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatalf("Shuffle changed multiset: %v", s)
	}
}

func TestChoose(t *testing.T) {
	r := New(29)
	s := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[Choose(r, s)]++
	}
	for _, k := range s {
		if counts[k] < 700 {
			t.Fatalf("Choose heavily skewed: %v", counts)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) rate = %v", frac)
	}
}

// Property: Intn is always within bounds for arbitrary seeds and sizes.
func TestQuickIntnInBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed ⇒ identical Perm output (full determinism).
func TestQuickPermDeterministic(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p1 := New(seed).Perm(n)
		p2 := New(seed).Perm(n)
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A nil generator splits into nil generators: the architecture-only
// model builds pass one down a whole constructor tree.
func TestSplitNilIsNil(t *testing.T) {
	var r *RNG
	if r.Split("a") != nil || r.SplitN("b", 3) != nil {
		t.Fatal("nil RNG split into a live generator")
	}
}

// TestSkipMatchesUint64 holds the counter form to the stream: after
// Skip(n), Mix(base + (i+1)·Gamma) is the i-th of n Uint64 calls, and
// both generators end in the same state.
func TestSkipMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<64 - 1} {
		for _, n := range []int{0, 1, 7, 8, 64, 333} {
			a, b := New(seed), New(seed)
			b.Uint64() // start both mid-stream
			a.Uint64()
			base := a.Skip(n)
			for i := 0; i < n; i++ {
				if got, want := Mix(base+uint64(i+1)*Gamma), b.Uint64(); got != want {
					t.Fatalf("seed %d, Skip(%d): draw %d = %#x, Uint64 gives %#x", seed, n, i, got, want)
				}
			}
			if a.state != b.state {
				t.Fatalf("seed %d, Skip(%d): state %#x, after %d Uint64 calls %#x", seed, n, a.state, n, b.state)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d, Skip(%d): the next draws differ", seed, n)
			}
		}
	}
}
