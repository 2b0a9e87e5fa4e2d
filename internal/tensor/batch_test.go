package tensor

import (
	"testing"

	"ocularone/internal/rng"
)

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Float32()*2 - 1
	}
	return t
}

// TestPoolReuse asserts Get after Put reuses capacity and never returns
// a short buffer.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(100)
	if len(a.Data) != 100 {
		t.Fatalf("Get(100) len %d", len(a.Data))
	}
	p.Put(a)
	b := p.Get(100)
	if len(b.Data) != 100 || cap(b.Data) < 100 {
		t.Fatalf("recycled Get(100) len %d cap %d", len(b.Data), cap(b.Data))
	}
	// Smaller request from the same class reuses the buffer too.
	p.Put(b)
	c := p.Get(10, 7) // 70 elems, same 128-class
	if len(c.Data) != 70 {
		t.Fatalf("Get(10,7) len %d", len(c.Data))
	}
}
