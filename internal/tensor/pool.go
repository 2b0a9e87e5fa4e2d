package tensor

import (
	"sync"
	"unsafe"
)

// poolAlign is the alignment (bytes) of every pool-issued buffer: one
// cache line, so a 16-byte vector load from any packed-panel offset
// stays within a single line.
const poolAlign = 64

// rawPool is the generic core shared by Pool (float32), BytePool
// (int8), and the int16 weight-pack pool: power-of-two size-class
// binning with 64-byte-aligned starts. One implementation keeps the
// class and alignment rules from ever diverging between element
// types.
type rawPool[T any] struct {
	mu   sync.Mutex
	free map[uint][][]T
}

func newRawPool[T any]() rawPool[T] {
	return rawPool[T]{free: map[uint][][]T{}}
}

// alignSlice reslices s so element 0 sits on a poolAlign boundary,
// preserving as much capacity as possible (nil when the slice is too
// small to align). Zero-capacity slices pass through. Slice bases are
// naturally element-aligned, so the byte shift is always a whole
// number of elements.
func alignSlice[T any](s []T) []T {
	if cap(s) == 0 {
		return s
	}
	s = s[:cap(s)]
	var zero T
	elem := int(unsafe.Sizeof(zero))
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	rem := addr % poolAlign
	if rem == 0 {
		return s
	}
	off := (poolAlign - int(rem)) / elem
	if off >= len(s) {
		return nil // too small to ever align; drop it
	}
	return s[off:]
}

// alignedSlice allocates n elements starting on a poolAlign boundary,
// with capacity trimmed to exactly n so class binning sees exact
// sizes. The Go allocator only guarantees natural alignment, so it
// over-allocates by one cache line and shifts.
func alignedSlice[T any](n int) []T {
	var zero T
	raw := make([]T, n+poolAlign/int(unsafe.Sizeof(zero)))
	return alignSlice(raw)[:n:n]
}

// get returns an aligned slice of length n, recycled when possible.
// The data is NOT zeroed.
func (p *rawPool[T]) get(n int) []T {
	cls := classFor(n)
	p.mu.Lock()
	bufs := p.free[cls]
	var data []T
	if len(bufs) > 0 {
		data = bufs[len(bufs)-1]
		p.free[cls] = bufs[:len(bufs)-1]
	}
	p.mu.Unlock()
	if data == nil {
		data = alignedSlice[T](1 << cls)
	}
	return data[:n]
}

// putLocked re-aligns one slice and bins it by floor class. Callers
// hold p.mu (so variadic Puts pay one lock round-trip).
func (p *rawPool[T]) putLocked(b []T) {
	b = alignSlice(b)
	if cap(b) == 0 {
		return
	}
	// Floor class: the largest class this capacity fully covers.
	cls := floorClass(cap(b))
	p.free[cls] = append(p.free[cls], b[:0])
}

// put returns slices to the pool under a single lock acquisition.
func (p *rawPool[T]) put(bs ...[]T) {
	p.mu.Lock()
	for _, b := range bs {
		p.putLocked(b)
	}
	p.mu.Unlock()
}

// Pool recycles tensor backing slices across kernel invocations. Buffers
// are binned by power-of-two capacity class, so a Get for any volume up
// to a class's size can reuse any buffer previously Put into it. The
// pool is the allocation backbone of the batched inference path: im2col
// scratch, batched matmul outputs, and module intermediates all cycle
// through it, so steady-state inference allocates almost nothing.
//
// Alignment guarantee: every slice handed out by Get/GetRaw starts on a
// 64-byte boundary (one cache line). The packed-GEMM micro-kernels rely
// on this — panel loads use aligned 16-byte vector moves and never
// split a cache line. Put accepts arbitrary slices (including
// misaligned views); the pool re-aligns them on the way in, shrinking
// capacity by at most one cache line's worth of elements, so the
// invariant holds for every buffer it ever hands back out.
// TestPoolAlignment property-tests the guarantee.
//
// Tensors returned by Get carry *uninitialised* data — every kernel that
// draws scratch from a pool must overwrite the region it reads back.
// Put accepts any tensor (pool-born or not) but the caller must
// guarantee nothing else aliases its backing slice; views made with
// FromSlice or Reshape share storage with their parent, so putting a
// tensor with live views corrupts later Gets.
//
// Pool is safe for concurrent use.
type Pool struct {
	raw rawPool[float32]
}

// NewPool creates an empty buffer pool.
func NewPool() *Pool {
	return &Pool{raw: newRawPool[float32]()}
}

// Scratch is the package-level pool the tensor kernels and the nn
// batched forward path draw from. Callers may Put network outputs back
// into it once consumed to close the recycling loop.
var Scratch = NewPool()

// classFor returns the power-of-two class index that can satisfy n
// (ceil log2).
func classFor(n int) uint {
	c := uint(0)
	for s := 1; s < n; s <<= 1 {
		c++
	}
	return c
}

// SizeClass exposes the pool's power-of-two class index for a buffer of
// n elements (ceil log2). The plan executor's arena (internal/nn Plan)
// rounds its activation slots with the same math, so slot reuse and
// pool binning can never diverge.
func SizeClass(n int) uint { return classFor(n) }

// floorClass returns the largest class index a buffer of the given
// capacity fully covers (floor log2) — the Put-side counterpart of
// classFor, shared by every pool so the binning rules can never
// diverge.
func floorClass(capacity int) uint {
	c := uint(0)
	for s := 2; s <= capacity; s <<= 1 {
		c++
	}
	return c
}

// Get returns a tensor of the given shape backed by a recycled buffer
// when one is available, or a fresh allocation otherwise. The data is
// NOT zeroed — callers must fully overwrite it before reading. The
// backing slice is 64-byte aligned.
func (p *Pool) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: p.raw.get(n)}
}

// GetRaw returns a bare 64-byte-aligned []float32 of length n, recycled
// when possible — the header-free form the packed-GEMM drivers draw
// their panel scratch from (no Tensor allocation, so steady-state
// kernel dispatch stays at zero allocations). The data is NOT zeroed.
func (p *Pool) GetRaw(n int) []float32 {
	return p.raw.get(n)
}

// Put returns tensors' backing slices to the pool for reuse. Tensors
// whose capacity is below their power-of-two class are binned one class
// down so Get never hands out a short buffer. nil tensors are ignored.
// The caller must not touch a tensor (or any view of it) after Put.
func (p *Pool) Put(ts ...*Tensor) {
	p.raw.mu.Lock()
	for _, t := range ts {
		if t == nil {
			continue
		}
		p.raw.putLocked(t.Data)
	}
	p.raw.mu.Unlock()
}

// PutRaw returns bare slices to the pool, re-aligning misaligned ones
// so the Get-side alignment guarantee is unconditional. Zero-capacity
// slices are ignored; the caller must not touch a slice after PutRaw.
func (p *Pool) PutRaw(bs ...[]float32) {
	p.raw.put(bs...)
}
