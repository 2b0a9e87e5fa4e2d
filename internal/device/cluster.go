package device

// Cluster lazily materialises one Executor per device with a stable
// per-device seed derivation, so runs sharing a master seed see identical
// jitter streams regardless of the order executors are first touched.
// A Cluster is the unit of executor sharing: stages placed on the same
// device through the same cluster contend for one GPU stream, and a
// fleet of drone sessions pointed at one shared cluster contends for the
// workstation exactly as the paper's multi-client future work describes.
//
// Cluster is not safe for concurrent use; schedulers that parallelise
// work must serialise their executor access (see pipeline.Fleet, which
// runs its timing simulation single-threaded for determinism).
type Cluster struct {
	seed uint64
	ex   map[ID]*Executor
}

// NewCluster creates an empty executor pool seeded with the master seed.
func NewCluster(seed uint64) *Cluster {
	return &Cluster{seed: seed, ex: map[ID]*Executor{}}
}

// Executor returns the pool's executor for the device, creating it on
// first use with the per-device seed derivation seed+id+1 (the scheme
// the original pipeline used, kept for bit-compatible simulations).
func (c *Cluster) Executor(d ID) *Executor {
	if e, ok := c.ex[d]; ok {
		return e
	}
	e := NewExecutor(d, c.seed+uint64(d)+1)
	c.ex[d] = e
	return e
}
