package nn

import (
	"fmt"
	"math"

	"ocularone/internal/tensor"
)

// This file is the ahead-of-time half of the NN engine: Compile lowers
// a Network into a Plan — a topologically ordered list of primitive
// ops over virtual values — runs activation-lifetime analysis over the
// op list, and assigns every intermediate to a preallocated arena slot
// (size-classed with the same power-of-two math as tensor.Pool, so
// slots are shared between values whose lifetimes never overlap). A
// Plan binds one executable instance per batch width; executing an
// instance walks prebuilt step closures over prebound tensor headers,
// so the steady-state serving path performs zero heap allocations per
// frame. Every convolution has one lowering: per group, the packed
// implicit-im2col GEMM over weights packed at compile time, with the
// folded-BatchNorm affine (or conv bias) and the activation applied as
// an epilogue inside the GEMM / requant loop (tensor.ConvPackedInto /
// tensor.ConvPackedQBatchInto), which removes the interpreter's two
// extra full-tensor sweeps per conv. The materialised im2col +
// reference GEMM is not a route: it is what an ABFT-checked conv
// re-executes through after a checksum mismatch (integrity.go), and
// the oracle the tensor tests compare against.
//
// Parity contract: for fp32 the plan replays the interpreter's float32
// operations in the same order, so Plan.Execute is bit-exact against
// Network.ForwardInterp; the int8 path is drift-bounded exactly as the
// interpreted quantized path is (the fused requant epilogue performs
// the identical op sequence). The golden suite in plan_test.go pins
// both.

// Precision selects the kernel set one Execute call uses. The zero
// value is FP32.
type Precision int

// Execution precisions.
const (
	// FP32 replays the reference float32 kernels bit-for-bit.
	FP32 Precision = iota
	// INT8 routes every quantized conv through the int8 GEMM; everything
	// else (and every conv Quantize skipped) stays fp32.
	INT8
)

// String returns the short precision name, or Precision(n) for a value
// that is neither.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case INT8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ExecOpts parameterises one Plan.Execute call. The zero value runs
// fp32 at the batch width implied by the input slice.
type ExecOpts struct {
	// Batch, when positive, asserts the expected batch width (it must
	// equal len(xs)); schedulers that compile per batch size use it to
	// catch wiring bugs. 0 means "whatever len(xs) says". A negative
	// Batch is a programmer error: Execute panics.
	Batch int
	// Precision selects fp32 (zero value) or int8 kernels. Any other
	// value is a programmer error: Execute panics.
	Precision Precision
	// Integrity configures the silent-error detectors for this call
	// (integrity.go). The zero value disables them all, leaving Execute
	// bit-for-bit the pre-integrity executor.
	Integrity IntegrityPolicy
	// Profile, when non-nil, receives each step's wall time and route
	// (profile.go; obtain one from Plan.NewProfile). nil runs the plain
	// step loop.
	Profile *PlanProfile
}

// planVal is a virtual register: one logical activation flowing through
// the compiled op list. Value 0 is always the network input.
type planVal int

// valInfo is the compile-time metadata of one value.
type valInfo struct {
	dims []int   // per-sample tensor shape
	vol  int     // product of dims
	base planVal // slot owner: self unless this value is a view
	off  int     // element offset within base's per-sample region
}

// stepFn executes one bound op for the current frame/batch.
type stepFn func(int8Mode bool)

// planOp is one primitive operation of the compiled program.
type planOp interface {
	// operands lists the values the op reads and writes (in-place
	// mutators list the target in both) — the input of liveness analysis.
	operands() (reads, writes []planVal)
	// bind materialises the op for one instance, returning its step.
	bind(inst *planInst) stepFn
}

// Plan is a compiled network: ops in execution order, value metadata,
// arena slot assignment, and a cache of per-batch-width instances. A
// Plan is specific to one input shape; Network.PlanFor caches one per
// shape seen. Like Network, a Plan is not safe for concurrent Execute
// calls.
type Plan struct {
	net     *Network
	c, h, w int

	vals  []valInfo
	ops   []planOp
	outs  []planVal
	input planVal

	slotOf    []int  // per value: arena slot (-1 for input and views)
	slotClass []uint // per slot: pow2 class of the per-sample volume

	// Integrity-layer metadata (integrity.go): per op, the values it
	// writes (the guard scan targets) and whether any write aliases one
	// of its reads (in-place ops cannot be replayed in isolation).
	opWrites  [][]planVal
	opInPlace []bool
	integ     IntegrityStats

	insts map[int]*planInst
}

// Ops reports the length of the compiled op list (introspection for
// tests and tooling).
func (p *Plan) Ops() int { return len(p.ops) }

// Slots reports how many arena slots lifetime analysis assigned, and
// the arena footprint in floats per sample — the compile-time evidence
// that slot reuse is working (a plan with as many slots as values has
// no reuse at all).
func (p *Plan) Slots() (n int, floatsPerSample int) {
	for _, cls := range p.slotClass {
		floatsPerSample += 1 << cls
	}
	return len(p.slotClass), floatsPerSample
}

// planInst is one bound executable: arena slabs, prebound tensor
// headers for every (value, sample), and the step closures.
type planInst struct {
	p     *Plan
	nb    int
	slabs [][]float32
	ts    [][]*tensor.Tensor // [value][sample]
	steps []stepFn
	outs  [][]*tensor.Tensor // [sample][output index], aliasing arena slots

	abftBad []bool // per-sample verdicts of a checked int8 conv, bound lazily

	// ip is the calling Execute's integrity policy, published here so
	// the prebound step closures can consult it without re-binding (a
	// Plan is not concurrent-safe, so per-call mutation is safe).
	ip IntegrityPolicy
}

// planBuilder is the lowering context handed to Module.Lower.
type planBuilder struct {
	p *Plan
}

// val declares a new slot-owning value with the given per-sample shape.
func (b *planBuilder) val(dims ...int) planVal {
	vol := 1
	for _, d := range dims {
		vol *= d
	}
	v := planVal(len(b.p.vals))
	b.p.vals = append(b.p.vals, valInfo{dims: dims, vol: vol, base: v})
	return v
}

// view declares a window into parent's per-sample buffer at element
// offset off — the zero-copy channel splits of the CSP blocks. Views
// of the network input are not supported (no lowering needs them).
func (b *planBuilder) view(parent planVal, off int, dims ...int) planVal {
	pi := b.p.vals[parent]
	if pi.base == b.p.input {
		panic("nn: plan view of the network input")
	}
	vol := 1
	for _, d := range dims {
		vol *= d
	}
	if pi.off+off+vol > b.p.vals[pi.base].vol {
		panic(fmt.Sprintf("nn: plan view [%d,%d) exceeds base volume %d", pi.off+off, pi.off+off+vol, b.p.vals[pi.base].vol))
	}
	v := planVal(len(b.p.vals))
	b.p.vals = append(b.p.vals, valInfo{dims: dims, vol: vol, base: pi.base, off: pi.off + off})
	return v
}

// emit appends an op to the program.
func (b *planBuilder) emit(op planOp) { b.p.ops = append(b.p.ops, op) }

// chw returns a value's shape as CHW, panicking on non-rank-3 values.
func (b *planBuilder) chw(v planVal) (c, h, w int) {
	d := b.p.vals[v].dims
	if len(d) != 3 {
		panic(fmt.Sprintf("nn: plan value has shape %v, want CHW", d))
	}
	return d[0], d[1], d[2]
}

// Compile lowers a network for input shape [c, h, w]: every node's
// module emits primitive ops over virtual values, then lifetime
// analysis assigns arena slots. The compiled plan serves any batch
// width; instances are bound lazily per width on first Execute.
func Compile(n *Network, c, h, w int) *Plan {
	p := &Plan{net: n, c: c, h: h, w: w, insts: map[int]*planInst{}}
	b := &planBuilder{p: p}
	p.input = b.val(c, h, w)
	nodeVals := make([]planVal, len(n.Nodes))
	for i, node := range n.Nodes {
		ins := make([]planVal, len(node.From))
		for j, f := range node.From {
			fi := n.resolve(i, f)
			if fi == -1 {
				ins[j] = p.input
			} else if fi < -1 || fi >= i {
				panic(fmt.Sprintf("nn: node %d references invalid node %d", i, fi))
			} else {
				ins[j] = nodeVals[fi]
			}
		}
		nodeVals[i] = node.Module.Lower(b, ins)
	}
	outIdx := n.Outputs
	if len(outIdx) == 0 {
		outIdx = []int{len(n.Nodes) - 1}
	}
	p.outs = make([]planVal, len(outIdx))
	for i, oi := range outIdx {
		p.outs[i] = nodeVals[oi]
	}
	p.assignSlots()
	p.opWrites = make([][]planVal, len(p.ops))
	p.opInPlace = make([]bool, len(p.ops))
	for oi, op := range p.ops {
		reads, writes := op.operands()
		p.opWrites[oi] = writes
		for _, wv := range writes {
			wb := p.vals[wv].base
			for _, rv := range reads {
				if p.vals[rv].base == wb {
					p.opInPlace[oi] = true
				}
			}
		}
	}
	return p
}

// assignSlots runs liveness analysis over the op list and maps every
// slot-owning value to an arena slot with a greedy linear scan: a slot
// freed when its value's last consumer has run is reused by the next
// value of the same (or smaller) size class. Network outputs stay live
// forever; the input owns no slot (the caller provides its storage).
func (p *Plan) assignSlots() {
	nv := len(p.vals)
	def := make([]int, nv)
	last := make([]int, nv)
	for i := range def {
		def[i] = -1
		last[i] = -1
	}
	mark := func(v planVal, oi int, isDef bool) {
		bv := p.vals[v].base
		if isDef && def[bv] < 0 {
			def[bv] = oi
		}
		if oi > last[bv] {
			last[bv] = oi
		}
	}
	for oi, op := range p.ops {
		reads, writes := op.operands()
		for _, v := range writes {
			mark(v, oi, true)
		}
		for _, v := range reads {
			mark(v, oi, false)
		}
	}
	const forever = math.MaxInt
	for _, v := range p.outs {
		last[p.vals[v].base] = forever
	}

	p.slotOf = make([]int, nv)
	for i := range p.slotOf {
		p.slotOf[i] = -1
	}
	released := make([]bool, nv)
	free := map[uint][]int{}
	for oi, op := range p.ops {
		// Allocate this op's fresh definitions first, then release reads
		// that die here: an op's output can never share a slot with one of
		// its own inputs (grouped convs and views would alias otherwise).
		reads, writes := op.operands()
		for _, v := range writes {
			bv := p.vals[v].base
			if def[bv] != oi || p.slotOf[bv] >= 0 || bv == p.input {
				continue
			}
			cls := tensor.SizeClass(p.vals[bv].vol)
			if ids := free[cls]; len(ids) > 0 {
				p.slotOf[bv] = ids[len(ids)-1]
				free[cls] = ids[:len(ids)-1]
			} else {
				p.slotOf[bv] = len(p.slotClass)
				p.slotClass = append(p.slotClass, cls)
			}
		}
		// A released value keeps its slot id for binding — release only
		// returns the id to the free list so a later value may share it.
		for _, set := range [][]planVal{reads, writes} {
			for _, v := range set {
				bv := p.vals[v].base
				if last[bv] == oi && bv != p.input && p.slotOf[bv] >= 0 && !released[bv] {
					released[bv] = true
					free[p.slotClass[p.slotOf[bv]]] = append(free[p.slotClass[p.slotOf[bv]]], p.slotOf[bv])
				}
			}
		}
	}
}

// bindInstance materialises one executable for batch width nb.
func (p *Plan) bindInstance(nb int) *planInst {
	inst := &planInst{p: p, nb: nb}
	inst.slabs = make([][]float32, len(p.slotClass))
	for si, cls := range p.slotClass {
		inst.slabs[si] = make([]float32, (1<<cls)*nb)
	}
	inst.ts = make([][]*tensor.Tensor, len(p.vals))
	for vi := range p.vals {
		v := planVal(vi)
		info := p.vals[v]
		inst.ts[v] = make([]*tensor.Tensor, nb)
		if info.base == p.input {
			continue // input storage arrives with each Execute
		}
		slot := p.slotOf[info.base]
		if slot < 0 {
			// Every non-input base value is written by exactly one op, so
			// lifetime analysis always assigned it a slot; a miss here is a
			// compiler bug, and quietly giving the value private storage
			// would break the view-aliasing contract the channel splits
			// depend on.
			panic(fmt.Sprintf("nn: plan value %d has no arena slot", vi))
		}
		size := 1 << p.slotClass[slot]
		slab := inst.slabs[slot]
		for s := 0; s < nb; s++ {
			base := s*size + info.off
			inst.ts[v][s] = tensor.FromSlice(slab[base:base+info.vol], info.dims...)
		}
	}
	inst.steps = make([]stepFn, len(p.ops))
	for oi, op := range p.ops {
		inst.steps[oi] = op.bind(inst)
	}
	inst.outs = make([][]*tensor.Tensor, nb)
	for s := 0; s < nb; s++ {
		inst.outs[s] = make([]*tensor.Tensor, len(p.outs))
		for i, v := range p.outs {
			inst.outs[s][i] = inst.ts[v][s]
		}
	}
	return inst
}

// Execute runs the compiled program on a batch of inputs and returns
// each sample's output activations (result[s][i] is output i of sample
// s, matching what the interpreter returns). The returned tensors
// alias the plan's arena: they are valid until the next Execute on
// this plan and must not be handed to tensor.Scratch.Put — callers
// that need to keep or recycle outputs copy them first (the Network
// Forward* wrappers do exactly that). In steady state Execute performs
// zero heap allocations; the first call at a given batch width binds
// the instance (arena slabs, tensor headers, step closures). Inputs of
// another shape, an opts.Batch that is negative or not len(xs), and a
// Precision other than FP32 and INT8 are programmer errors: Execute
// panics, naming the value.
func (p *Plan) Execute(xs []*tensor.Tensor, opts ExecOpts) [][]*tensor.Tensor {
	if opts.Precision != FP32 && opts.Precision != INT8 {
		panic(fmt.Sprintf("nn: plan Execute at %v, want fp32 or int8", opts.Precision))
	}
	if opts.Batch < 0 {
		panic(fmt.Sprintf("nn: plan Execute with opts.Batch %d", opts.Batch))
	}
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	if opts.Batch > 0 && opts.Batch != nb {
		panic(fmt.Sprintf("nn: plan Execute with %d inputs, opts.Batch %d", nb, opts.Batch))
	}
	for _, x := range xs {
		if len(x.Shape) != 3 || x.Shape[0] != p.c || x.Shape[1] != p.h || x.Shape[2] != p.w {
			panic(fmt.Sprintf("nn: plan for [%d %d %d] executed on input %v", p.c, p.h, p.w, x.Shape))
		}
	}
	inst := p.insts[nb]
	if inst == nil {
		inst = p.bindInstance(nb)
		p.insts[nb] = inst
	}
	in := inst.ts[p.input]
	for s, x := range xs {
		in[s] = x
	}
	int8Mode := opts.Precision == INT8
	inst.ip = opts.Integrity
	if opts.Profile != nil {
		inst.runProfiled(opts.Profile, int8Mode, opts.Integrity)
	} else if opts.Integrity.Guard == GuardOff {
		for _, st := range inst.steps {
			st(int8Mode)
		}
	} else {
		for oi, st := range inst.steps {
			st(int8Mode)
			inst.guardStep(oi, int8Mode, opts.Integrity)
		}
	}
	// Drop the input references: a cached instance must not pin the
	// caller's frames beyond the call that supplied them.
	for s := range in {
		in[s] = nil
	}
	return inst.outs
}

// ---------------------------------------------------------------------
// Primitive ops
// ---------------------------------------------------------------------

// bnEpilogue folds a Conv's BatchNorm (or bias) and activation into a
// tensor.Epilogue, replicating BatchNormInference's float32 expressions
// exactly so the fused kernel stays bit-exact against the interpreter.
func epAct(a Act) tensor.EpAct {
	switch a {
	case ActSiLU:
		return tensor.EpActSiLU
	case ActReLU:
		return tensor.EpActReLU
	case ActSigmoid:
		return tensor.EpActSigmoid
	default:
		return tensor.EpActNone
	}
}

func bnEpilogue(c *Conv) tensor.Epilogue {
	ep := tensor.Epilogue{Act: epAct(c.act)}
	if c.useBias {
		ep.Shift = c.bias.Data
		return ep
	}
	outC := c.spec.OutC
	ep.Scale = make([]float32, outC)
	ep.Shift = make([]float32, outC)
	const eps = 1e-3
	for i := 0; i < outC; i++ {
		v := c.varnc[i] + eps
		var sq float32
		if v > 0 {
			sq = float32(math.Sqrt(float64(v)))
		}
		scale := c.gamma[i] / sq
		ep.Scale[i] = scale
		ep.Shift[i] = c.beta[i] - c.mean[i]*scale
	}
	return ep
}

// convOp is the fused convolution primitive: one packed implicit-im2col
// GEMM per group with the BN/bias + activation epilogue applied inside
// the kernel, int8 or fp32 per call. The kernel gathers receptive fields
// itself and writes the per-sample outputs directly — sample by sample,
// except that a batch of small int8 planes runs as one GEMM
// (tensor.ConvPackedQBatchInto).
type convOp struct {
	c       *Conv
	in, out planVal
	oh, ow  int
	ep      tensor.Epilogue
	wpk     []*tensor.PackedA // per-group packed weights, built at compile time

	// Lazy int8 state (weights may quantize after compilation).
	qws      []*tensor.QTensor // per-group int8 weight views (ABFT re-execution)
	qpk      []*tensor.PackedQ // per-group packed int8 weights
	qpkSrc   *tensor.QTensor   // the qw snapshot qws/qpk were built from
	qrs      []float32         // fused requant scales (wScale × inScale)
	qrsScale float32           // inScale the cached qrs was built for
}

func lowerConv(b *planBuilder, c *Conv, in planVal) planVal {
	ic, ih, iw := b.chw(in)
	if ic != c.spec.InC {
		panic(fmt.Sprintf("nn: plan lowering %s on %d input channels, want %d", c.Name(), ic, c.spec.InC))
	}
	oh, ow := c.spec.OutSize(ih, iw)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: plan lowering %s yields empty output for %dx%d", c.Name(), ih, iw))
	}
	out := b.val(c.spec.OutC, oh, ow)
	groups := max(c.spec.Groups, 1)
	ocg := c.spec.OutC / groups
	k := c.spec.InC / groups * c.spec.KH * c.spec.KW
	// Pack the weights once, here at compile time; the packed panels live
	// on the op for the plan's lifetime.
	op := &convOp{c: c, in: in, out: out, oh: oh, ow: ow, ep: bnEpilogue(c), wpk: make([]*tensor.PackedA, groups)}
	for g := range op.wpk {
		op.wpk[g] = tensor.PackWeights(tensor.FromSlice(c.weight.Data[g*ocg*k:(g+1)*ocg*k], ocg, k))
	}
	b.emit(op)
	return out
}

// Lower implements Module.
func (c *Conv) Lower(b *planBuilder, ins []planVal) planVal {
	return lowerConv(b, c, ins[0])
}

func (op *convOp) operands() ([]planVal, []planVal) {
	return []planVal{op.in}, []planVal{op.out}
}

// qBind lazily builds the per-group int8 weight state and the fused
// requantization scales. The weight views and packed panels depend
// only on the quantized weight tensor and on the kernel tier's int8
// layout, so they rebuild only when a re-Quantize swaps c.qw or a
// tensor.SetKernelTier leaves the cached panels packed for another
// k-group; the requant scales also track the calibrated input scale.
// One-time allocations outside the steady-state path.
func (op *convOp) qBind(groups, ocg, k int) {
	c := op.c
	packed := op.qpkSrc == c.qw && op.qpk[0].ForTier()
	if packed && op.qrsScale == c.inScale {
		return
	}
	if !packed {
		op.qws = make([]*tensor.QTensor, groups)
		op.qpk = make([]*tensor.PackedQ, groups)
		for g := 0; g < groups; g++ {
			wg := c.qw.Data[g*ocg*k : (g+1)*ocg*k]
			op.qws[g] = &tensor.QTensor{Shape: []int{ocg, k}, Data: wg}
			op.qpk[g] = tensor.PackWeightsQ(wg, ocg, k, c.spec.KH*c.spec.KW)
		}
		op.qpkSrc = c.qw
	}
	op.qrs = make([]float32, c.spec.OutC)
	for oc := range op.qrs {
		op.qrs[oc] = c.qw.ScaleFor(oc) * c.inScale
	}
	op.qrsScale = c.inScale
}

func (op *convOp) bind(inst *planInst) stepFn {
	c := op.c
	spec := c.spec
	groups := max(spec.Groups, 1)
	icg := spec.InC / groups
	ocg := spec.OutC / groups
	k := icg * spec.KH * spec.KW
	plane := op.oh * op.ow
	nb := inst.nb
	// Per-group, per-sample destination views for the kernels to write.
	ins := inst.ts[op.in]
	dsts := make([][]*tensor.Tensor, groups)
	for g := range dsts {
		dsts[g] = make([]*tensor.Tensor, nb)
		for s, out := range inst.ts[op.out] {
			dsts[g][s] = tensor.FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		}
	}
	oh, ow := op.oh, op.ow

	return func(int8Mode bool) {
		abft := inst.ip.ABFT
		if int8Mode && c.qw != nil {
			op.qBind(groups, ocg, k)
			inv := 1 / c.inScale
			for g := 0; g < groups; g++ {
				rs := op.qrs[g*ocg : (g+1)*ocg]
				if abft {
					op.checkedConvQ(inst, dsts[g], ins, g, icg, ocg, inv, rs)
				} else {
					tensor.ConvPackedQBatchInto(dsts[g], op.qpk[g], ins, spec, g*icg, oh, ow, inv, rs, op.ep, g*ocg, nil)
				}
			}
			return
		}
		for g := 0; g < groups; g++ {
			for s := 0; s < nb; s++ {
				if abft {
					op.checkedConvF32(inst, dsts[g][s], ins[s], g, icg, ocg)
				} else {
					tensor.ConvPackedInto(dsts[g][s], op.wpk[g], ins[s], spec, g*icg, oh, ow, op.ep, g*ocg)
				}
			}
		}
	}
}

// checkedConvF32 runs one packed fp32 conv group through the ABFT
// checked driver; on a checksum mismatch it re-executes the group via
// materialised im2col + the reference GEMM (bit-identical to the clean
// packed result by the parity contract). Recovery allocates scratch —
// only faulted frames pay for it.
func (op *convOp) checkedConvF32(inst *planInst, dst, x *tensor.Tensor, g, icg, ocg int) {
	c := op.c
	spec := c.spec
	inst.p.integ.ABFTChecks++
	if tensor.ConvPackedCheckInto(dst, op.wpk[g], x, spec, g*icg, op.oh, op.ow, op.ep, g*ocg) {
		return
	}
	k := icg * spec.KH * spec.KW
	plane := op.oh * op.ow
	cols := tensor.Scratch.Get(k, plane)
	tensor.Im2ColInto(x, cols, spec, g*icg, icg, op.oh, op.ow, 0, plane)
	w := tensor.FromSlice(c.weight.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
	tensor.MatMulRefEpilogueInto(dst, w, cols, op.ep, g*ocg)
	tensor.Scratch.Put(cols)
	inst.p.note(inst.ip, c.Name(), KindABFT, true)
}

// checkedConvQ is the int8 twin of checkedConvF32 over the whole batch
// (one check per sample); only the samples whose columns mismatched are
// re-executed, replaying the quantizing im2col and the int8 reference
// GEMM over the cached weight views qBind built.
func (op *convOp) checkedConvQ(inst *planInst, dsts, xs []*tensor.Tensor, g, icg, ocg int, inv float32, rowScale []float32) {
	c := op.c
	spec := c.spec
	inst.p.integ.ABFTChecks += uint64(len(xs))
	if inst.abftBad == nil {
		inst.abftBad = make([]bool, inst.nb)
	}
	if tensor.ConvPackedQBatchInto(dsts, op.qpk[g], xs, spec, g*icg, op.oh, op.ow, inv, rowScale, op.ep, g*ocg, inst.abftBad) {
		return
	}
	k := icg * spec.KH * spec.KW
	plane := op.oh * op.ow
	colsQ := &tensor.QTensor{Shape: []int{k, plane}, Data: make([]int8, k*plane)}
	for s, bad := range inst.abftBad {
		if !bad {
			continue
		}
		tensor.Im2ColQInto(xs[s], colsQ.Data, inv, spec, g*icg, icg, op.oh, op.ow, 0, plane)
		tensor.MatMulInt8RefEpilogueInto(dsts[s], op.qws[g], colsQ, rowScale, op.ep, g*ocg)
		inst.p.note(inst.ip, c.Name(), KindABFT, true)
	}
}

// addOp accumulates src into dst in place, optionally applying ReLU
// afterwards (the BasicBlock residual tail).
type addOp struct {
	dst, src planVal
	relu     bool
}

func (op *addOp) operands() ([]planVal, []planVal) {
	return []planVal{op.dst, op.src}, []planVal{op.dst}
}

func (op *addOp) bind(inst *planInst) stepFn {
	ds := inst.ts[op.dst]
	ss := inst.ts[op.src]
	relu := op.relu
	return func(bool) {
		for s := range ds {
			ds[s].Add(ss[s])
			if relu {
				ds[s].ReLU()
			}
		}
	}
}

// copyOp clones src into dst (the PSABlock residual snapshot).
type copyOp struct {
	dst, src planVal
}

func (op *copyOp) operands() ([]planVal, []planVal) {
	return []planVal{op.src}, []planVal{op.dst}
}

func (op *copyOp) bind(inst *planInst) stepFn {
	ds := inst.ts[op.dst]
	ss := inst.ts[op.src]
	return func(bool) {
		for s := range ds {
			copy(ds[s].Data, ss[s].Data)
		}
	}
}

// concatOp concatenates srcs along the channel axis into dst.
type concatOp struct {
	dst  planVal
	srcs []planVal
}

func (op *concatOp) operands() ([]planVal, []planVal) {
	return op.srcs, []planVal{op.dst}
}

func (op *concatOp) bind(inst *planInst) stepFn {
	ds := inst.ts[op.dst]
	srcs := make([][]*tensor.Tensor, len(op.srcs))
	for i, v := range op.srcs {
		srcs[i] = inst.ts[v]
	}
	args := make([][]*tensor.Tensor, len(ds)) // per-sample input lists
	for s := range args {
		args[s] = make([]*tensor.Tensor, len(srcs))
	}
	return func(bool) {
		for s := range ds {
			for i := range srcs {
				args[s][i] = srcs[i][s]
			}
			tensor.ConcatChannelsInto(ds[s], args[s]...)
		}
	}
}

// maxPoolOp applies k×k max pooling into dst.
type maxPoolOp struct {
	dst, src       planVal
	k, stride, pad int
}

// lowerMaxPool emits the pool of src; tensor.PoolOutSize rejects, at
// compile time, a geometry with windows that see no input.
func lowerMaxPool(b *planBuilder, src planVal, k, stride, pad int) planVal {
	c, h, w := b.chw(src)
	oh, ow := tensor.PoolOutSize(h, w, k, stride, pad)
	dst := b.val(c, oh, ow)
	b.emit(&maxPoolOp{dst: dst, src: src, k: k, stride: stride, pad: pad})
	return dst
}

func (op *maxPoolOp) operands() ([]planVal, []planVal) {
	return []planVal{op.src}, []planVal{op.dst}
}

func (op *maxPoolOp) bind(inst *planInst) stepFn {
	ds := inst.ts[op.dst]
	ss := inst.ts[op.src]
	k, stride, pad := op.k, op.stride, op.pad
	return func(bool) {
		for s := range ds {
			tensor.MaxPool2DInto(ds[s], ss[s], k, stride, pad)
		}
	}
}

// upsampleOp doubles spatial resolution into dst.
type upsampleOp struct {
	dst, src planVal
}

func (op *upsampleOp) operands() ([]planVal, []planVal) {
	return []planVal{op.src}, []planVal{op.dst}
}

func (op *upsampleOp) bind(inst *planInst) stepFn {
	ds := inst.ts[op.dst]
	ss := inst.ts[op.src]
	return func(bool) {
		for s := range ds {
			tensor.UpsampleNearest2xInto(ds[s], ss[s])
		}
	}
}

// attnCoreOp is the per-head attention math of the Attention module:
// qkv is the fused projection's output, out receives the concatenated
// head outputs, and vAll the reassembled value planes feeding the
// positional-encoding conv. All head views and matmul scratch are
// prebound at bind time.
type attnCoreOp struct {
	a              *Attention
	qkv, out, vAll planVal
	n              int // spatial positions (H*W)
}

func (op *attnCoreOp) operands() ([]planVal, []planVal) {
	return []planVal{op.qkv}, []planVal{op.out, op.vAll}
}

func (op *attnCoreOp) bind(inst *planInst) stepFn {
	a := op.a
	n := op.n
	kd, hd := a.keyDim, a.headDim
	perHead := 2*kd + hd
	nb := inst.nb
	// Per-sample, per-head q/k/v views into the qkv activation.
	type headViews struct{ q, k, v *tensor.Tensor }
	views := make([][]headViews, nb)
	for s := 0; s < nb; s++ {
		qkv := inst.ts[op.qkv][s]
		views[s] = make([]headViews, a.numHeads)
		for head := 0; head < a.numHeads; head++ {
			base := head * perHead * n
			views[s][head] = headViews{
				q: tensor.FromSlice(qkv.Data[base:base+kd*n], kd, n),
				k: tensor.FromSlice(qkv.Data[base+kd*n:base+2*kd*n], kd, n),
				v: tensor.FromSlice(qkv.Data[base+2*kd*n:base+perHead*n], hd, n),
			}
		}
	}
	qT := tensor.New(n, kd)
	attn := tensor.New(n, n)
	attnT := tensor.New(n, n)
	oh := tensor.New(hd, n)
	outs := inst.ts[op.out]
	vAlls := inst.ts[op.vAll]
	qkvs := inst.ts[op.qkv]
	scale := a.scale
	return func(bool) {
		for s := 0; s < nb; s++ {
			out := outs[s]
			for head := 0; head < a.numHeads; head++ {
				hv := views[s][head]
				tensor.TransposeInto(qT, hv.q)
				tensor.MatMulInto(attn, qT, hv.k)
				attn.Scale(scale)
				attn.Softmax()
				tensor.TransposeInto(attnT, attn)
				tensor.MatMulInto(oh, hv.v, attnT)
				copy(out.Data[head*hd*n:(head+1)*hd*n], oh.Data)
			}
			vAll := vAlls[s]
			qkv := qkvs[s]
			for head := 0; head < a.numHeads; head++ {
				base := head*perHead*n + 2*kd*n
				copy(vAll.Data[head*hd*n:(head+1)*hd*n], qkv.Data[base:base+hd*n])
			}
		}
	}
}

// detectOp assembles the detect head's per-level box/cls maps into the
// flattened [4*RegMax+nc, Σanchors] prediction tensor, matching the
// interpreter's copy pattern byte for byte.
type detectOp struct {
	d      *Detect
	boxes  []planVal // per level, [4*RegMax, H, W]
	clss   []planVal // per level, [nc, H, W]
	out    planVal
	planes []int
	total  int
}

func (op *detectOp) operands() ([]planVal, []planVal) {
	reads := make([]planVal, 0, len(op.boxes)+len(op.clss))
	reads = append(reads, op.boxes...)
	reads = append(reads, op.clss...)
	return reads, []planVal{op.out}
}

func (op *detectOp) bind(inst *planInst) stepFn {
	nc := op.d.nc
	total := op.total
	planes := op.planes
	boxes := make([][]*tensor.Tensor, len(op.boxes))
	clss := make([][]*tensor.Tensor, len(op.clss))
	for i := range op.boxes {
		boxes[i] = inst.ts[op.boxes[i]]
		clss[i] = inst.ts[op.clss[i]]
	}
	outs := inst.ts[op.out]
	return func(bool) {
		for s := range outs {
			out := outs[s]
			off := 0
			for li := range boxes {
				n := planes[li]
				box := boxes[li][s]
				cls := clss[li][s]
				for r := 0; r < 4*RegMax; r++ {
					copy(out.Data[r*total+off:r*total+off+n], box.Data[r*n:(r+1)*n])
				}
				for r := 0; r < nc; r++ {
					copy(out.Data[(4*RegMax+r)*total+off:(4*RegMax+r)*total+off+n], cls.Data[r*n:(r+1)*n])
				}
				off += n
			}
		}
	}
}
