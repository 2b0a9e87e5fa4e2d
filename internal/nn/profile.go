package nn

import (
	"fmt"
	"sort"
	"time"

	"ocularone/internal/tensor"
)

// PlanProfile is the per-op account of where Plan.Execute goes: one
// preallocated slot per compiled op, accumulated over every Execute that
// is handed the profile (ExecOpts.Profile). It observes and never
// routes: a profiled Execute runs the same steps as an unprofiled one,
// reads the clock around each, and allocates nothing.
type PlanProfile struct {
	plan  *Plan
	Steps []StepProfile
}

// StepProfile is one op's slot.
type StepProfile struct {
	Kind string // conv, add, copy, concat, maxpool, upsample, attention, detect
	Dims []int  // per-sample output shape (a conv's, [OutC oh ow])

	// For convs: the GEMM of one group (M×K weights against K×N columns a
	// sample), and of the last profiled call the driver it took — stripe,
	// narrow or folded (tensor.ConvRouteF32 / ConvRouteQ) — and the
	// precision it ran at, int8 or fp32: in an INT8 Execute the convs
	// that carry no quantized weights run fp32. WeightSize is the bytes a
	// weight of the operand that call streamed takes: 4 at fp32, at int8
	// the packed operand's own (tensor.PackedQ.WeightSize: the kernel
	// tier decides). Passes is how many times that call streamed the
	// weights: once a sample on the stripe and narrow routes, which run
	// the batch sample by sample, once for the whole batch folded.
	M, K, N    int
	Route      string
	Precision  string
	WeightSize int
	Passes     int

	Calls int64         // Execute calls that ran the op
	Wall  time.Duration // summed over those calls, all samples of the batch
	Floor time.Duration // the fastest of those calls: what the step costs undisturbed
}

// NewProfile returns an empty profile of the plan's ops, in execution
// order.
func (p *Plan) NewProfile() *PlanProfile {
	pp := &PlanProfile{plan: p, Steps: make([]StepProfile, len(p.ops))}
	for i, op := range p.ops {
		s := &pp.Steps[i]
		_, writes := op.operands()
		s.Dims = p.vals[writes[0]].dims
		switch op := op.(type) {
		case *convOp:
			groups := max(op.c.spec.Groups, 1)
			s.Kind = "conv"
			s.M = op.c.spec.OutC / groups
			s.K = op.c.spec.InC / groups * op.c.spec.KH * op.c.spec.KW
			s.N = op.oh * op.ow
		case *addOp:
			s.Kind = "add"
		case *copyOp:
			s.Kind = "copy"
		case *concatOp:
			s.Kind = "concat"
		case *maxPoolOp:
			s.Kind = "maxpool"
		case *upsampleOp:
			s.Kind = "upsample"
		case *attnCoreOp:
			s.Kind = "attention"
		case *detectOp:
			s.Kind = "detect"
		default:
			s.Kind = fmt.Sprintf("%T", op)
		}
	}
	return pp
}

// Floor is the sum of every step's fastest call — one Execute with no
// step disturbed, the estimator the repository benchmark uses on a host
// whose neighbours take cycles (benchmark/README.md).
func (pp *PlanProfile) Floor() time.Duration {
	var d time.Duration
	for i := range pp.Steps {
		d += pp.Steps[i].Floor
	}
	return d
}

// runProfiled is Execute's step loop with the clock read around each
// step.
func (inst *planInst) runProfiled(pp *PlanProfile, int8Mode bool, ip IntegrityPolicy) {
	if pp.plan != inst.p {
		panic("nn: ExecOpts.Profile belongs to another plan (use Plan.NewProfile)")
	}
	for oi, st := range inst.steps {
		t0 := time.Now()
		st(int8Mode)
		if ip.Guard != GuardOff {
			inst.guardStep(oi, int8Mode, ip)
		}
		s := &pp.Steps[oi]
		d := time.Since(t0)
		s.Wall += d
		if s.Calls == 0 || d < s.Floor {
			s.Floor = d
		}
		s.Calls++
		if op, ok := inst.p.ops[oi].(*convOp); ok {
			s.Route, s.Precision, s.WeightSize = op.route(inst.nb, int8Mode)
			s.Passes = inst.nb
			if s.Route == "folded" {
				s.Passes = 1
			}
		}
	}
}

// route names the driver the conv runs at batch width nb, the precision
// it runs at, and the bytes a weight of the operand it streams takes. It
// is read after the step ran: an int8 step has bound its packed weights.
func (op *convOp) route(nb int, int8Mode bool) (route, precision string, weightSize int) {
	if int8Mode && op.c.qw != nil {
		return tensor.ConvRouteQ(nb, op.oh*op.ow), "int8", op.qpk[0].WeightSize()
	}
	return tensor.ConvRouteF32(op.c.spec.OutC/max(op.c.spec.Groups, 1), op.oh*op.ow), "fp32", 4
}

// ProfileRow is the account of the steps that share a key.
type ProfileRow struct {
	Key         string
	Steps       int
	Floor, Wall time.Duration // summed over the steps
	Flops       float64       // useful conv flops of one sample: groups × 2·M·K·N a step
	// WeightBytes is what the row's convs hold in weights, groups × M·K
	// values a step at the step's WeightSize — four bytes at fp32, at int8
	// one on the quad tier and two where the pair tiers hold int16; against
	// Flops its arithmetic intensity.
	WeightBytes int64
	// StreamedBytes is what one Execute reads of them: each step's weights
	// times its Passes. Over Floor it is the row's memory bandwidth — a row
	// near the host's read bandwidth is weight-bound whatever its GFLOPS
	// say.
	StreamedBytes int64
}

// GroupBy sums the steps by key, the largest floor first (ties by key);
// steps whose key is empty are left out. It is how a profile is read by
// op kind, by conv route and precision, or by conv shape.
func (pp *PlanProfile) GroupBy(key func(*StepProfile) string) []ProfileRow {
	at := map[string]int{}
	var rows []ProfileRow
	for i := range pp.Steps {
		s := &pp.Steps[i]
		k := key(s)
		if k == "" {
			continue
		}
		ri, ok := at[k]
		if !ok {
			ri = len(rows)
			at[k] = ri
			rows = append(rows, ProfileRow{Key: k})
		}
		r := &rows[ri]
		r.Steps++
		r.Floor += s.Floor
		r.Wall += s.Wall
		if s.Kind == "conv" {
			groups := s.Dims[0] / s.M
			r.Flops += float64(groups) * 2 * float64(s.M*s.K*s.N)
			w := int64(groups * s.M * s.K * s.WeightSize)
			r.WeightBytes += w
			r.StreamedBytes += w * int64(s.Passes)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Floor != rows[j].Floor {
			return rows[i].Floor > rows[j].Floor
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}
