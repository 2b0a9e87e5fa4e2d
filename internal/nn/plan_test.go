package nn_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// planGoldenCase is one Table-2 model pinned by the golden parity
// suite. Inputs are reduced (the architectures are input-size
// agnostic) but every model of the paper's benchmark runs: both YOLO
// generations at all three scales plus the two ResNet-18 substrates.
type planGoldenCase struct {
	name  string
	build func() *nn.Network
	h, w  int
	batch int
}

func planGoldenCases() []planGoldenCase {
	return []planGoldenCase{
		{"yolov8n", func() *nn.Network { return models.BuildYOLOv8(models.Nano, 2, 11) }, 96, 96, 3},
		{"yolov8m", func() *nn.Network { return models.BuildYOLOv8(models.Medium, 2, 11) }, 64, 64, 2},
		{"yolov8x", func() *nn.Network { return models.BuildYOLOv8(models.XLarge, 2, 11) }, 64, 64, 2},
		{"yolov11n", func() *nn.Network { return models.BuildYOLOv11(models.Nano, 2, 12) }, 96, 96, 3},
		{"yolov11m", func() *nn.Network { return models.BuildYOLOv11(models.Medium, 2, 12) }, 64, 64, 2},
		{"yolov11x", func() *nn.Network { return models.BuildYOLOv11(models.XLarge, 2, 12) }, 64, 64, 2},
		{"bodypose", func() *nn.Network { return models.BuildTRTPose(13) }, 64, 64, 3},
		{"monodepth2", func() *nn.Network { return models.BuildMonodepth2(14) }, 64, 64, 3},
	}
}

func randFrames(seed uint64, n, c, h, w int) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		x := tensor.New(c, h, w)
		for j := range x.Data {
			x.Data[j] = r.Float32()
		}
		out[i] = x
	}
	return out
}

// TestPlanGoldenParity pins Plan.Execute bit-exact against the
// node-walking interpreter for every Table-2 model, at batch width 1
// (the direct GEMM path) and at the case's batch width (the staged
// batched path). This is the contract that lets the plan replace all
// four forward paths.
func TestPlanGoldenParity(t *testing.T) {
	for _, tc := range planGoldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build()
			xs := randFrames(99, tc.batch, 3, tc.h, tc.w)
			p := net.PlanFor(3, tc.h, tc.w)

			// Reference outputs from the retained interpreter, computed
			// first so the comparison cannot alias plan arena storage.
			want := make([][]*tensor.Tensor, tc.batch)
			for b, x := range xs {
				want[b] = net.ForwardInterp(x)
			}

			for b, x := range xs {
				got := p.Execute([]*tensor.Tensor{x}, nn.ExecOpts{})[0]
				if len(got) != len(want[b]) {
					t.Fatalf("sample %d: %d outputs, want %d", b, len(got), len(want[b]))
				}
				for oi := range got {
					if !got[oi].SameShape(want[b][oi]) {
						t.Fatalf("sample %d output %d: shape %v, want %v", b, oi, got[oi].Shape, want[b][oi].Shape)
					}
					if !got[oi].Equal(want[b][oi], 0) {
						t.Fatalf("sample %d output %d: planned forward diverges from interpreter", b, oi)
					}
				}
			}

			batched := p.Execute(xs, nn.ExecOpts{Batch: tc.batch})
			for b := range xs {
				for oi := range batched[b] {
					if !batched[b][oi].Equal(want[b][oi], 0) {
						t.Fatalf("sample %d output %d: batched plan diverges from interpreter", b, oi)
					}
				}
			}
		})
	}
}

// TestPlanQuantParity pins the plan's int8 path bit-exact against the
// interpreted quantized path (the fused requant epilogue performs the
// identical float32 op sequence), and bounds its drift from fp32 the
// way the original quantized engine was bounded.
func TestPlanQuantParity(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 17, 3, 96, 96)
	xs := randFrames(4, 2, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)

	wantQ := make([][]*tensor.Tensor, len(xs))
	wantF := make([][]*tensor.Tensor, len(xs))
	for b, x := range xs {
		wantQ[b] = net.ForwardQuantInterp(x)
		wantF[b] = net.ForwardInterp(x)
	}

	for b, x := range xs {
		got := p.Execute([]*tensor.Tensor{x}, nn.ExecOpts{Precision: nn.INT8})[0]
		for oi := range got {
			if !got[oi].Equal(wantQ[b][oi], 0) {
				t.Fatalf("sample %d output %d: planned int8 diverges from interpreted int8", b, oi)
			}
			// Drift versus fp32 stays bounded — the quantization error,
			// not a kernel bug (which produces O(1) errors).
			if !got[oi].Equal(wantF[b][oi], 0.25) {
				t.Fatalf("sample %d output %d: int8 drift from fp32 exceeds bound", b, oi)
			}
		}
	}

	batched := p.Execute(xs, nn.ExecOpts{Precision: nn.INT8})
	for b := range xs {
		for oi := range batched[b] {
			if !batched[b][oi].Equal(wantQ[b][oi], 0) {
				t.Fatalf("sample %d output %d: batched planned int8 diverges", b, oi)
			}
		}
	}
}

// TestPlanZeroAllocSteadyState is the acceptance gate of the arena
// executor: once an instance is bound (and the int8 scratch warmed),
// Execute performs zero heap allocations per frame at batch 1 and at
// batch 4, fp32 and int8, at any GOMAXPROCS (CI runs it at -cpu 1,2,4).
func TestPlanZeroAllocSteadyState(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 31, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	x1 := randFrames(5, 1, 3, 96, 96)
	x4 := randFrames(6, 4, 3, 96, 96)
	cases := []struct {
		name string
		run  func()
	}{
		{"batch1-fp32", func() { p.Execute(x1, nn.ExecOpts{}) }},
		{"batch4-fp32", func() { p.Execute(x4, nn.ExecOpts{}) }},
		{"batch1-int8", func() { p.Execute(x1, nn.ExecOpts{Precision: nn.INT8}) }},
		{"batch4-int8", func() { p.Execute(x4, nn.ExecOpts{Precision: nn.INT8}) }},
	}
	prof := p.NewProfile()
	cases = append(cases, struct {
		name string
		run  func()
	}{"batch4-int8-profiled", func() { p.Execute(x4, nn.ExecOpts{Precision: nn.INT8, Profile: prof}) }})
	for _, tc := range cases {
		tc.run() // bind instance / int8 scratch
		if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per steady-state Execute, want 0", tc.name, allocs)
		}
	}
}

// TestPlanProfile pins what a PlanProfile records: one slot per op, every
// slot's call count and wall time advancing with each profiled Execute
// and with none other, each conv's GEMM shape, the route its batch width
// and precision select and that precision itself (the unquantized convs
// of an INT8 run are fp32), the by-key tables adding up to the steps
// without mixing precisions, and outputs equal to an unprofiled run's.
func TestPlanProfile(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 31, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(6, 4, 3, 96, 96)
	opts := nn.ExecOpts{Precision: nn.INT8}
	var want [][]float32
	for _, o := range p.Execute(xs, opts)[3] {
		want = append(want, append([]float32(nil), o.Data...))
	}
	prof := p.NewProfile()
	if len(prof.Steps) != p.Ops() {
		t.Fatalf("%d profile slots for %d ops", len(prof.Steps), p.Ops())
	}
	opts.Profile = prof
	for run := 1; run <= 2; run++ {
		got := p.Execute(xs, opts)[3]
		for i, o := range got {
			if !tensor.FromSlice(want[i], len(want[i])).Equal(o.Reshape(len(o.Data)), 0) {
				t.Fatalf("profiled run %d: output %d differs from the unprofiled run", run, i)
			}
		}
		for i := range prof.Steps {
			if s := &prof.Steps[i]; s.Calls != int64(run) || s.Floor <= 0 || s.Wall < time.Duration(run)*s.Floor {
				t.Fatalf("after %d profiled runs step %d (%s) has %d calls, %v in all, fastest %v", run, i, s.Kind, s.Calls, s.Wall, s.Floor)
			}
		}
	}
	p.Execute(xs, nn.ExecOpts{Precision: nn.INT8}) // unprofiled: must not count
	routes, precisions := map[string]int{}, map[string]int{}
	for i := range prof.Steps {
		s := &prof.Steps[i]
		if s.Calls != 2 {
			t.Fatalf("step %d counted an unprofiled Execute", i)
		}
		if s.Kind != "conv" {
			if s.Route != "" || s.Precision != "" || s.M != 0 {
				t.Fatalf("step %d (%s) carries conv fields: %+v", i, s.Kind, *s)
			}
			continue
		}
		precisions[s.Precision]++
		switch { // folded is an int8 route, narrow an fp32 tile
		case s.Precision != "int8" && s.Precision != "fp32",
			s.Route == "folded" && s.Precision != "int8",
			s.Route == "narrow" && s.Precision != "fp32":
			t.Fatalf("conv step %d took route %q at precision %q", i, s.Route, s.Precision)
		}
		if s.M <= 0 || s.K <= 0 || s.N != s.Dims[1]*s.Dims[2] || s.Dims[0]%s.M != 0 {
			t.Fatalf("conv step %d: GEMM %dx%dx%d for output %v", i, s.M, s.K, s.N, s.Dims)
		}
		routes[s.Route]++
		if s.Route == "folded" && s.N > 36 {
			t.Fatalf("conv step %d folds a %d-pixel plane", i, s.N)
		}
	}
	// A quantized yolov8n at batch 4 runs folded small planes, striped
	// large ones and, where the tier has the narrow tile, its fp32
	// detect-head convs on it. There is no other route.
	if routes["stripe"] == 0 || routes["folded"] == 0 {
		t.Errorf("no conv took the stripe or the folded route: %v", routes)
	}
	for r := range routes {
		if r != "stripe" && r != "narrow" && r != "folded" {
			t.Errorf("a conv took route %q: %v", r, routes)
		}
	}
	// Its detect head keeps fp32 weights: both precisions are in the plan.
	if precisions["int8"] == 0 || precisions["fp32"] == 0 {
		t.Errorf("an INT8 yolov8n ran its convs at %v", precisions)
	}
	if prof.Floor() <= 0 {
		t.Error("profile floor is zero")
	}
	// By op kind every step is in one row; by route-and-precision and by
	// shape every conv is, and no row holds convs of two precisions.
	var steps int
	var floor time.Duration
	for _, r := range prof.GroupBy(func(s *nn.StepProfile) string { return s.Kind }) {
		steps, floor = steps+r.Steps, floor+r.Floor
		if (r.Flops > 0) != (r.Key == "conv") || (r.WeightBytes > 0) != (r.Key == "conv") {
			t.Errorf("op kind row %+v: flops and weight bytes are the convs'", r)
		}
	}
	if steps != len(prof.Steps) || floor != prof.Floor() {
		t.Errorf("by op kind: %d steps, floor %v; the profile has %d, %v", steps, floor, len(prof.Steps), prof.Floor())
	}
	convKey := func(format string) func(*nn.StepProfile) string {
		return func(s *nn.StepProfile) string {
			if s.Kind != "conv" {
				return ""
			}
			return fmt.Sprintf(format, s.M, s.K, s.N, s.Route, s.Precision)
		}
	}
	// A conv holds K weights for each of its output channels, four bytes
	// each at fp32 and at int8 what the tier's packed operand takes: one on
	// the quad tier, two where the pair tiers hold int16 — so the same plan
	// is profiled again under every tier (its int8 weights repack).
	orig := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		p.Execute(xs, opts)
		sizes := map[string]int{"fp32": 4, "int8": 2}
		if tier == tensor.TierAVX512VNNI {
			sizes["int8"] = 1
		}
		var weights int64
		for i := range prof.Steps {
			if s := &prof.Steps[i]; s.Kind == "conv" {
				weights += int64(s.Dims[0] * s.K * sizes[s.Precision])
			}
		}
		for _, format := range []string{"%[4]s %[5]s", "%[1]dx%[2]dx%[3]d %[4]s %[5]s"} {
			rows := prof.GroupBy(convKey(format))
			convs, rowWeights := 0, int64(0)
			for i, r := range rows {
				convs += r.Steps
				rowWeights += r.WeightBytes
				var m, k int
				if n, _ := fmt.Sscanf(r.Key, "%dx%dx", &m, &k); n == 2 {
					size := sizes[r.Key[strings.LastIndexByte(r.Key, ' ')+1:]]
					if per := int64(m * k * size); r.WeightBytes < per*int64(r.Steps) || r.WeightBytes%per != 0 {
						t.Errorf("%s: conv row %q: %d weight bytes over %d steps of %d a group", tier, r.Key, r.WeightBytes, r.Steps, per)
					}
				}
				if strings.HasSuffix(r.Key, "int8") == strings.HasSuffix(r.Key, "fp32") || r.Flops <= 0 || r.Floor <= 0 {
					t.Errorf("%s: conv row %+v", tier, r)
				}
				if i > 0 && r.Floor > rows[i-1].Floor {
					t.Errorf("%s: conv rows out of order at %d: %v after %v", tier, i, r.Floor, rows[i-1].Floor)
				}
			}
			if convs != precisions["int8"]+precisions["fp32"] || rowWeights != weights || weights <= 0 {
				t.Errorf("%s: rows by %q hold %d convs of %d, %d weight bytes of %d", tier, format, convs, precisions["int8"]+precisions["fp32"], rowWeights, weights)
			}
		}
	}
	byRoute := prof.GroupBy(convKey("%[4]s %[5]s"))
	if len(byRoute) < 3 {
		t.Errorf("by route and precision: %d rows, want the int8 stripe and folded rows and the fp32 head's: %+v", len(byRoute), byRoute)
	}
	// At batch 4 a per-sample route streams its weights four times an
	// Execute, the folded route once: GB/s is read from StreamedBytes.
	for i := range prof.Steps {
		if s := &prof.Steps[i]; s.Kind == "conv" && s.Passes != map[bool]int{true: 1, false: 4}[s.Route == "folded"] {
			t.Errorf("conv step %d on route %q: %d passes at batch 4", i, s.Route, s.Passes)
		}
	}
	seen := map[string]bool{}
	for _, r := range byRoute {
		want, kind := int64(4), r.Key
		if r.Key == "folded int8" {
			want = 1
		} else if strings.HasSuffix(r.Key, "fp32") {
			kind = "fp32"
		}
		seen[kind] = true
		if r.StreamedBytes != want*r.WeightBytes {
			t.Errorf("row %q streams %d bytes an Execute, want %d × its %d", r.Key, r.StreamedBytes, want, r.WeightBytes)
		}
	}
	if !seen["folded int8"] || !seen["stripe int8"] || !seen["fp32"] {
		t.Errorf("by route: want a folded int8, a stripe int8 and an fp32 row: %+v", byRoute)
	}

	other := models.BuildTRTPose(3).PlanFor(3, 64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Execute accepted another plan's profile")
		}
	}()
	other.Execute(randFrames(8, 1, 3, 64, 64), nn.ExecOpts{Profile: prof})
}

// TestPlanInt8SurvivesTierSwitch pins that a plan's cached int8 panels
// follow the kernel tier: executed at INT8, then again after
// tensor.SetKernelTier moved to a tier of the other k-group — up the
// tiers and back down — the same plan neither panics nor drifts: every
// output equals that of a plan compiled fresh under the tier in effect
// (not the first tier's: the net's unquantized convs are fp32, which the
// FMA tiers round differently).
func TestPlanInt8SurvivesTierSwitch(t *testing.T) {
	orig := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	net := models.BuildQuantized(models.V8Nano, 2, 31, 3, 64, 64)
	xs := randFrames(9, 2, 3, 64, 64)
	opts := nn.ExecOpts{Precision: nn.INT8}
	run := func(p *nn.Plan) (out [][]float32) {
		for _, sample := range p.Execute(xs, opts) {
			for _, o := range sample {
				out = append(out, append([]float32(nil), o.Data...))
			}
		}
		return out
	}
	tiers := tensor.KernelTiers()
	walk := append([]string(nil), tiers...)
	for i := len(tiers) - 2; i >= 0; i-- {
		walk = append(walk, tiers[i])
	}
	kept := nn.Compile(net, 3, 64, 64)
	for _, tier := range walk {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		got, fresh := run(kept), run(nn.Compile(net, 3, 64, 64))
		for i := range got {
			if !slices.Equal(got[i], fresh[i]) {
				t.Fatalf("under %s: output %d of the kept plan differs from a fresh plan's", tier, i)
			}
		}
	}
}

// TestPlanSlotReuse asserts lifetime analysis actually shares arena
// slots: a YOLO graph has far more intermediate values than
// concurrently-live activations.
func TestPlanSlotReuse(t *testing.T) {
	net := models.BuildYOLOv8(models.Nano, 2, 7)
	p := net.PlanFor(3, 96, 96)
	slots, _ := p.Slots()
	if ops := p.Ops(); slots >= ops {
		t.Fatalf("no slot reuse: %d slots for %d ops", slots, ops)
	}
	if slots > 40 {
		t.Fatalf("lifetime analysis kept %d slots live; expected well under 40 for yolov8n", slots)
	}
}

// TestPlanBatchOptMismatch pins the ExecOpts.Batch assertion.
func TestPlanBatchOptMismatch(t *testing.T) {
	net := models.BuildTRTPose(3)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(8, 2, 3, 64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Execute with mismatched ExecOpts.Batch did not panic")
		}
	}()
	p.Execute(xs, nn.ExecOpts{Batch: 3})
}

// TestPlanExecuteRejectsBadOpts: an ExecOpts value outside its domain
// panics, naming the value, where it used to run fp32 or be ignored; and
// Precision prints such a value as what it is.
func TestPlanExecuteRejectsBadOpts(t *testing.T) {
	p := models.BuildTRTPose(3).PlanFor(3, 64, 64)
	xs := randFrames(8, 2, 3, 64, 64)
	for _, c := range []struct {
		opts nn.ExecOpts
		want string
	}{
		{nn.ExecOpts{Precision: nn.Precision(2)}, "Precision(2)"},
		{nn.ExecOpts{Precision: -1}, "Precision(-1)"},
		{nn.ExecOpts{Batch: -1}, "opts.Batch -1"},
		{nn.ExecOpts{Batch: -2, Precision: nn.INT8}, "opts.Batch -2"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("Execute with %+v: panic %q, want one naming %q", c.opts, msg, c.want)
				}
			}()
			p.Execute(xs, c.opts)
		}()
	}
	for prec, want := range map[nn.Precision]string{nn.FP32: "fp32", nn.INT8: "int8", 2: "Precision(2)", -1: "Precision(-1)"} {
		if got := prec.String(); got != want {
			t.Errorf("Precision(%d).String() = %q, want %q", int(prec), got, want)
		}
	}
}

// TestPlanInstanceReuse asserts repeated Execute calls at one batch
// width reuse the same bound instance and arena (outputs alias the
// same storage run to run).
func TestPlanInstanceReuse(t *testing.T) {
	net := models.BuildMonodepth2(9)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(10, 1, 3, 64, 64)
	a := p.Execute(xs, nn.ExecOpts{})[0][0]
	b := p.Execute(xs, nn.ExecOpts{})[0][0]
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("plan rebound its instance between identical Execute calls")
	}
}

// TestPlansExecuteConcurrently is the concurrency contract the engine
// keeps now that no kernel fans out: goroutines that each own their
// network, plan and inputs may execute at the same time, sharing only
// the tensor scratch pools. Two of them — yolov8n (SiLU epilogues, the
// folded int8 batch route) and bodypose (ReLU epilogues, the stride-2
// pool's pooled phase rows, residual adds) — each sweep fp32 and int8 at
// batch 1 and 4 with ABFT on, first one after the other, then together;
// every output must match at tolerance 0, and -race must stay silent.
func TestPlansExecuteConcurrently(t *testing.T) {
	sweep := func(id models.ID) [][]float32 {
		net := models.BuildQuantized(id, 2, 41, 3, 96, 96)
		p := net.PlanFor(3, 96, 96)
		xs := randFrames(43, 4, 3, 96, 96)
		var flat [][]float32
		for _, prec := range []nn.Precision{nn.FP32, nn.INT8} {
			for _, nb := range []int{1, 4} {
				opts := nn.ExecOpts{Batch: nb, Precision: prec, Integrity: nn.IntegrityPolicy{ABFT: true}}
				for _, sample := range p.Execute(xs[:nb], opts) {
					for _, o := range sample {
						flat = append(flat, append([]float32(nil), o.Data...)) // outputs alias the arena
					}
				}
			}
		}
		if st := p.Integrity(); st.ABFTChecks == 0 || st.ABFTDetected != 0 {
			t.Errorf("%v: integrity stats %+v, want clean checked runs", id, st)
		}
		return flat
	}
	ids := []models.ID{models.V8Nano, models.Bodypose}
	want := make([][][]float32, len(ids))
	for i, id := range ids {
		want[i] = sweep(id)
	}
	got := make([][][]float32, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id models.ID) {
			defer wg.Done()
			got[i] = sweep(id)
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%v: %d outputs concurrently, %d alone", id, len(got[i]), len(want[i]))
		}
		for oi := range want[i] {
			if !slices.Equal(got[i][oi], want[i][oi]) {
				t.Fatalf("%v output %d: concurrent execution differs from the serial run", id, oi)
			}
		}
	}
}
