package nn_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/tensor"
)

// fullIntegrity is the everything-on policy the clean-path tests use.
func fullIntegrity(events *[]nn.IntegrityEvent) nn.IntegrityPolicy {
	return nn.IntegrityPolicy{
		ABFT:  true,
		Guard: nn.GuardFull,
		OnEvent: func(e nn.IntegrityEvent) {
			if events != nil {
				*events = append(*events, e)
			}
		},
	}
}

// TestPlanIntegrityCleanParity pins the fault-free contract: with every
// detector live, Execute returns results bit-identical to the unchecked
// executor (the checked drivers replay the same kernel schedule), the
// ABFT checks actually ran, and nothing fired — the worst-case
// tolerance band means clean fp32 runs can never false-positive.
func TestPlanIntegrityCleanParity(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 23, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(77, 1, 3, 96, 96)

	for _, prec := range []nn.Precision{nn.FP32, nn.INT8} {
		want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{Precision: prec}))

		var events []nn.IntegrityEvent
		p.ResetIntegrity()
		got := p.Execute(xs, nn.ExecOpts{Precision: prec, Integrity: fullIntegrity(&events)})
		for oi := range got[0] {
			if !got[0][oi].Equal(want[0][oi], 0) {
				t.Fatalf("%v output %d: checked execution diverges from unchecked", prec, oi)
			}
		}
		st := p.Integrity()
		if st.ABFTChecks == 0 {
			t.Fatalf("%v: no ABFT checks ran on a conv-heavy model", prec)
		}
		if st.GuardScans == 0 {
			t.Fatalf("%v: no guard scans ran", prec)
		}
		if st.ABFTDetected != 0 || st.GuardHits != 0 || len(events) != 0 {
			t.Fatalf("%v: clean run raised detections: %+v (%d events)", prec, st, len(events))
		}
	}
}

// clonePlanOuts deep-copies Execute results out of the plan arena so a
// later Execute cannot overwrite the comparison baseline.
func clonePlanOuts(outs [][]*tensor.Tensor) [][]*tensor.Tensor {
	cp := make([][]*tensor.Tensor, len(outs))
	for s, row := range outs {
		cp[s] = make([]*tensor.Tensor, len(row))
		for i, o := range row {
			c := tensor.New(o.Shape...)
			copy(c.Data, o.Data)
			cp[s][i] = c
		}
	}
	return cp
}

// TestPlanABFTRecoveryF32 injects one SDC perturbation into a packed
// conv GEMM via the kernel fault hook and asserts the full loop: the
// checksum catches it, the op re-executes through the reference kernel,
// and the final outputs match a fault-free run — bit-identical on
// non-FMA tiers (reference ≡ packed there), drift-bounded on FMA tiers
// where the recovered conv's separate-rounding chains feed rounding-
// level differences into the downstream packed layers (measured
// ~6e-8 at these shapes; the 1e-4 gate still catches the O(1) errors
// a real recovery bug produces).
func TestPlanABFTRecoveryF32(t *testing.T) {
	defer func() { tensor.ABFTFaultF32 = nil }()
	net := models.BuildYOLOv8(models.Nano, 2, 41)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(88, 1, 3, 96, 96)

	want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{}))

	// One-shot: the reference re-execution must see clean math.
	fired := false
	tensor.ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
		if !fired {
			fired = true
			d[j0] += 1024
		}
	}
	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	got := p.Execute(xs, nn.ExecOpts{Integrity: fullIntegrity(&events)})

	if !fired {
		t.Fatal("fault hook never fired — checked path not taken")
	}
	st := p.Integrity()
	if st.ABFTDetected != 1 || st.Recovered != 1 {
		t.Fatalf("stats %+v, want exactly one detected+recovered ABFT event", st)
	}
	if len(events) != 1 || events[0].Kind != nn.KindABFT || !events[0].Recovered {
		t.Fatalf("events %+v, want one recovered ABFT event", events)
	}
	if events[0].Op == "" {
		t.Fatal("ABFT event did not name the faulted conv")
	}
	var tol float32
	if tensor.KernelTierFMA() {
		tol = 1e-4
	}
	for oi := range got[0] {
		if !got[0][oi].Equal(want[0][oi], tol) {
			t.Fatalf("output %d: recovered execution diverges from fault-free run", oi)
		}
	}
}

// TestPlanABFTRecoveryQ is the int8 twin: a flipped accumulator bit is
// caught by the exact integer checksum and the re-executed group
// matches the fault-free int8 run bit for bit.
func TestPlanABFTRecoveryQ(t *testing.T) {
	defer func() { tensor.ABFTFaultQ = nil }()
	net := models.BuildQuantized(models.V8Nano, 2, 29, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(89, 1, 3, 96, 96)

	want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{Precision: nn.INT8}))

	fired := false
	tensor.ABFTFaultQ = func(acc []int32, i0, j0 int) {
		if !fired {
			fired = true
			acc[0] ^= 1 << 17
		}
	}
	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	got := p.Execute(xs, nn.ExecOpts{Precision: nn.INT8, Integrity: fullIntegrity(&events)})

	if !fired {
		t.Fatal("int8 fault hook never fired — checked path not taken")
	}
	st := p.Integrity()
	if st.ABFTDetected != 1 || st.Recovered != 1 {
		t.Fatalf("stats %+v, want exactly one detected+recovered ABFT event", st)
	}
	for oi := range got[0] {
		if !got[0][oi].Equal(want[0][oi], 0) {
			t.Fatalf("output %d: recovered int8 execution diverges from fault-free run", oi)
		}
	}
}

// TestPlanABFTFoldedRecoveryQ is TestPlanABFTRecoveryQ at batch 4, with
// the flip placed in a conv that runs as one folded GEMM over the batch
// (the only int8 route whose consecutive tiles share an A panel): the
// checks still count one per sample and group — as many as the fp32
// plan's, which runs every packed conv sample by sample — one sample is
// flagged, only that sample re-executes, and the whole batch matches the
// fault-free run bit for bit.
func TestPlanABFTFoldedRecoveryQ(t *testing.T) {
	defer func() { tensor.ABFTFaultQ = nil }()
	net := models.BuildQuantized(models.V8Nano, 2, 29, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(94, 4, 3, 96, 96)
	opts := nn.ExecOpts{Precision: nn.INT8}

	want := clonePlanOuts(p.Execute(xs, opts))
	opts.Integrity = nn.IntegrityPolicy{ABFT: true}
	p.ResetIntegrity()
	p.Execute(xs, nn.ExecOpts{Integrity: opts.Integrity})
	perSample := p.Integrity().ABFTChecks

	fired := false
	prevI0, prevJ0 := -1, -1
	tensor.ABFTFaultQ = func(acc []int32, i0, j0 int) {
		if !fired && i0 == prevI0 && j0 > prevJ0 {
			fired = true
			acc[0] ^= 1 << 17
		}
		prevI0, prevJ0 = i0, j0
	}
	var events []nn.IntegrityEvent
	opts.Integrity.OnEvent = func(e nn.IntegrityEvent) { events = append(events, e) }
	p.ResetIntegrity()
	got := p.Execute(xs, opts)

	if !fired {
		t.Fatal("no conv of the batch-4 int8 plan took the folded route")
	}
	st := p.Integrity()
	if st.ABFTChecks != perSample {
		t.Fatalf("%d ABFT checks, want the fp32 plan's %d", st.ABFTChecks, perSample)
	}
	if st.ABFTDetected != 1 || st.Recovered != 1 || len(events) != 1 || !events[0].Recovered {
		t.Fatalf("stats %+v events %+v, want exactly one sample detected and recovered", st, events)
	}
	for b := range got {
		for oi := range got[b] {
			if !got[b][oi].Equal(want[b][oi], 0) {
				t.Fatalf("sample %d output %d: recovered batch diverges from fault-free run", b, oi)
			}
		}
	}
}

// convCheckWindow walks a plan's convs in execution order — each runs
// groups × samples ABFT checks — and returns the half-open window of the
// plan's ABFTChecks counter in which the first conv that pick selects
// runs, that conv's step (nil pick: none), and the checks of one whole
// Execute.
func convCheckWindow(p *nn.Plan, nb int, pick func(*nn.StepProfile) bool) (lo, hi, total uint64, step *nn.StepProfile) {
	prof := p.NewProfile()
	for i := range prof.Steps {
		s := &prof.Steps[i]
		if s.Kind != "conv" {
			continue
		}
		n := uint64(s.Dims[0] / s.M * nb)
		if step == nil && pick != nil && pick(s) {
			lo, hi, step = total, total+n, s
		}
		total += n
	}
	return lo, hi, total, step
}

// TestPlanABFTCoversEveryConv closes the hole the reference conv route
// left: a conv group too small for the old packed-GEMM threshold —
// monodepth2's one-channel disparity conv, a depthwise group of
// yolov11n's detect head — was counted as checked and never checksummed.
// A perturbation injected into exactly that conv through the kernel
// fault hook must be detected, recovered through the reference
// re-execution and reported as a KindABFT event naming the conv, in the
// fp32 plan and in the batch-4 int8 plan (where these two stay fp32), and
// the checks of an Execute must number groups × samples over all convs.
func TestPlanABFTCoversEveryConv(t *testing.T) {
	defer func() { tensor.ABFTFaultF32 = nil }()
	for _, tc := range []struct {
		name string
		id   models.ID
		pick func(*nn.StepProfile) bool
	}{
		{"monodepth2 disparity conv", models.Monodepth2, func(s *nn.StepProfile) bool { return s.Dims[0] == 1 }},
		{"yolov11n depthwise group", models.V11Nano, func(s *nn.StepProfile) bool { return s.M == 1 && s.K == 9 && s.Dims[0] > 1 }},
	} {
		net := models.BuildQuantized(tc.id, 2, 53, 3, 96, 96)
		p := net.PlanFor(3, 96, 96)
		for _, opts := range []nn.ExecOpts{{}, {Precision: nn.INT8, Batch: 4}} {
			nb := max(opts.Batch, 1)
			xs := randFrames(95, nb, 3, 96, 96)
			want := clonePlanOuts(p.Execute(xs, opts))
			lo, hi, total, step := convCheckWindow(p, nb, tc.pick)
			if step == nil {
				t.Fatalf("%s: no such conv in the plan", tc.name)
			}

			// One-shot: the re-execution must see clean math.
			fired := false
			tensor.ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
				if c := p.Integrity().ABFTChecks; lo < c && c <= hi && !fired {
					fired = true
					d[j0] += 1024
				}
			}
			var events []nn.IntegrityEvent
			opts.Integrity = nn.IntegrityPolicy{ABFT: true, OnEvent: func(e nn.IntegrityEvent) { events = append(events, e) }}
			p.ResetIntegrity()
			got := p.Execute(xs, opts)
			tensor.ABFTFaultF32 = nil

			if !fired {
				t.Fatalf("%s, %v: fault hook never fired — the conv is counted, not checksummed", tc.name, opts.Precision)
			}
			st := p.Integrity()
			if st.ABFTChecks != total {
				t.Fatalf("%s, %v: %d ABFT checks, want groups × samples = %d", tc.name, opts.Precision, st.ABFTChecks, total)
			}
			if st.ABFTDetected != 1 || st.Recovered != 1 || len(events) != 1 || events[0].Kind != nn.KindABFT || !events[0].Recovered {
				t.Fatalf("%s, %v: stats %+v events %+v, want one recovered ABFT event", tc.name, opts.Precision, st, events)
			}
			if !strings.HasSuffix(events[0].Op, fmt.Sprintf("_%d", step.Dims[0])) {
				t.Fatalf("%s, %v: event names %q, want the conv with %d output channels", tc.name, opts.Precision, events[0].Op, step.Dims[0])
			}
			// Downstream of an fp32 recovery: bit-equal where the reference
			// GEMM rounds as the packed one does, drift-bounded on FMA tiers
			// (TestPlanABFTRecoveryF32).
			var tol float32
			if tensor.KernelTierFMA() {
				tol = 1e-4
			}
			for b := range got {
				for oi := range got[b] {
					if !got[b][oi].Equal(want[b][oi], tol) {
						t.Fatalf("%s, %v: sample %d output %d: recovered execution diverges from the fault-free run", tc.name, opts.Precision, b, oi)
					}
				}
			}
		}
	}
}

// TestPlanABFTCleanAllModels runs every Table-2 model with ABFT on, fp32
// at batch 1 and int8 at batch 2, on the tier in effect (CI forces each):
// every conv group of every sample is checked, nothing is detected, and
// the outputs equal the unchecked run's bit for bit.
func TestPlanABFTCleanAllModels(t *testing.T) {
	for _, id := range models.AllIDs {
		net := models.BuildQuantized(id, 2, 59, 2, 64, 64)
		p := net.PlanFor(3, 64, 64)
		for _, opts := range []nn.ExecOpts{{}, {Precision: nn.INT8, Batch: 2}} {
			nb := max(opts.Batch, 1)
			xs := randFrames(96, nb, 3, 64, 64)
			want := clonePlanOuts(p.Execute(xs, opts))
			_, _, total, _ := convCheckWindow(p, nb, nil)
			opts.Integrity = nn.IntegrityPolicy{ABFT: true}
			p.ResetIntegrity()
			got := p.Execute(xs, opts)
			if st := p.Integrity(); st.ABFTChecks != total || st.ABFTDetected != 0 {
				t.Fatalf("%v %v: %d checks (want %d), %d detections on a clean run", id, opts.Precision, st.ABFTChecks, total, st.ABFTDetected)
			}
			for b := range got {
				for oi := range got[b] {
					if !got[b][oi].Equal(want[b][oi], 0) {
						t.Fatalf("%v %v: sample %d output %d: checked run differs from unchecked", id, opts.Precision, b, oi)
					}
				}
			}
		}
	}
}

// TestPlanGuardDetectsNaN feeds a NaN-poisoned frame through the plan
// with only the sentinels on. The guard must fire on the first op that
// consumes the poison, and — since re-executing on the same poisoned
// input reproduces the NaN — must honestly report the event as
// unrecovered (request-level retry territory, not compute-level).
func TestPlanGuardDetectsNaN(t *testing.T) {
	net := models.BuildYOLOv8(models.Nano, 2, 43)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(90, 1, 3, 96, 96)
	xs[0].Data[17] = float32(math.NaN())

	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	p.Execute(xs, nn.ExecOpts{Integrity: nn.IntegrityPolicy{
		Guard:   nn.GuardFull,
		OnEvent: func(e nn.IntegrityEvent) { events = append(events, e) },
	}})

	st := p.Integrity()
	if st.GuardHits == 0 || len(events) == 0 {
		t.Fatalf("guard missed NaN poisoning: stats %+v", st)
	}
	for _, e := range events {
		if e.Kind != nn.KindGuard {
			t.Fatalf("unexpected event kind %v with ABFT off", e.Kind)
		}
		if e.Recovered {
			t.Fatal("guard claimed recovery while the input itself is poisoned")
		}
	}
}

// TestPlanGuardMaxAbs pins the range sentinel: activations past MaxAbs
// are flagged even though they are finite.
func TestPlanGuardMaxAbs(t *testing.T) {
	net := models.BuildTRTPose(7)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(91, 1, 3, 64, 64)
	xs[0].Data[0] = 1e9 // finite, but far outside any plausible activation range

	p.ResetIntegrity()
	p.Execute(xs, nn.ExecOpts{Integrity: nn.IntegrityPolicy{Guard: nn.GuardFull, MaxAbs: 1e6}})
	if st := p.Integrity(); st.GuardHits == 0 {
		t.Fatalf("MaxAbs sentinel missed a 1e9 activation: stats %+v", st)
	}

	p.ResetIntegrity()
	p.Execute(randFrames(92, 1, 3, 64, 64), nn.ExecOpts{Integrity: nn.IntegrityPolicy{Guard: nn.GuardFull, MaxAbs: 1e6}})
	if st := p.Integrity(); st.GuardHits != 0 {
		t.Fatalf("MaxAbs sentinel false-positived on a clean frame: stats %+v", st)
	}
}

// TestPlanIntegrityZeroAlloc is the steady-state cost gate: with ABFT
// and sampled guards both live (and no faults), Execute still performs
// zero heap allocations per frame — only detections may allocate.
func TestPlanIntegrityZeroAlloc(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 37, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(93, 1, 3, 96, 96)
	pol := nn.IntegrityPolicy{ABFT: true, Guard: nn.GuardSampled}
	cases := []struct {
		name string
		run  func()
	}{
		{"fp32", func() { p.Execute(xs, nn.ExecOpts{Integrity: pol}) }},
		{"int8", func() { p.Execute(xs, nn.ExecOpts{Precision: nn.INT8, Integrity: pol}) }},
	}
	for _, tc := range cases {
		tc.run()
		if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per checked Execute, want 0", tc.name, allocs)
		}
	}
}
