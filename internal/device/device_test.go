package device

import (
	"math"
	"testing"

	"ocularone/internal/metrics"
	"ocularone/internal/models"
)

func TestRegistryMatchesTable3(t *testing.T) {
	agx := Registry(OrinAGX)
	if agx.CUDACores != 2048 || agx.TensorCores != 64 || agx.RAMGB != 32 ||
		agx.Jetpack != "6.1" || agx.PeakPowerW != 60 || agx.PriceUSD != 2370 {
		t.Fatalf("Orin AGX spec wrong: %+v", agx)
	}
	nx := Registry(XavierNX)
	if nx.CUDACores != 384 || nx.Arch != Volta || nx.RAMGB != 8 || nx.WeightG != 174 {
		t.Fatalf("Xavier NX spec wrong: %+v", nx)
	}
	nano := Registry(OrinNano)
	if nano.CUDACores != 1024 || nano.TensorCores != 32 || nano.Arch != Ampere || nano.PriceUSD != 630 {
		t.Fatalf("Orin Nano spec wrong: %+v", nano)
	}
	rtx := Registry(RTX4090)
	if rtx.CUDACores != 16384 || rtx.TensorCores != 512 || rtx.RAMGB != 24 {
		t.Fatalf("RTX 4090 spec wrong: %+v", rtx)
	}
	if !agx.IsEdge() || rtx.IsEdge() {
		t.Fatal("IsEdge wrong")
	}
}

func TestDeviceOrderingPerModel(t *testing.T) {
	// §4.2.3: fastest inference on o-agx, then o-nano, then nx, for every
	// model; the workstation beats them all.
	for _, m := range models.AllIDs {
		agx := PredictMS(m, OrinAGX, FP32, Interpreted)
		nano := PredictMS(m, OrinNano, FP32, Interpreted)
		nx := PredictMS(m, XavierNX, FP32, Interpreted)
		rtx := PredictMS(m, RTX4090, FP32, Interpreted)
		if !(agx < nano && nano < nx) {
			t.Errorf("%s: edge ordering broken: agx=%.1f nano=%.1f nx=%.1f", m, agx, nano, nx)
		}
		if rtx >= agx {
			t.Errorf("%s: workstation (%.1f) not faster than o-agx (%.1f)", m, rtx, agx)
		}
	}
}

func TestPaperLatencyEnvelopes(t *testing.T) {
	// §4.2.3: YOLO nano and medium ≤200 ms on Orin devices; x-large
	// ≤500 ms on o-agx; on nx only nano stays within 200 ms and x-large
	// reaches ≈989 ms.
	for _, m := range []models.ID{models.V8Nano, models.V8Medium, models.V11Nano, models.V11Medium} {
		for _, d := range []ID{OrinAGX, OrinNano} {
			if ms := PredictMS(m, d, FP32, Interpreted); ms > 200 {
				t.Errorf("%s on %s = %.1f ms, paper bound 200", m, d, ms)
			}
		}
	}
	for _, m := range []models.ID{models.V8XLarge, models.V11XLarge} {
		if ms := PredictMS(m, OrinAGX, FP32, Interpreted); ms > 500 {
			t.Errorf("%s on o-agx = %.1f ms, paper bound 500", m, ms)
		}
	}
	if ms := PredictMS(m8xID(), XavierNX, FP32, Interpreted); ms < 700 || ms > 1200 {
		t.Errorf("v8x on nx = %.1f ms, paper reports ≈989", ms)
	}
	if ms := PredictMS(models.V8Medium, XavierNX, FP32, Interpreted); ms <= 200 {
		t.Errorf("v8m on nx = %.1f ms, paper says only nano stays ≤200", ms)
	}
	// Bodypose median 28–47 ms, Monodepth2 75–232 ms across edge devices.
	for _, d := range EdgeIDs {
		bp := PredictMS(models.Bodypose, d, FP32, Interpreted)
		if bp < 20 || bp > 55 {
			t.Errorf("bodypose on %s = %.1f ms, paper range ≈28-47", d, bp)
		}
		md := PredictMS(models.Monodepth2, d, FP32, Interpreted)
		if md < 60 || md > 260 {
			t.Errorf("monodepth2 on %s = %.1f ms, paper range ≈75-232", d, md)
		}
	}
}

func m8xID() models.ID { return models.V8XLarge }

func TestWorkstationEnvelope(t *testing.T) {
	// §4.2.4: everything ≤25 ms on the RTX 4090; nano/medium YOLO plus
	// pose and depth within 10 ms; x-large under 20 ms; ≈50× faster than
	// nx for x-large.
	for _, m := range models.AllIDs {
		ms := PredictMS(m, RTX4090, FP32, Interpreted)
		if ms > 25 {
			t.Errorf("%s on rtx4090 = %.1f ms > 25", m, ms)
		}
	}
	for _, m := range []models.ID{models.V8Nano, models.V8Medium, models.V11Nano, models.V11Medium, models.Bodypose, models.Monodepth2} {
		if ms := PredictMS(m, RTX4090, FP32, Interpreted); ms > 10 {
			t.Errorf("%s on rtx4090 = %.1f ms > 10", m, ms)
		}
	}
	for _, m := range []models.ID{models.V8XLarge, models.V11XLarge} {
		if ms := PredictMS(m, RTX4090, FP32, Interpreted); ms > 20 {
			t.Errorf("%s on rtx4090 = %.1f ms > 20", m, ms)
		}
	}
	speedup := PredictMS(models.V8XLarge, XavierNX, FP32, Interpreted) / PredictMS(models.V8XLarge, RTX4090, FP32, Interpreted)
	if speedup < 35 || speedup > 75 {
		t.Errorf("x-large nx/rtx speedup = %.0f×, paper ≈50×", speedup)
	}
}

func TestModelSizeOrderingOnDevice(t *testing.T) {
	// Larger models are slower on every device.
	for _, d := range AllIDs {
		n := PredictMS(models.V8Nano, d, FP32, Interpreted)
		m := PredictMS(models.V8Medium, d, FP32, Interpreted)
		x := PredictMS(models.V8XLarge, d, FP32, Interpreted)
		if !(n < m && m < x) {
			t.Errorf("%s: size ordering broken: %f %f %f", d, n, m, x)
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	base := PredictMS(models.V8Medium, OrinAGX, FP32, Interpreted)
	samples := Sample(models.V8Medium, OrinAGX, FP32, Interpreted, 1000, 7)
	sum := metrics.SummarizeMS(samples)
	if math.Abs(sum.MedianMS-base)/base > 0.1 {
		t.Fatalf("sample median %.1f far from model %.1f", sum.MedianMS, base)
	}
	if sum.MaxMS <= sum.MedianMS*1.05 {
		t.Fatal("no straggler spread in samples")
	}
	// Determinism.
	again := Sample(models.V8Medium, OrinAGX, FP32, Interpreted, 1000, 7)
	for i := range samples {
		if samples[i] != again[i] {
			t.Fatal("Sample not deterministic")
		}
	}
}

func TestEnergyAndFPS(t *testing.T) {
	e := EnergyPerFrameJ(models.V8Nano, XavierNX, FP32, Interpreted)
	if e <= 0 || e > 15 {
		t.Fatalf("implausible energy %v J", e)
	}
	fps := FPS(models.V8Nano, OrinAGX, FP32, Interpreted)
	if fps < 5 || fps > 200 {
		t.Fatalf("implausible fps %v", fps)
	}
	// Heavier model, lower FPS.
	if FPS(models.V8XLarge, OrinAGX, FP32, Interpreted) >= fps {
		t.Fatal("x-large not slower than nano")
	}
}

func TestCanHost(t *testing.T) {
	// Every Table-2 model fits every Table-3 device (the paper ran them).
	for _, m := range models.AllIDs {
		for _, d := range AllIDs {
			if !CanHost(m, d) {
				t.Errorf("%s does not fit on %s", m, d)
			}
		}
	}
}

func TestExecutorFIFO(t *testing.T) {
	ex := NewExecutor(OrinAGX, 1)
	jobs := PeriodicJobs(models.V8Nano, 10, 100)
	cs := ex.Run(jobs)
	if len(cs) != 10 {
		t.Fatalf("completions %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].StartMS < cs[i-1].FinishMS-1e-9 {
			t.Fatal("overlapping service on single-stream executor")
		}
	}
	// At 10 FPS with ~28 ms service, no queueing: delays ≈ 0.
	for _, c := range cs {
		if d := c.StartMS - c.Job.ArrivalMS; d > 1 {
			t.Fatalf("unexpected queueing at low load: %v", d)
		}
	}
}

func TestExecutorQueueBuildsUnderOverload(t *testing.T) {
	// v8x on nx takes ~1s per frame; a 10 FPS feed must queue.
	ex := NewExecutor(XavierNX, 2)
	cs := ex.Run(PeriodicJobs(models.V8XLarge, 20, 100))
	last := cs[len(cs)-1]
	if d := last.StartMS - last.Job.ArrivalMS; d < 1000 {
		t.Fatalf("no queue build-up under overload: %v", d)
	}
	busy := 0.0
	for _, c := range cs {
		busy += c.ServiceMS
	}
	if u := busy / (last.FinishMS - cs[0].Job.ArrivalMS); u < 0.95 {
		t.Fatalf("overloaded executor utilisation %v", u)
	}
}

func TestDeviceStrings(t *testing.T) {
	if OrinAGX.String() != "o-agx" || XavierNX.String() != "nx" ||
		OrinNano.String() != "o-nano" || RTX4090.String() != "rtx4090" {
		t.Fatal("device names wrong")
	}
	if Volta.String() != "Volta" || Ampere.String() != "Ampere" {
		t.Fatal("arch names wrong")
	}
}

func TestPeakGFLOPS(t *testing.T) {
	agx := Registry(OrinAGX)
	want := 2048 * 1.30 * 2
	if math.Abs(agx.PeakGFLOPS()-want) > 1e-9 {
		t.Fatalf("peak = %v, want %v", agx.PeakGFLOPS(), want)
	}
	if agx.SustainedGFLOPS() >= agx.PeakGFLOPS() {
		t.Fatal("sustained not below peak")
	}
}

func TestThermalThrottlingUnderSustainedLoad(t *testing.T) {
	// Back-to-back jobs on a passively cooled Jetson drive the duty
	// cycle to 1 and inflate service times by up to ~18%.
	hot := NewExecutor(XavierNX, 3)
	cs := hot.Run(PeriodicJobs(models.V8Medium, 60, 1)) // saturating arrivals
	if hot.duty < 0.9 {
		t.Fatalf("duty %.2f after sustained load, want ≈1", hot.duty)
	}
	early := cs[0].ServiceMS
	late := cs[len(cs)-1].ServiceMS
	if late < early*1.05 {
		t.Fatalf("no throttling: first %.1f ms, last %.1f ms", early, late)
	}
	// Light duty: no meaningful throttle.
	cool := NewExecutor(XavierNX, 3)
	cool.Run(PeriodicJobs(models.V8Nano, 20, 2000)) // 2 s gaps
	if cool.duty > 0.2 {
		t.Fatalf("idle executor duty %.2f", cool.duty)
	}
}

func TestWorkstationDoesNotThrottle(t *testing.T) {
	ex := NewExecutor(RTX4090, 4)
	cs := ex.Run(PeriodicJobs(models.V8XLarge, 60, 1))
	if f := ex.throttleFactor(); f != 1 {
		t.Fatalf("workstation throttle factor %v", f)
	}
	// Service times stay within jitter of the model across the run.
	base := PredictMS(models.V8XLarge, RTX4090, FP32, Interpreted)
	for _, c := range cs {
		if c.ServiceMS > base*2 {
			t.Fatalf("workstation service %.1f vs base %.1f", c.ServiceMS, base)
		}
	}
}
