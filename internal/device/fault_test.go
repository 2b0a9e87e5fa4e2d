package device

import (
	"testing"

	"ocularone/internal/models"
)

// TestHoldUntil: a held executor starts later jobs no earlier than the
// hold, an in-past hold is a no-op, and admission delay reflects it.
func TestHoldUntil(t *testing.T) {
	e := NewExecutor(OrinNano, 1)
	e.HoldUntil(500)
	if got := e.BusyUntilMS(); got != 500 {
		t.Fatalf("BusyUntilMS = %v, want 500", got)
	}
	if got := e.AdmissionDelayMS(100); got != 400 {
		t.Fatalf("AdmissionDelayMS(100) = %v, want 400", got)
	}
	c := e.Run([]Job{{Model: models.V8Nano, ArrivalMS: 100}})[0]
	if c.StartMS != 500 {
		t.Fatalf("job started at %v behind a hold until 500", c.StartMS)
	}
	e.HoldUntil(10) // in the past: no-op
	if e.BusyUntilMS() < 500 {
		t.Fatalf("past hold rewound the stream to %v", e.BusyUntilMS())
	}
}

// TestThermalStress: external stress inflates service multiplicatively
// on every device class, clamps negatives, and zero stress replays the
// unstressed schedule bit for bit.
func TestThermalStress(t *testing.T) {
	for _, dev := range []ID{OrinNano, RTX4090} {
		base := NewExecutor(dev, 7)
		hot := NewExecutor(dev, 7)
		hot.SetThermalStress(0.5)
		cb := base.Run([]Job{{Model: models.V8Nano}})[0]
		ch := hot.Run([]Job{{Model: models.V8Nano}})[0]
		// Same seed, same jitter tuple: the ratio is exactly 1.5 up to
		// float rounding.
		ratio := ch.ServiceMS / cb.ServiceMS
		if ratio < 1.499 || ratio > 1.501 {
			t.Fatalf("%s: stressed/base service ratio %v, want 1.5", dev, ratio)
		}
	}
	e := NewExecutor(OrinNano, 3)
	e.SetThermalStress(-2)
	if e.ThermalStress() != 0 {
		t.Fatalf("negative stress not clamped: %v", e.ThermalStress())
	}
	a, b := NewExecutor(OrinNano, 9), NewExecutor(OrinNano, 9)
	b.SetThermalStress(0.3)
	b.SetThermalStress(0)
	ca, cb := a.Run([]Job{{Model: models.V8Nano}})[0], b.Run([]Job{{Model: models.V8Nano}})[0]
	if ca != cb {
		t.Fatalf("cleared stress did not restore bit-for-bit replay: %+v vs %+v", ca, cb)
	}
}
