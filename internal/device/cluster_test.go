package device

import (
	"testing"

	"ocularone/internal/models"
)

func TestClusterSharesExecutorPerDevice(t *testing.T) {
	c := NewCluster(42)
	a := c.Executor(OrinAGX)
	b := c.Executor(OrinAGX)
	if a != b {
		t.Fatal("cluster returned distinct executors for one device")
	}
	if c.Executor(RTX4090) == a {
		t.Fatal("distinct devices share an executor")
	}
	if len(c.ex) != 2 {
		t.Fatalf("cluster holds %d executors, want 2", len(c.ex))
	}
}

func TestClusterSeedDerivationMatchesLegacy(t *testing.T) {
	// The cluster must reproduce the original pipeline's per-device
	// seeding (seed+id+1) so existing simulations stay bit-identical.
	c := NewCluster(7)
	got := c.Executor(XavierNX).Run([]Job{{Model: models.V8Nano, ArrivalMS: 0}})[0]
	want := NewExecutor(XavierNX, 7+uint64(XavierNX)+1).Run([]Job{{Model: models.V8Nano, ArrivalMS: 0}})[0]
	if got.ServiceMS != want.ServiceMS {
		t.Fatalf("service %f != legacy %f", got.ServiceMS, want.ServiceMS)
	}
	// Creation order must not affect the per-device stream.
	c2 := NewCluster(7)
	c2.Executor(RTX4090)
	got2 := c2.Executor(XavierNX).Run([]Job{{Model: models.V8Nano, ArrivalMS: 0}})[0]
	if got2.ServiceMS != want.ServiceMS {
		t.Fatalf("creation order changed jitter stream: %f != %f", got2.ServiceMS, want.ServiceMS)
	}
}
