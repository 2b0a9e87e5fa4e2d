package parallel

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000, 4096} {
		var seen = make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForWithSingleWorkerIsSequential(t *testing.T) {
	order := make([]int, 0, 100)
	ForWith(1, 100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken at %d: got %d", i, v)
		}
	}
}

func TestForWithMoreWorkersThanItems(t *testing.T) {
	var count int64
	ForWith(64, 100, func(i int) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(i int) { called = true })
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestForRangeCoversDisjointly(t *testing.T) {
	for _, n := range []int{1, 64, 100, 1023} {
		var seen = make([]int32, n)
		ForRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// TestForWithHonoursWorkerCount: a caller that names two workers for two
// items gets them on two goroutines, however few the items are — each
// waits for the other, which an inline loop would never satisfy.
func TestForWithHonoursWorkerCount(t *testing.T) {
	arrived := make(chan int, 2)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		ForWith(2, 2, func(i int) {
			arrived <- i
			<-release
		})
		close(done)
	}()
	timeout := time.After(10 * time.Second)
	for n := 0; n < 2; n++ {
		select {
		case <-arrived:
		case <-timeout:
			close(release)
			t.Fatal("ForWith(2, 2, …) ran its items one after the other")
		}
	}
	close(release)
	<-done
}
