package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocularone/internal/tensor"
)

// rusage is the process's user and system CPU time so far.
func rusage() (user, system time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuTime is the process's user+system CPU time so far: it leaves out
// the cycles the hypervisor gave to other guests.
func cpuTime() time.Duration {
	user, system := rusage()
	return user + system
}

// userTime also leaves out what the kernel, and under it the host, spent
// on the process's page faults.
func userTime() time.Duration {
	user, _ := rusage()
	return user
}

// peakRSSMB is VmHWM from /proc/self/status, 0 where unreadable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) > 0 {
				kb, _ := strconv.ParseFloat(fs[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// jiffies reads the aggregate cpu line of /proc/stat: steal and total.
func jiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	for i, f := range fs {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			_, v, _ := strings.Cut(line, ":")
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment is the header every run records (a workload run adds the
// GOMAXPROCS it pinned); results from different kernel tiers or core
// counts are not comparable.
func environment() map[string]string {
	return map[string]string{
		"kernel_tier": tensor.KernelTier(),
		"go":          runtime.Version(),
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"cpu":         cpuModel(),
	}
}

func checkHost() error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs (engine_fp32_p2 pins GOMAXPROCS=2), have %d", runtime.NumCPU())
	}
	return nil
}
