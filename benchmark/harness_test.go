package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"ocularone/internal/pipeline"
)

func seq(lo, hi int) []float64 {
	var v []float64
	for i := lo; i <= hi; i++ {
		v = append(v, float64(i))
	}
	return v
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantV    float64
		wantPct  float64
		describe string
	}{
		{100, 90, 90, "100 samples: p90, ten above it"},
		{1000, 990, 99, "1000 samples: p99"},
		{20, 10, 50, "20 samples: exactly the median position"},
		{19, 10, 50, "under 20 samples: the median, called p50"},
		{5, 3, 50, "tiny sample"},
	} {
		v, pct := tail(seq(1, tc.n))
		if v != tc.wantV || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("%s: tail = %v at p%v, want %v at p%v", tc.describe, v, pct, tc.wantV, tc.wantPct)
		}
	}
}

func TestPooledMedianAndSegmentSpread(t *testing.T) {
	// The median is taken over the ops pooled across the segments: one
	// slow segment must not drag it the way a mean of segment medians
	// would.
	segs := [][]float64{{10, 10, 10}, {10, 10}, {10, 10, 10}, {50, 50}, {}}
	var pooled []float64
	for _, s := range segs {
		pooled = append(pooled, s...)
	}
	if got := median(pooled); got != 10 {
		t.Errorf("pooled median = %v, want 10", got)
	}
	if got := segmentSpread(segs); got != 5 {
		t.Errorf("segmentSpread = %v, want 5 (empty segment ignored)", got)
	}
	if got := segmentSpread([][]float64{{}, {}}); got != 1 {
		t.Errorf("segmentSpread of nothing = %v, want 1", got)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: spOp, parent: -1, start: 0, end: 100},
		{name: spDetect, parent: 0, start: 10, end: 40}, // two sessions overlap 30..40
		{name: spDetect, parent: 0, start: 30, end: 60},
		{name: spPose, parent: 0, start: 80, end: 120},   // clipped to the parent at 100
		{name: spDepth, parent: 2, start: 35, end: 45},   // grandchild: not the op's child
		{name: spExtract, parent: 0, start: 60, end: 60}, // empty
	}
	self := selfTimes(spans)
	if self[0] != 100-(50+20) {
		t.Errorf("op self = %d, want 30", self[0])
	}
	if self[2] != 30-10 {
		t.Errorf("child self = %d, want 20", self[2])
	}
	st := summarise(spans, 8)
	if math.Abs(st.unattributed-0.30) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.30", st.unattributed)
	}
	// Two detect spans of one op sum before the floor is taken.
	if got := st.floorMS(spDetect); math.Abs(got-60e-6) > 1e-15 {
		t.Errorf("floorMS(detect) = %v ms, want 60 ns", got)
	}
}

func TestFloorIsMedianOverSlotsOfSummedFastestParts(t *testing.T) {
	// Ring of 3, two parts per op. Interference only ever adds, and it
	// hits the two parts of a slot on different replays: the floor sums
	// each part's fastest time.
	f := newFloors(3)
	for _, r := range []struct {
		slot   int
		a, b   int64
		reason string
	}{
		{0, 20e6, 10e6, "slot 0 clean"}, {1, 4e6, 26e6, "slot 1, second part hit"}, {2, 90e6, 10e6, "slot 2, first part hit"},
		{0, 25e6, 70e6, "slot 0 hit"}, {1, 9e6, 6e6, "slot 1, first part hit"}, {2, 10e6, 31e6, "slot 2, second part hit"},
	} {
		if err := f.add(r.slot, []int64{1000, 1000 + r.a, 1000 + r.a + r.b}); err != nil {
			t.Fatalf("%s: %v", r.reason, err)
		}
	}
	if got := f.ms(); got != 20 {
		t.Errorf("floor = %v ms, want 20 (slot floors 30, 10, 20)", got)
	}
	// A slot never replayed does not count.
	g := newFloors(3)
	g.add(0, []int64{0, 10e6})
	g.add(2, []int64{0, 25e6})
	if got := g.ms(); got != 17.5 {
		t.Errorf("floor over two slots = %v, want 17.5", got)
	}
	// A replay that marks another number of parts is a failed op.
	if err := f.add(1, []int64{0, 5, 6, 7}); err == nil {
		t.Error("a replay with three parts on a two-part slot passed")
	}
	if err := f.add(1, []int64{0}); err == nil {
		t.Error("a replay with no part passed")
	}
}

func TestTracerNilAndOverflow(t *testing.T) {
	var off *tracer
	off.end(off.begin(spOp, -1, 0, -1)) // must not panic
	tr := newTracer(2)
	a := tr.begin(spOp, -1, 0, -1)
	b := tr.begin(spDetect, a, 0, 1)
	c := tr.begin(spPose, a, 0, 1)
	tr.end(c)
	tr.end(b)
	tr.end(a)
	if c != -1 || tr.dropped.Load() != 1 || len(tr.recorded()) != 2 {
		t.Errorf("overflow: id %d dropped %d recorded %d", c, tr.dropped.Load(), len(tr.recorded()))
	}
	if s := tr.recorded()[1]; s.parent != a || s.end < s.start {
		t.Errorf("span not closed under its parent: %+v", s)
	}
}

func TestFleetConservation(t *testing.T) {
	frames := func(n int) []pipeline.FrameStat {
		fs := make([]pipeline.FrameStat, n)
		for i := range fs {
			fs[i] = pipeline.FrameStat{FrameIndex: i, E2EMS: 40, Deadline: true, VIPFound: i%2 == 0}
		}
		return fs
	}
	ok := []pipeline.StreamResult{
		{Session: 0, Frames: frames(8), Dropped: 2, StageSkips: map[string]int{"pose": 3}},
		{Session: 1, Frames: frames(10)},
	}
	got := tally(ok, 10, true, true)
	if got.bad != nil || got.offered != 20 || got.processed != 18 || got.dropped != 2 || got.skips != 3 {
		t.Errorf("conserving fleet: %+v", got)
	}
	if got.useful != 9 || got.found != 9 || len(got.e2e) != 18 {
		t.Errorf("useful %d found %d e2e %d, want 9 9 18", got.useful, got.found, len(got.e2e))
	}
	if timing := tally(ok, 10, false, false); timing.useful != 18 || timing.e2e != nil {
		t.Errorf("timing-only frames: useful %d, want every deadline frame (18)", timing.useful)
	}
	sim := fleetSim([]fleetTally{got}, 1)
	if sim.goodputPerS != 9 || sim.servedShare != 1-3.0/20 || sim.p99MS != 40 {
		t.Errorf("fleetSim = %+v", sim)
	}
	lost := []pipeline.StreamResult{{Session: 3, Frames: frames(8), Dropped: 1}}
	if got := tally(lost, 10, true, false); got.bad == nil {
		t.Error("a session that lost a frame passed the conservation check")
	}
	if a, b := tally(ok, 10, true, false).fp, tally(ok[:1], 10, true, false).fp; a == b {
		t.Error("fingerprint ignores a session")
	}
}

func TestWorseByRespectsDirection(t *testing.T) {
	for _, tc := range []struct {
		better    string
		base, got float64
		want      float64
	}{
		{lower, 100, 110, 0.10},
		{lower, 100, 90, -0.10},
		{higher, 100, 90, 0.10},
		{higher, 100, 110, -0.10},
		{lower, 0, 0, 0},
	} {
		if got := worseBy(tc.better, tc.base, tc.got); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", tc.better, tc.base, tc.got, got, tc.want)
		}
	}
	if w := worstDisagreement(higher, []float64{100, 80, 90}); math.Abs(w-0.20) > 1e-12 {
		t.Errorf("worstDisagreement = %v, want 0.20 (100 -> 80)", w)
	}
}

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(seq(1, 10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	if got := quartileSpread([]float64{3, 1, 4, 1, 5, 9, 2, 6}); math.Abs(got-4.5/3.5) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 4.5/3.5)
	}
}

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestManifestMatchesCatalog holds the committed BENCHMARK.json to the
// names, units, directions and bounds the program prints.
func TestManifestMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if strings.Join(m.Command, " ") != "bash benchmark/run.sh" || len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds != runSeconds {
		t.Errorf("command %v paths %v run_seconds %d", m.Command, m.Paths, m.RunSeconds)
	}
	// The manifest lists the gated workloads; the others run under the
	// suite mode only.
	listed := gated()
	if len(m.Workloads) != len(listed) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d/%d/%d entries, catalog %d/%d/%d", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer),
			len(listed), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q malformed", n, u)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
	}
	for i, w := range listed {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %q, catalog %q (why %d chars)", i, m.Workloads[i].Name, w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		check(d.Name, d.Unit)
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, catalog %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit)
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, catalog %+v", i, g, d)
		}
	}
	if len(workloads) != 7 || len(listed) < 2 || len(listed) > 8 || len(endToEnd) != 10 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d listed, %d end-to-end, %d per-layer", len(workloads), len(listed), len(endToEnd), len(perLayer))
	}
}

// TestReadmeDocumentsEveryName keeps README.md's tables complete.
func TestReadmeDocumentsEveryName(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}
