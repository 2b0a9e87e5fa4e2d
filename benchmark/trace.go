package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. The benchmark records spans from its own files, around
// calls into each package's public functions.
const (
	spOp int32 = iota
	spExecYolo
	spExecPose
	spExecDepth
	spChecksum
	spNewServer
	spAdvance
	spDrain
	spResult
	spBuildFleet
	spFleetRun
	spExtract
	spDetect
	spPose
	spDepth
	spTally
)

var spanNames = [...]string{
	spOp: "op", spExecYolo: "nn.execute.yolov8n", spExecPose: "nn.execute.bodypose",
	spExecDepth: "nn.execute.monodepth2", spChecksum: "benchmark.checksum",
	spNewServer: "serve.new_server", spAdvance: "serve.advance", spDrain: "serve.drain",
	spResult: "serve.result", spBuildFleet: "benchmark.build_fleet", spFleetRun: "pipeline.fleet_run",
	spExtract: "video.extract", spDetect: "detect.analyze", spPose: "pose.analyze",
	spDepth: "depth.analyze", spTally: "benchmark.tally",
}

type span struct {
	name, parent, op, session int32
	start, end                int64 // ns since the tracer's origin
}

// tracer keeps spans in one preallocated slice: begin claims the next
// slot with an atomic add, so recording allocates nothing and stages
// that Fleet.Run may analyse on several goroutines need no lock. A nil tracer
// records nothing; that is the untraced run.
type tracer struct {
	origin  time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id, -1 when not recording.
func (t *tracer) begin(name, parent, op, session int32) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, parent: parent, op: op, session: session,
		start: int64(time.Since(t.origin))}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
}

// recorded is the closed spans in recording order.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// covered is the length of the union of the intervals clipped to
// [lo, hi]: overlapping children (stages of two sessions running at
// once) are counted once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	var cur [2]int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= cur[1] {
			if iv[1] > cur[1] {
				cur[1] = iv[1]
			}
			continue
		}
		if open {
			total += cur[1] - cur[0]
		}
		cur, open = iv, true
	}
	if open {
		total += cur[1] - cur[0]
	}
	return total
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(s.start, s.end, kids[int32(i)])
	}
	return self
}

// spanStats sums span durations and self times per (name, op), in ms,
// so that a layer's time is estimated the way the op's is: floorMS is
// the median over ring slots of the smallest per-op total.
type spanStats struct {
	ring          int
	durMS, selfMS map[int32]map[int32]float64 // name -> op -> ms
	// unattributed is the largest share of an op span its children
	// leave uncovered: children + self = op holds by construction, so
	// the reconciliation that can fail is whether the op is explained.
	unattributed float64
}

func summarise(spans []span, ring int) spanStats {
	st := spanStats{ring: ring, durMS: map[int32]map[int32]float64{}, selfMS: map[int32]map[int32]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if st.durMS[s.name] == nil {
			st.durMS[s.name], st.selfMS[s.name] = map[int32]float64{}, map[int32]float64{}
		}
		d := float64(s.end-s.start) / 1e6
		st.durMS[s.name][s.op] += d
		st.selfMS[s.name][s.op] += float64(self[i]) / 1e6
		if s.name == spOp && d > 0 {
			if u := float64(self[i]) / 1e6 / d; u > st.unattributed {
				st.unattributed = u
			}
		}
	}
	return st
}

func (st spanStats) floorMS(name int32) float64     { return floorByOp(st.durMS[name], st.ring) }
func (st spanStats) floorSelfMS(name int32) float64 { return floorByOp(st.selfMS[name], st.ring) }

type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Env      map[string]string `json:"env"`
	Dropped  int64             `json:"dropped_spans"`
	Spans    []traceSpan       `json:"spans"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	Session int32  `json:"session"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (t *tracer) write(path, workload string, seed uint64, env map[string]string) error {
	spans := t.recorded()
	out := traceFile{Workload: workload, Seed: seed, Env: env, Dropped: t.dropped.Load(),
		Spans: make([]traceSpan, len(spans))}
	for i, s := range spans {
		out.Spans[i] = traceSpan{i, spanNames[s.name], s.parent, s.op, s.session, s.start, s.end}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
