package serve

import (
	"cmp"
	"math"
	"slices"
)

// Event is one scheduled occurrence in the discrete-event core. Events
// are plain values — no pointers, no per-event heap records — so the
// queue's steady state allocates nothing. Kind discriminates the
// payload; A and B are kind-specific indices (tenant, device, timer
// generation) into the server's flat state.
type Event struct {
	TimeMS float64
	// seq is the queue-assigned insertion number: ties on TimeMS pop in
	// insertion order, which is what makes replays deterministic.
	seq  uint64
	Kind uint8
	A, B int32
}

func eventLess(a, b Event) bool {
	if a.TimeMS != b.TimeMS {
		return a.TimeMS < b.TimeMS
	}
	return a.seq < b.seq
}

// CalQueue is a calendar-queue event scheduler (Brown 1988): a ring of
// time-width buckets the virtual clock sweeps like days on a wall
// calendar. Insert and pop-min are O(1) amortised when the queue is
// sized to its load — the property that lets the serving simulator push
// millions of events per wall-second — and the queue resizes itself by
// powers of two as the event population grows or shrinks, and re-tunes
// its bucket width in place when inserts and pops start paying for a
// width that no longer fits the events near the head.
//
// Buckets hold events by value in reused slices, so a steady-state
// workload (push one, pop one) allocates nothing; only population
// growth reallocates. Timestamps must be non-negative and finite.
// Equal-time events pop in push order (FIFO), so replays are
// deterministic regardless of bucket geometry.
type CalQueue struct {
	buckets  [][]Event
	nb       int     // bucket count (power of two)
	mask     int     // nb - 1
	width    float64 // time span of one bucket
	cur      int     // bucket the sweep is currently scanning
	curTop   float64 // upper time edge of buckets[cur] in the current year
	n        int
	seq      uint64
	scratch  []Event // resize staging, reused
	maxItems int     // resize-up threshold
	minItems int     // resize-down threshold
	// pushes since the last (re)size, and the work they and the pops
	// among them cost: events shifted by sorted inserts plus buckets
	// the pop sweep stepped over.
	pushes, cost int
}

// Re-tune the width in place once the work since the last (re)size
// exceeds retuneCost a push, over at least retuneMinPushes pushes (and
// at least the population, which amortises the re-bucketing).
const (
	retuneCost      = 2
	retuneMinPushes = 64
)

// NewCalQueue returns a queue tuned for about `hint` concurrently
// scheduled events spaced about `widthMS` apart. Both are hints: the
// queue re-tunes itself as the population changes. hint <= 0 and
// widthMS <= 0 select small defaults.
func NewCalQueue(hint int, widthMS float64) *CalQueue {
	if widthMS <= 0 {
		widthMS = 1
	}
	nb := 4
	for nb < hint {
		nb <<= 1
	}
	q := &CalQueue{}
	q.init(nb, widthMS, 0)
	return q
}

func (q *CalQueue) init(nb int, width float64, startMS float64) {
	if cap(q.buckets) >= nb {
		q.buckets = q.buckets[:nb]
		for i := range q.buckets {
			q.buckets[i] = q.buckets[i][:0]
		}
	} else {
		old := q.buckets
		q.buckets = make([][]Event, nb)
		copy(q.buckets, old[:0])
	}
	q.nb = nb
	q.mask = nb - 1
	q.width = width
	q.n = 0
	q.cur = int(startMS/width) & q.mask
	q.curTop = (math.Floor(startMS/width) + 1) * width
	q.maxItems = 2 * nb
	q.minItems = nb/2 - 2
	q.pushes, q.cost = 0, 0
}

// Len reports the number of scheduled events.
func (q *CalQueue) Len() int { return q.n }

// Push schedules an event. TimeMS must be non-negative and finite; the
// seq field is assigned by the queue.
func (q *CalQueue) Push(e Event) {
	if e.TimeMS < 0 || math.IsInf(e.TimeMS, 0) || math.IsNaN(e.TimeMS) {
		panic("serve: CalQueue event time must be non-negative and finite")
	}
	q.seq++
	e.seq = q.seq
	q.insert(e)
	q.pushes++
	switch {
	case q.n > q.maxItems:
		q.resize(q.nb << 1)
	case q.pushes >= retuneMinPushes && q.pushes >= q.n && q.cost > retuneCost*q.pushes:
		q.resize(q.nb)
	}
}

func (q *CalQueue) insert(e Event) {
	b := int(e.TimeMS/q.width) & q.mask
	s := q.buckets[b]
	// Sorted insert; buckets hold a few events at steady state, so the
	// shift is cheap and keeps pops O(1).
	i := len(s)
	s = append(s, e)
	for i > 0 && eventLess(e, s[i-1]) {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	q.cost += len(s) - 1 - i
	q.buckets[b] = s
	q.n++
	// An event behind the sweep position would be missed for a whole
	// ring revolution; rewind the sweep to its bucket. Simulation
	// schedules forward, so this is the adversarial-input safety net,
	// not the hot path.
	if e.TimeMS < q.curTop-q.width {
		q.cur = b
		q.curTop = (math.Floor(e.TimeMS/q.width) + 1) * q.width
	}
}

// Pop removes and returns the earliest event.
func (q *CalQueue) Pop() (Event, bool) {
	if q.n == 0 {
		return Event{}, false
	}
	// Sweep at most one full ring revolution looking for an event in
	// the current calendar year.
	for i := 0; i < q.nb; i++ {
		if s := q.buckets[q.cur]; len(s) > 0 && s[0].TimeMS < q.curTop {
			q.cost += i
			return q.take(q.cur), true
		}
		q.cur = (q.cur + 1) & q.mask
		q.curTop += q.width
	}
	q.cost += q.nb
	// Nothing within a year of the sweep: the next event is far in the
	// future. Find the global minimum directly and jump the sweep to it.
	minB := -1
	var min Event
	for b, s := range q.buckets {
		if len(s) > 0 && (minB < 0 || eventLess(s[0], min)) {
			minB, min = b, s[0]
		}
	}
	q.cur = minB
	q.curTop = (math.Floor(min.TimeMS/q.width) + 1) * q.width
	return q.take(minB), true
}

// Peek returns the earliest event without removing it.
func (q *CalQueue) Peek() (Event, bool) {
	e, ok := q.Pop()
	if !ok {
		return Event{}, false
	}
	// Re-inserting preserves order: seq is already assigned, and insert
	// places equal keys by seq.
	q.insert(e)
	return e, true
}

func (q *CalQueue) take(b int) Event {
	s := q.buckets[b]
	e := s[0]
	copy(s, s[1:])
	q.buckets[b] = s[:len(s)-1]
	q.n--
	if q.n < q.minItems && q.nb > 4 {
		q.resize(q.nb >> 1)
	}
	return e
}

// resize re-buckets every event into nb buckets with a width matched to
// the spacing of the events near the head (headWidth).
func (q *CalQueue) resize(nb int) {
	q.scratch = q.scratch[:0]
	for _, s := range q.buckets {
		q.scratch = append(q.scratch, s...)
	}
	// By time only: insert restores push order among equal times.
	slices.SortFunc(q.scratch, func(a, b Event) int { return cmp.Compare(a.TimeMS, b.TimeMS) })
	width := headWidth(q.scratch)
	if !(width > 0) || math.IsInf(width, 0) {
		width = q.width
	}
	start := 0.0
	if len(q.scratch) > 0 {
		start = q.scratch[0].TimeMS
	}
	seq := q.seq
	q.init(nb, width, start)
	q.seq = seq
	for _, e := range q.scratch {
		q.insert(e)
	}
	q.cost = 0
}

// headWidth is Brown's bucket width for events sorted by time: three
// times the mean gap between the earliest (at most 25) events, leaving
// out the gaps over twice the mean, so one far-future event does not
// widen every bucket. Gaps under 2^-40 of the sample's last time are
// ties up to rounding: they count, at their size, in the width — so a
// bucket still holds about three events when times repeat — but not in
// the mean that decides which gaps are outliers, where a head of ties
// would make every real gap an outlier and the width nothing. 0 when
// the sample has no spread.
func headWidth(sorted []Event) float64 {
	k := min(len(sorted), 25)
	if k < 2 {
		return 0
	}
	tie := sorted[k-1].TimeMS * 0x1p-40
	var sum float64
	var n int
	for i := 1; i < k; i++ {
		if gap := sorted[i].TimeMS - sorted[i-1].TimeMS; gap > tie {
			sum, n = sum+gap, n+1
		}
	}
	if n == 0 {
		return 0
	}
	limit := 2 * sum / float64(n)
	sum, n = 0, 0
	for i := 1; i < k; i++ {
		if gap := sorted[i].TimeMS - sorted[i-1].TimeMS; gap <= limit {
			sum, n = sum+gap, n+1
		}
	}
	return 3 * sum / float64(n)
}
