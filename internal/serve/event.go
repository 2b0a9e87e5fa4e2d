package serve

import "math"

// Event is one scheduled occurrence in the discrete-event core. Events
// are plain values — no pointers, no per-event heap records — so the
// queue's steady state allocates nothing. Kind discriminates the
// payload; A is a kind-specific index (the arriving tenant, the
// retried request) into the server's flat state.
type Event struct {
	TimeMS float64
	// seq is the queue-assigned insertion number: ties on TimeMS pop in
	// insertion order, which is what makes replays deterministic.
	seq  uint64
	Kind uint8
	A    int32
}

func eventLess(a, b Event) bool {
	if a.TimeMS != b.TimeMS {
		return a.TimeMS < b.TimeMS
	}
	return a.seq < b.seq
}

// CalQueue is the event scheduler of the serving core: a binary
// min-heap of Event values in one reused slice, ordered by time and,
// among equal times, by push order (FIFO), so replays are
// deterministic. Push and Pop are O(log n); the server holds one
// pending arrival per tenant plus a few timers, completions and fault
// events, a few dozen in all, so each is a handful of comparisons.
// Once the population stops growing, a push-pop workload allocates
// nothing. Timestamps must be non-negative and finite.
//
// The name is the historical one (it was a calendar queue); it is kept
// for the callers and tests that name the type.
type CalQueue struct {
	h   []Event
	seq uint64
}

// NewCalQueue returns an empty queue with room for `hint` events
// before its slice grows. widthMS is unused: it was the calendar
// queue's bucket-width hint, and the parameter is kept so existing
// callers compile unchanged.
func NewCalQueue(hint int, widthMS float64) *CalQueue {
	return &CalQueue{h: make([]Event, 0, max(hint, 0))}
}

// Push schedules an event. TimeMS must be non-negative and finite; the
// seq field is assigned by the queue.
func (q *CalQueue) Push(e Event) {
	if e.TimeMS < 0 || math.IsInf(e.TimeMS, 0) || math.IsNaN(e.TimeMS) {
		panic("serve: CalQueue event time must be non-negative and finite")
	}
	q.seq++
	e.seq = q.seq
	q.h = append(q.h, e)
	// Sift a hole up from the new leaf and drop e into it.
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e, q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = e
}

// Pop removes and returns the earliest event.
func (q *CalQueue) Pop() (Event, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Event{}, false
	}
	top, last := q.h[0], q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		// Sift a hole down from the root and drop the old last leaf
		// into it.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && eventLess(q.h[c+1], q.h[c]) {
				c++
			}
			if !eventLess(q.h[c], last) {
				break
			}
			q.h[i] = q.h[c]
			i = c
		}
		q.h[i] = last
	}
	return top, true
}

// Peek returns the earliest event without removing it.
func (q *CalQueue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}
