package sim

import "unsafe"

// eventKind discriminates kernel events.
type eventKind uint8

const (
	evStart   eventKind = iota // run a process's start handler
	evDeliver                  // deposit a message into a mailbox
	evWake                     // resume a process sleeping via Sleep
)

// event is a kernel-internal scheduled occurrence. Events are totally
// ordered by (time, proc, seq) so that simulation results are independent
// of engine choice and host processor count. Events are plain values:
// they live inside the per-worker queue and outbox slabs and are copied,
// never pointed to across operations, so scheduling allocates nothing and
// the pending set is one contiguous block of memory per worker instead of
// a pointer heap over scattered pool objects.
type event struct {
	t    Time
	seq  uint64 // tie-break: per-process sequence number
	msg  *Message
	proc int // tie-break: originating process id
	dst  int // destination process id
	kind eventKind
}

// eventBytes is the slab footprint of one event, reported by the
// sim_xworker_batch_bytes counter.
var eventBytes = int64(unsafe.Sizeof(event{}))

// eventLess orders events by (time, proc, seq). It takes pointers (into
// the queue and outbox slabs) so the comparison copies no event values.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.proc != b.proc {
		return a.proc < b.proc
	}
	return a.seq < b.seq
}

// eventCmp is eventLess as a three-way comparison for slices.SortFunc.
// The (time, proc, seq) order is strict, so 0 is never returned for
// distinct events.
func eventCmp(a, b event) int {
	if a.t != b.t {
		if a.t < b.t {
			return -1
		}
		return 1
	}
	if a.proc != b.proc {
		if a.proc < b.proc {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	if a.seq > b.seq {
		return 1
	}
	return 0
}

// QueueKind selects the pending-event queue implementation. Because the
// event order (time, proc, seq) is a strict total order, every correct
// implementation pops events in exactly the same sequence: simulation
// results are bit-identical across kinds, and the choice is purely a
// performance knob (benchmarked head-to-head in BenchmarkKernelQueue*).
type QueueKind int

const (
	// QueueQuaternary is an implicit 4-ary min-heap: half the depth of a
	// binary heap, so pops touch fewer cache lines. It wins at large
	// process counts (deep queues, the paper's 6400-10000-rank regime)
	// and is the default; the binary heap is a few percent ahead on
	// small queues.
	QueueQuaternary QueueKind = iota
	// QueueBinary is a classic implicit binary min-heap (the seed
	// kernel's structure, hand-rolled to avoid container/heap's
	// interface-call overhead), kept for comparison.
	QueueBinary
)

// String implements fmt.Stringer.
func (q QueueKind) String() string {
	if q == QueueBinary {
		return "binary"
	}
	return "quaternary"
}

// eventQueue is a min-heap of pending event values, popping in ascending
// (time, proc, seq) order. It is a concrete type — not an interface —
// so the hot-path push/pop/peek calls dispatch directly and peek
// inlines; the kind branch inside push/pop is perfectly predicted.
// Sifts move the hole rather than swapping, and an ascending push (the
// common pattern: arrivals trend upward, and the barrier merge inserts
// sorted runs) sifts at most one level.
type eventQueue struct {
	kind QueueKind
	a    []event
}

// newEventQueue constructs the queue implementation selected by kind.
func newEventQueue(kind QueueKind) eventQueue {
	return eventQueue{kind: kind}
}

// grow preallocates capacity for n pending events so steady-state pushes
// never reallocate the slab.
func (h *eventQueue) grow(n int) {
	if cap(h.a)-len(h.a) < n {
		a := make([]event, len(h.a), len(h.a)+n)
		copy(a, h.a)
		h.a = a
	}
}

func (h *eventQueue) len() int { return len(h.a) }

// peek returns a pointer to the earliest pending event, valid until the
// next push or pop, or nil when the queue is empty.
func (h *eventQueue) peek() *event {
	if len(h.a) == 0 {
		return nil
	}
	return &h.a[0]
}

func (h *eventQueue) push(e event) {
	if h.kind == QueueBinary {
		h.pushBin(e)
	} else {
		h.pushQuad(e)
	}
}

func (h *eventQueue) pop() event {
	if h.kind == QueueBinary {
		return h.popBin()
	}
	return h.popQuad()
}

func (h *eventQueue) pushBin(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !eventLess(&e, &a[par]) {
			break
		}
		a[i] = a[par]
		i = par
	}
	a[i] = e
	h.a = a
}

func (h *eventQueue) popBin() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // drop the stale message pointer for the collector
	h.a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && eventLess(&a[c+1], &a[c]) {
				c++
			}
			if !eventLess(&a[c], &last) {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	return top
}

// Quaternary heap: children of node i are 4i+1..4i+4.

func (h *eventQueue) pushQuad(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		par := (i - 1) / 4
		if !eventLess(&e, &a[par]) {
			break
		}
		a[i] = a[par]
		i = par
	}
	a[i] = e
	h.a = a
}

func (h *eventQueue) popQuad() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // drop the stale message pointer for the collector
	h.a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if eventLess(&a[j], &a[min]) {
					min = j
				}
			}
			if !eventLess(&a[min], &last) {
				break
			}
			a[i] = a[min]
			i = min
		}
		a[i] = last
	}
	return top
}
