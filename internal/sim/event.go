package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

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
// The (time, proc, seq) order is a strict total order over finite
// times, enforced by the kernel (a NaN time is refused where it would
// enter), so 0 is never returned for distinct events.
func eventCmp(a, b event) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	if a.proc != b.proc {
		return cmp.Compare(a.proc, b.proc)
	}
	return cmp.Compare(a.seq, b.seq)
}

// eventQueue holds one worker's pending events and pops them in
// (time, proc, seq) order. Most pops tie the previous pop's time, so it
// is keyed by distinct times: a 4-ary heap orders the pending times, each
// with a bucket of events. The earliest bucket is staged, sorted by
// (proc, seq) once (it usually already is), and peek and pop take from
// its head. A push finds its bucket through the last pushed time, then a
// linear-probing table on the time's bits; one at the staged time
// inserts in order, one earlier un-stages it (the barrier merge after
// safeBounds peeked). The 4-ary event heap this replaced is the oracle
// in queue_test.go.
type eventQueue struct {
	n     int       // pending events
	times []timeRef // 4-ary min-heap of the unstaged buckets' times
	bk    []bucket  // by id; a free bucket's time is NaN
	free  []int32   // ids of free buckets
	cur   int32     // the staged bucket, or -1
	last  int32     // the bucket of the last pushed time, or -1
	table []int32   // bucket id+1 by time, 0 empty; stale where the bucket's time moved on
	used  int       // table entries, stale ones included
	shift uint      // 64 - log2(len(table))
	slab  []event   // preallocated backing that new buckets draw from
}

type timeRef struct {
	t Time
	b int32
}

// bucket holds the events of one time; ev[head:] are pending.
type bucket struct {
	t    Time
	ev   []event
	head int
}

// bucketChunk events of the slab back a new bucket; recycled buckets
// keep what they grew to.
const bucketChunk = 16

var nan = Time(math.NaN())

func newEventQueue() eventQueue {
	q := eventQueue{cur: -1, last: -1}
	q.rehash()
	return q
}

// grow preallocates backing for n more pending events, so the steady
// state allocates nothing.
func (q *eventQueue) grow(n int) { q.slab = make([]event, len(q.slab)+n) }

func (q *eventQueue) len() int { return q.n }

// peek returns a pointer to the earliest pending event, valid until the
// next push or pop, or nil when the queue is empty.
func (q *eventQueue) peek() *event {
	if q.cur < 0 && !q.stage() {
		return nil
	}
	b := &q.bk[q.cur]
	return &b.ev[b.head]
}

// pop removes the earliest pending event; the queue must not be empty.
func (q *eventQueue) pop() event {
	if q.cur < 0 {
		q.stage()
	}
	b := &q.bk[q.cur]
	e := b.ev[b.head]
	q.n--
	if b.head++; b.head == len(b.ev) { // drained: free it, keeping its backing
		clear(b.ev) // drop message pointers for the collector
		b.t, b.ev, b.head = nan, b.ev[:0], 0
		q.free, q.cur = append(q.free, q.cur), -1
	}
	return e
}

func (q *eventQueue) push(e event) {
	q.n++
	id := q.last
	if id < 0 || q.bk[id].t != e.t {
		id = q.bucketFor(e.t)
		q.last = id
	}
	b := &q.bk[id]
	if id != q.cur {
		b.ev = append(b.ev, e)
		return
	}
	i, _ := slices.BinarySearchFunc(b.ev[b.head:], e, eventCmp)
	b.ev = slices.Insert(b.ev, b.head+i, e)
}

// stage makes the earliest time's bucket current, sorted; it reports
// false when the queue is empty.
func (q *eventQueue) stage() bool {
	if len(q.times) == 0 {
		return false
	}
	q.cur = q.popTime()
	b := &q.bk[q.cur]
	p := b.ev[b.head:]
	for i := 1; i < len(p); i++ {
		if eventLess(&p[i], &p[i-1]) {
			slices.SortFunc(p, eventCmp)
			break
		}
	}
	return true
}

// bucketFor returns the bucket of time t, opening one if none is
// pending; a time earlier than the staged one un-stages it.
func (q *eventQueue) bucketFor(t Time) int32 {
	i := q.home(t)
	for ; q.table[i] != 0; i = (i + 1) & (len(q.table) - 1) {
		if id := q.table[i] - 1; q.bk[id].t == t {
			return id
		}
	}
	if t != t {
		panic("sim: event at NaN time")
	}
	id := int32(len(q.bk))
	if n := len(q.free); n > 0 {
		id, q.free = q.free[n-1], q.free[:n-1]
	} else {
		k := min(len(q.slab), bucketChunk)
		q.bk, q.slab = append(q.bk, bucket{ev: q.slab[:0:k]}), q.slab[k:]
	}
	q.bk[id].t, q.table[i] = t, id+1
	if q.used++; 2*q.used > len(q.table) {
		q.rehash()
	}
	if q.cur >= 0 && t < q.bk[q.cur].t {
		q.pushTime(timeRef{q.bk[q.cur].t, q.cur})
		q.cur = -1
	}
	q.pushTime(timeRef{t, id})
	return id
}

// home is t's first table slot; -0 + 0 is +0, so equal times share it.
func (q *eventQueue) home(t Time) int {
	return int(math.Float64bits(float64(t+0)) * 0x9E3779B97F4A7C15 >> q.shift)
}

// rehash rebuilds the table from the pending buckets, dropping stale
// entries. It is four times the buckets or more, so a rebuild, which
// visits every bucket, comes at most once per that many new times.
func (q *eventQueue) rehash() {
	n := 64
	for n < 4*len(q.bk) {
		n *= 2
	}
	if n != len(q.table) {
		q.table = make([]int32, n)
	} else {
		clear(q.table)
	}
	q.shift, q.used = uint(65-bits.Len(uint(n))), 0
	for id := range q.bk {
		if t := q.bk[id].t; t == t {
			i := q.home(t)
			for q.table[i] != 0 {
				i = (i + 1) & (n - 1)
			}
			q.table[i], q.used = int32(id)+1, q.used+1
		}
	}
}

// The time heap: children of node i are 4i+1..4i+4.

func (q *eventQueue) pushTime(r timeRef) {
	h := append(q.times, r)
	i := len(h) - 1
	for ; i > 0 && r.t < h[(i-1)/4].t; i = (i - 1) / 4 {
		h[i] = h[(i-1)/4]
	}
	h[i] = r
	q.times = h
}

func (q *eventQueue) popTime() int32 {
	h := q.times
	top, last := h[0].b, h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for c := 1; c < len(h); c = 4*i + 1 {
		for j, end := c+1, min(c+4, len(h)); j < end; j++ {
			if h[j].t < h[c].t {
				c = j
			}
		}
		if !(h[c].t < last.t) {
			break
		}
		h[i], i = h[c], c
	}
	if len(h) > 0 {
		h[i] = last
	}
	q.times = h
	return top
}
