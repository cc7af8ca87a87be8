package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refQueue is an implicit d-ary event heap, the oracle the queue is held
// to: with d = 4 it is the heap the kernel used before its queue was
// keyed by distinct times, and with d = 2 the binary heap it offered
// beside it. Children of node i are d*i+1..d*i+d.
type refQueue struct {
	a []event
	d int
}

func (h *refQueue) peek() *event {
	if len(h.a) == 0 {
		return nil
	}
	return &h.a[0]
}

func (h *refQueue) push(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		par := (i - 1) / h.d
		if !eventLess(&e, &a[par]) {
			break
		}
		a[i] = a[par]
		i = par
	}
	a[i] = e
	h.a = a
}

func (h *refQueue) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	h.a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := h.d*i + 1
			if c >= n {
				break
			}
			min := c
			for j := c + 1; j < c+h.d && j < n; j++ {
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

// sameEvent compares two events field by field, the time by its bits so
// that -0 and +0 are told apart.
func sameEvent(a, b event) bool {
	return math.Float64bits(float64(a.t)) == math.Float64bits(float64(b.t)) &&
		a.proc == b.proc && a.seq == b.seq && a.dst == b.dst && a.kind == b.kind
}

// TestEventQueueMatchesHeap drives the queue and the reference heap
// through the same random interleavings of pushes, pops and peeks, and
// requires the same event from both at every step. The pushes cover the
// kernel's cases: same-time bursts in arbitrary proc order, pushes at
// the time being drained (which may order before events already popped
// there), pushes earlier than a bucket staged by peek (the barrier
// merge after safeBounds), both signs of zero, +Inf and Infinity, and
// enough distinct times for the bucket table to grow.
func TestEventQueueMatchesHeap(t *testing.T) {
	negZero := Time(math.Copysign(0, -1))
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := newEventQueue()
		if seed%2 == 0 {
			q.grow(r.Intn(64)) // with and without slab backing
		}
		ref := refQueue{d: 4}
		var seq uint64
		now := Time(0) // time of the last pop
		near := func() Time { return now + Time(r.Intn(4))*0.25 }
		pushAt := func(tm Time) {
			seq++
			e := event{t: tm, proc: r.Intn(12), seq: seq, dst: r.Intn(12), kind: evDeliver}
			q.push(e)
			ref.push(e)
		}
		check := func(step int, what string) {
			if q.len() != len(ref.a) {
				t.Fatalf("seed %d step %d %s: len %d, reference %d", seed, step, what, q.len(), len(ref.a))
			}
			got, want := q.peek(), ref.peek()
			if (got == nil) != (want == nil) || got != nil && !sameEvent(*got, *want) {
				t.Fatalf("seed %d step %d %s: peek %+v, reference %+v", seed, step, what, got, want)
			}
		}
		for step := 0; step < 300; step++ {
			switch op := r.Intn(11); {
			case op < 3: // a same-time burst
				tm := near()
				for i := r.Intn(8); i >= 0; i-- {
					pushAt(tm)
				}
			case op == 3: // at the time being drained
				pushAt(now)
			case op == 4: // earlier than what peek staged
				q.peek()
				pushAt(now - Time(1+r.Intn(3))*0.25)
			case op == 5: // special times
				pushAt([]Time{0, negZero, Time(math.Inf(1)), Infinity}[r.Intn(4)])
			case op == 6:
				check(step, "peek")
			case op == 7 && seed%8 == 0: // many distinct times: the table grows
				for i := r.Intn(100); i >= 0; i-- {
					pushAt(now + Time(r.Intn(1000))/64)
				}
			default:
				for i := r.Intn(6); i >= 0 && len(ref.a) > 0; i-- {
					got, want := q.pop(), ref.pop()
					if !sameEvent(got, want) {
						t.Fatalf("seed %d step %d: pop %+v, reference %+v", seed, step, got, want)
					}
					if !math.IsInf(float64(got.t), 1) {
						now = got.t
					}
				}
			}
		}
		for len(ref.a) > 0 {
			check(-1, "drain")
			if got, want := q.pop(), ref.pop(); !sameEvent(got, want) {
				t.Fatalf("seed %d drain: pop %+v, reference %+v", seed, got, want)
			}
		}
		check(-1, "empty")
	}
}

// TestEventQueueRefusesNaN: a NaN time has no place in the order.
func TestEventQueueRefusesNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push at NaN did not panic")
		}
	}()
	q := newEventQueue()
	q.push(event{t: Time(math.NaN())})
}
