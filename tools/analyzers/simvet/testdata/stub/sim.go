// Package sim here is a self-contained stand-in for the kernel surface
// the simvet rules recognize (they match named types by package *name*,
// so this stub exercises them exactly like the real kernel). Every
// fixture file in the sibling rule directories is typechecked together
// with this stub as one package. The stub itself is invariant-clean:
// the golden harness runs all analyzers over stub+fixture, so any
// diagnostic in this file would show up in every golden file.
package sim

// Time is virtual time.
type Time int64

// Message mirrors the pooled kernel message.
type Message struct {
	Size    int64
	Payload interface{}
	From    int
	Tag     int
}

// Proc mirrors the process handle.
type Proc struct {
	rank int
}

// Cont is the continuation-handler type.
type Cont func(p *Proc, m *Message) Cont

func (p *Proc) Send(to int, payload interface{}, size int64)              {}
func (p *Proc) SendTag(to, tag int, payload interface{})                  {}
func (p *Proc) SendTagFault(to, tag int, payload interface{}, size int64) {}
func (p *Proc) SendVia(path []int, payload interface{})                   {}
func (p *Proc) Forward(m *Message, to, tag int)                           {}
func (p *Proc) FreeMessage(m *Message)                                    {}
func (p *Proc) RecvSrcTag(src, tag int) *Message                          { return nil }
func (p *Proc) Sleep(d Time)                                              {}
func (p *Proc) WaitRecv(src, tag int)                                     {}
func (p *Proc) WaitSleep(d Time)                                          {}

// event mirrors the plain-value slab event.
type event struct {
	t   Time
	seq uint64
}

func eventLess(a, b *event) bool { return a.t < b.t || (a.t == b.t && a.seq < b.seq) }

// eventQueue mirrors the slab-backed heap.
type eventQueue struct {
	a []event
}

func (q *eventQueue) push(e event) { q.a = append(q.a, e) }
func (q *eventQueue) pop() event {
	e := q.a[len(q.a)-1]
	q.a = q.a[:len(q.a)-1]
	return e
}
func (q *eventQueue) peek() *event {
	if len(q.a) == 0 {
		return nil
	}
	return &q.a[0]
}
func (q *eventQueue) grow() {}

// worker mirrors the per-worker slab owner.
type worker struct {
	queue  eventQueue
	outbox []event
}

func (w *worker) sendOut(e event) { w.outbox = append(w.outbox, e) }
func (w *worker) mergeOutboxes()  {}
func (w *worker) processWindow()  {}
func (w *worker) batchSameTime()  {}
func (w *worker) clearOutbox()    { w.outbox = w.outbox[:0] }
