package sim

import "sync"

// Message pooling, so steady-state simulation is allocation-free.
// (Events used to be pooled too; they are plain values inside per-worker
// slabs now — see event.go — so the only pooled type left is *Message.)
//
// Ownership rules (see also DESIGN.md "Kernel performance"):
//
//   - messages are allocated by Send and handed to the receiver by the
//     receive it armed. The receiver owns the message from then on and
//     MAY return it with FreeMessage once it is done with every field
//     (including Payload); freeing is optional — unfreed messages fall to
//     the garbage collector — and freeing twice panics.
//
// Each worker keeps a private free list, sized from its share of the
// spawned processes at Run (see Kernel.Run). It is only touched from
// that worker's event loop, so no locking is needed; the shared sync.Pool
// backstops it, absorbing cross-worker and cross-window imbalance and
// letting idle windows shed memory under GC pressure.

var messagePool = sync.Pool{New: func() interface{} { return new(Message) }}

// minFreeList is the free-list bound floor; workers owning more
// processes scale the bound with their share (msgCap) so fan-heavy
// workloads at large rank counts stay inside the worker-local list.
const minFreeList = 1 << 12

// newMessage returns a live message. All exported fields are stale; Send
// assigns every one.
func (w *worker) newMessage() *Message {
	var m *Message
	if n := len(w.freeMsgs) - 1; n >= 0 {
		m = w.freeMsgs[n]
		w.freeMsgs[n] = nil
		w.freeMsgs = w.freeMsgs[:n]
		if w.obs != nil {
			w.obs.poolMsgHit++
		}
	} else {
		m = messagePool.Get().(*Message)
		if w.obs != nil {
			w.obs.poolMsgMiss++
		}
	}
	m.live = true
	return m
}

// freeMessage recycles a received message into the receiver's worker.
func (w *worker) freeMessage(m *Message) {
	if !m.live {
		panic("sim: message double-free (or free of a message not obtained from Recv)")
	}
	m.live = false
	m.Payload = nil // drop the payload reference for the garbage collector
	if len(w.freeMsgs) < w.msgCap {
		w.freeMsgs = append(w.freeMsgs, m)
		return
	}
	messagePool.Put(m)
}
