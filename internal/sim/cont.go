package sim

import "fmt"

// Continuation scheduling: the kernel's one scheduler.
//
// A process describes its behaviour as a chain of run-to-completion
// handlers: each handler runs on the worker's own goroutine, arms at most
// one wait (WaitRecv/WaitSleep) and returns the next handler (or nil when
// the process is finished). The kernel resumes the chain inline when the
// wait is satisfied — zero goroutines, zero channel operations, and all
// hot state in the worker-owned slot array. Every process of a
// prediction is written this way: the mpi layer's ranks (one handler
// each, re-armed from what the rank's operation wants) and its
// interconnect fabric.
//
// What happens between two waits is fixed here and nowhere else: the
// event that satisfied the wait is consumed, a matched receive is
// accounted (completeRecv) before the next handler sees the message, and
// an armed receive whose match already arrived continues the chain at
// once, without an event. An arbitrary blocking function cannot be
// suspended this way; Spawn runs one on a goroutine of its own behind a
// handler (body.go), so it too is scheduled by runCont.

// Cont is one resumable handler of a process. m is the
// message that satisfied the armed receive (nil on start and after a
// sleep). The handler must either return nil (process finished) or arm
// exactly one wait and return the next handler.
type Cont func(p *Proc, m *Message) Cont

// armKind records which wait a handler armed before returning.
type armKind uint8

const (
	armNone armKind = iota
	armRecv
	armSleep
)

// errContNoWait is the panic value for a handler that returned a next
// continuation without arming a wait.
const errContNoWait = "sim: continuation returned without arming a wait (arm WaitRecv/WaitSleep or return nil)"

// SpawnCont registers a process starting at the given handler. All
// processes must be spawned before Run; the process id equals the spawn
// order.
func (k *Kernel) SpawnCont(name string, start Cont) *Proc {
	if k.started {
		panic("sim: Spawn after Run")
	}
	if start == nil {
		panic("sim: SpawnCont with nil start continuation")
	}
	p := &Proc{
		id:     len(k.procs),
		name:   name,
		kernel: k,
		cont0:  start,
	}
	k.procs = append(k.procs, p)
	return p
}

// WaitRecv arms a (source, tag) receive for the current handler: the
// next handler in the chain runs with the earliest matching message in
// the deterministic (arrival, sender, sequence) order, its clock advanced
// to the arrival if that is later than Now(). src and tag each either
// name an exact value or are the wildcard Any. Must be called from
// inside a handler.
func (p *Proc) WaitRecv(src, tag int) {
	s := p.armWait(armRecv)
	s.receiving, s.matchSrc, s.matchTag = true, src, tag
}

// WaitSleep arms a sleep until the given absolute simulated time. Unlike
// Advance it lets other processes' messages arrive first. Sleeping into
// the past is a no-op: the next handler runs immediately, with the clock
// unchanged. A NaN time is refused.
func (p *Proc) WaitSleep(until Time) {
	if until != until {
		panic(fmt.Sprintf("sim: WaitSleep(NaN) on proc %d", p.id))
	}
	s := p.armWait(armSleep)
	s.sleepUntil = until
}

// armWait validates and records the arm; handlers arm at most one wait.
func (p *Proc) armWait(kind armKind) *procSlot {
	s := p.slot
	if !s.inHandler {
		panic(fmt.Sprintf("sim: Wait* outside a continuation handler on proc %d", p.id))
	}
	if s.armKind != armNone {
		panic(fmt.Sprintf("sim: continuation handler on proc %d armed two waits", p.id))
	}
	s.armKind = kind
	return s
}

// runCont advances a process as far as it can go without a real wait:
// handlers run back-to-back while their armed receives are already
// satisfiable or their sleeps lie in the past. Called from runLoop. m is
// the delivery that satisfied the armed receive (nil on start and wake).
func (w *worker) runCont(p *Proc, m *Message) {
	s := p.slot
	if s.state == stBlocked {
		w.contWaiting--
	}
	for {
		if m != nil {
			// A matched receive.
			s.receiving = false
			p.completeRecv(m)
		} else if s.state == stBlocked {
			// Waking from an armed sleep.
			if s.sleepUntil > s.now {
				s.now = s.sleepUntil
			}
		}
		s.state = stRunnable
		cont := s.cont
		s.cont = nil
		if w.obs != nil {
			w.obs.conts++
		}
		next := w.invokeCont(p, cont, m)
		m = nil
		if next == nil {
			// Finished (or the handler panicked; invokeCont captured it).
			s.armKind = armNone
			s.receiving = false
			s.state = stDone
			s.stats.FinishTime = s.now
			return
		}
		s.cont = next
		switch s.armKind {
		case armRecv:
			s.armKind = armNone
			if mm := p.takeMatched(); mm != nil {
				m = mm
				continue
			}
			s.state = stBlocked
			w.contWaiting++
			return
		case armSleep:
			s.armKind = armNone
			if s.sleepUntil <= s.now {
				continue // sleep into the past: run the next handler now
			}
			w.queue.push(event{t: s.sleepUntil, proc: p.id, seq: p.nextSeq(), kind: evWake, dst: p.id})
			s.state = stBlocked // not receiving: arrivals queue in the mailbox
			w.contWaiting++
			return
		default:
			// As a handler panic: same error, same guard trip, and the
			// worker goroutine survives to keep draining its window.
			w.contPanic(p, errContNoWait)
			s.cont = nil
			s.state = stDone
			s.stats.FinishTime = s.now
			return
		}
	}
}

// invokeCont runs one handler, capturing panics — one must not unwind
// the worker goroutine executing the event loop — errTeardown included:
// a handler that left through CheckAbort is torn down, not failed.
func (w *worker) invokeCont(p *Proc, cont Cont, m *Message) (next Cont) {
	s := p.slot
	s.inHandler = true
	defer func() {
		s.inHandler = false
		if r := recover(); r != nil {
			if r != errTeardown {
				w.contPanic(p, r)
			}
			next = nil
		}
	}()
	return cont(p, m)
}

// contPanic records a handler failure and stops a guarded run.
func (w *worker) contPanic(p *Proc, value interface{}) {
	p.err = &PanicError{Proc: p.id, Name: p.name, Value: value}
	if g := p.kernel.guard; g != nil {
		g.trip(tripPanic, fmt.Sprintf("proc %d (%s) panicked: %v", p.id, p.name, value))
	}
}
