package sim

import "fmt"

// Continuation scheduling: the kernel's native fast path.
//
// A classic process body is an arbitrary blocking function — the kernel
// cannot suspend it without parking its goroutine, so every block/wake
// costs a channel operation and a goroutine switch. A continuation
// process instead describes its behaviour as a chain of run-to-completion
// handlers: each handler runs on the worker's own goroutine, arms at most
// one wait (WaitRecv/WaitRecvFn/WaitSleep) and returns the next handler
// (or nil when the process is finished). The kernel resumes the chain
// inline when the wait is satisfied — zero goroutines, zero channel
// operations, and all hot state in the worker-owned slot array. Every
// process of a prediction runs this way: the mpi layer's ranks (one
// handler each, re-armed from what the rank's operation wants) and its
// interconnect fabric; blocking bodies are left to tests.
//
// Event order is identical to the classic path by construction: a
// handler runs exactly where the classic body would have run between two
// blocking calls (same completeRecv accounting before it, same wake/
// delivery event consumed), and an armed receive whose match already
// arrived continues the chain immediately, exactly like the classic
// recvMatched fast path. Config.ForceGoroutine routes continuation
// processes through a classic blocking-body driver instead, which the
// scheduler-equivalence tests use to pin the two paths byte-for-byte
// against each other.

// Cont is one resumable handler of a continuation process. m is the
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
// continuation without arming a wait. It is a plain value (not a
// distinct type) so the native inline path and the ForceGoroutine driver
// produce byte-identical *PanicError results.
const errContNoWait = "sim: continuation returned without arming a wait (arm WaitRecv/WaitRecvFn/WaitSleep or return nil)"

// SpawnCont registers a continuation process starting at the given
// handler. Like Spawn it must precede Run; the process id equals the
// spawn order. Continuation processes own no goroutine and no resume
// channel (unless Config.ForceGoroutine reroutes them).
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
// next handler in the chain runs with the earliest matching message, its
// clock advanced past the arrival exactly as RecvSrcTag would have.
// src and tag each either name an exact value or are the wildcard Any.
// Must be called from inside a continuation handler.
func (p *Proc) WaitRecv(src, tag int) {
	s := p.armWait(armRecv)
	s.matchMode, s.matchSrc, s.matchTag = matchSrcTag, src, tag
}

// WaitRecvFn arms a predicate receive (the continuation counterpart of
// Recv). The closure is dropped once a message matches.
func (p *Proc) WaitRecvFn(match func(*Message) bool) {
	s := p.armWait(armRecv)
	s.matchMode, s.matchFn = matchFunc, match
}

// WaitSleep arms a sleep until the given absolute simulated time (the
// continuation counterpart of Sleep). Sleeping into the past is a no-op:
// the next handler runs immediately, with the clock unchanged.
func (p *Proc) WaitSleep(until Time) {
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

// runCont advances a continuation process as far as it can go without a
// real wait: handlers run back-to-back while their armed receives are
// already satisfiable (the inline analogue of the classic recvMatched
// fast path) or their sleeps lie in the past. Called from runLoop with
// the worker's run token; never blocks, never yields the goroutine.
// m is the delivery that satisfied the armed receive (nil on start and
// wake).
func (w *worker) runCont(p *Proc, m *Message) {
	s := p.slot
	if s.state == stBlocked {
		w.contWaiting--
	}
	for {
		if m != nil {
			// A matched receive: identical completion to recvMatched.
			s.matchMode, s.matchFn = matchNone, nil
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
			s.matchMode, s.matchFn = matchNone, nil
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
			s.state = stBlocked // matchMode is matchNone: arrivals queue in the mailbox
			w.contWaiting++
			return
		default:
			// Mirror a body panic: same error, same guard trip, and the
			// worker goroutine survives to keep draining its window.
			w.contPanic(p, errContNoWait)
			s.cont = nil
			s.state = stDone
			s.stats.FinishTime = s.now
			return
		}
	}
}

// invokeCont runs one handler, capturing panics exactly as the classic
// run() does for bodies — the panic must not unwind the worker (or
// donated process) goroutine executing the event loop — errTeardown
// included: a handler that left through CheckAbort is torn down, not
// failed.
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

// contPanic records a handler failure like run() records a body panic.
func (w *worker) contPanic(p *Proc, value interface{}) {
	p.err = &PanicError{Proc: p.id, Name: p.name, Value: value}
	if g := p.kernel.guard; g != nil {
		g.trip(tripPanic, fmt.Sprintf("proc %d (%s) panicked: %v", p.id, p.name, value))
	}
}

// contDriver wraps a continuation chain in a classic blocking body: the
// old-path semantics used when Config.ForceGoroutine is set. Each armed
// wait is performed with the blocking primitives (recvMatched/Sleep), so
// the event sequence — and therefore every Result byte — is identical to
// the inline path; only the host-side scheduling differs.
func contDriver(start Cont) func(*Proc) {
	return func(p *Proc) {
		s := p.slot
		cont := start
		var m *Message
		for cont != nil {
			s.inHandler = true
			next := func() Cont {
				defer func() { s.inHandler = false }()
				return cont(p, m)
			}()
			m = nil
			cont = next
			if cont == nil {
				s.armKind = armNone
				return
			}
			switch s.armKind {
			case armRecv:
				s.armKind = armNone
				m = p.recvMatched()
				s.matchFn = nil
			case armSleep:
				s.armKind = armNone
				p.Sleep(s.sleepUntil)
			default:
				panic(errContNoWait)
			}
		}
	}
}
