package sim

import (
	"errors"
	"fmt"
)

// errTeardown is the panic value used to unwind a process goroutine that
// the kernel unblocked during teardown (deadlock or guard abort). It is
// compared by identity in run's recover and never reaches p.err: a
// torn-down process is not a failed one.
var errTeardown = errors.New("sim: process terminated by kernel teardown")

// Time is simulated time in seconds.
type Time float64

// Infinity is a time later than any event.
const Infinity = Time(1e300)

// Any is the wildcard for RecvSrcTag's source and tag arguments. It is
// an exact sentinel (not "any negative value"): the mpi layer reserves
// large negative tags for collectives, which must not match a wildcard.
const Any = -1

// Message is a unit of simulated communication between processes. The
// mpi package layers MPI envelope semantics on top: Tag carries the MPI
// tag (or an internal collective tag), Payload the user data.
//
// Messages are pooled. The receiver owns a message returned by
// Recv/RecvSrcTag and may recycle it with FreeMessage once it is done
// with every field, including Payload; freeing is optional, freeing
// twice panics. Senders must not retain the message after Send.
type Message struct {
	From, To int  // process ids
	Tag      int  // mpi-layer tag, matched by RecvSrcTag
	SendTime Time // sender's local time when the send was issued
	Arrival  Time // timestamp at which the message reaches the receiver
	// FaultDelay is the portion of the transit time attributable to
	// injected faults (retransmission waits, delay injection, link
	// slowdown): Arrival would have been FaultDelay earlier on a healthy
	// machine. Receivers use it to attribute blocked time to faults.
	FaultDelay Time
	// NetWait is the portion of the transit time spent queued on busy
	// interconnect links, set by a relay that models link contention
	// (zero on direct sends). Receivers use it to attribute blocked time
	// to network congestion.
	NetWait Time
	// Hops is the number of interconnect links the message traversed
	// (zero on direct sends); carried for trace annotation.
	Hops int
	// RelayDst is the final destination of a message sent to a relay
	// with SendVia; the relay re-issues it there with Forward. Meaningful
	// only on relay-addressed messages.
	RelayDst int
	Size     int64
	Payload  interface{}
	seq      uint64 // sender-side sequence, part of the deterministic order
	live     bool   // pool liveness guard (detects double-free)
}

// procState tracks where a process is in its lifecycle.
type procState uint8

const (
	stNew procState = iota
	stRunnable
	stBlocked // waiting in Recv or Sleep
	stDone
)

// matchMode discriminates how a blocked process matches arrivals.
type matchMode uint8

const (
	matchNone   matchMode = iota // not receiving (e.g. Sleep): nothing matches
	matchFunc                    // arbitrary predicate (Recv)
	matchSrcTag                  // kernel-side (source, tag) match (RecvSrcTag)
)

// ProcStats accumulates per-process accounting used for validation,
// Table 1 and the host-cost model.
type ProcStats struct {
	ComputeTime Time  // simulated time consumed by Advance (direct execution / delays)
	BlockedTime Time  // simulated time spent waiting in Recv
	MsgsSent    int64 // point-to-point messages issued
	BytesSent   int64
	MsgsRecvd   int64
	BytesRecvd  int64
	FinishTime  Time // local clock when the body returned
}

// procSlot is the hot per-process state, flattened into one
// index-addressed, worker-owned array (Kernel.slots): delivering to or
// waking process i touches the contiguous cache lines of slots[i]
// instead of chasing a pointer to a heap-scattered struct. Every field
// is owned by the process's worker (only goroutines holding that
// worker's run token touch it).
type procSlot struct {
	now   Time
	seq   uint64
	state procState
	// Receive predicate, valid while state == stBlocked.
	matchMode matchMode
	// Continuation bookkeeping (cont.go): the armed wait of the handler
	// currently running, and whether a handler is on the stack (so the
	// blocking primitives can reject misuse).
	armKind   armKind
	inHandler bool
	wid       int // owning worker id
	matchSrc  int
	matchTag  int
	// mailbox[mbHead:] holds arrived, unmatched messages. Deliveries are
	// appended in event pop order, which is exactly the deterministic
	// (arrival, sender, sequence) order of messageLess, so the mailbox is
	// always sorted: the first match is the earliest match, and the
	// common take-from-the-front is O(1) via the head index.
	mailbox []*Message
	mbHead  int
	// cont is the pending continuation of a continuation process (nil
	// for classic bodies and while a handler is running).
	cont       Cont
	sleepUntil Time
	matchFn    func(*Message) bool
	stats      ProcStats
}

// Proc is a simulated process (one target MPI rank, in this system). A
// classic process runs its body function on a (pooled) goroutine; a
// continuation process (SpawnCont) runs its handlers inline on its
// worker's goroutine. Kernel calls (Advance, Send, Recv, Sleep, Wait*)
// coordinate it with simulated time and must only be called from the
// body or handler. Proc is the stable public handle; the hot state lives
// in the kernel's flat slot array (procSlot).
type Proc struct {
	id     int
	name   string
	kernel *Kernel
	worker *worker
	slot   *procSlot

	body   func(*Proc)   // classic blocking body (nil for continuation procs)
	cont0  Cont          // start handler of a continuation proc (nil for classic)
	resume chan *Message // handoff into a blocked classic process: matched message or wake (nil)

	err error // panic captured from the body or a handler
}

// ID returns the process identifier (0..N-1 in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the process's local virtual time.
func (p *Proc) Now() Time { return p.slot.now }

// Stats returns a snapshot of the process's accounting.
func (p *Proc) Stats() ProcStats { return p.slot.stats }

// Advance consumes d seconds of simulated local time. This is the
// mechanism behind both direct execution of computational code and the
// simulator-provided delay function of the paper (MPI-Sim's "forward the
// simulation clock on the simulation thread by a specified amount").
// It never yields to the kernel: local computation cannot affect other
// processes except through later messages, so running ahead is safe
// under the conservative protocols.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance(%v) on proc %d", d, p.id))
	}
	s := p.slot
	s.now += d
	s.stats.ComputeTime += d
}

// CheckAbort unwinds the calling process body when the run's guard has
// tripped (budget, watchdog, cancellation). The worker loop polls the
// abort flag between events; a body computing for a long time without a
// kernel call polls it through here, and leaves the way a blocked
// process does at teardown — torn down, not failed.
func (p *Proc) CheckAbort() {
	if g := p.kernel.guard; g != nil && g.tripped() {
		panic(errTeardown)
	}
}

// nextSeq returns the per-process monotone sequence used for
// deterministic event ordering.
func (p *Proc) nextSeq() uint64 {
	p.slot.seq++
	return p.slot.seq
}

// Send schedules delivery of payload to process `to` at the given
// arrival time, with tag 0. Arrival must be at least Now()+lookahead
// when running under the parallel engine; the mpi layer guarantees this
// by construction because the kernel lookahead is the minimum network
// delay.
func (p *Proc) Send(to int, payload interface{}, size int64, arrival Time) {
	p.SendTag(to, 0, payload, size, arrival)
}

// SendTag is Send with an explicit tag for RecvSrcTag matching.
func (p *Proc) SendTag(to, tag int, payload interface{}, size int64, arrival Time) {
	p.SendTagFault(to, tag, payload, size, arrival, 0)
}

// SendTagFault is SendTag with a fault-delay component: faultDelay
// seconds of the transit time (already included in arrival) are
// attributable to injected faults and are carried to the receiver in
// Message.FaultDelay.
func (p *Proc) SendTagFault(to, tag int, payload interface{}, size int64, arrival, faultDelay Time) {
	if to < 0 || to >= len(p.kernel.procs) {
		panic(fmt.Sprintf("sim: Send to unknown proc %d", to))
	}
	s := p.slot
	if arrival < s.now {
		panic(fmt.Sprintf("sim: Send arrival %v before local time %v", arrival, s.now))
	}
	w := p.worker
	m := w.newMessage()
	m.From, m.To, m.Tag = p.id, to, tag
	m.SendTime, m.Arrival = s.now, arrival
	m.FaultDelay = faultDelay
	m.NetWait, m.Hops, m.RelayDst = 0, 0, 0 // pooled: clear relay state
	m.Size, m.Payload = size, payload
	m.seq = p.nextSeq()
	s.stats.MsgsSent++
	s.stats.BytesSent += size
	w.sendOut(event{t: arrival, proc: p.id, seq: m.seq, kind: evDeliver, dst: to, msg: m})
}

// SendVia addresses a message to a relay process (the mpi layer's
// interconnect fabric) while naming its final destination: the relay
// receives it like any message, with Message.RelayDst = dst, and
// re-issues it to dst with Forward once the interconnect model has
// resolved the true arrival time. dst may be any caller-chosen sentinel
// (e.g. negative for control traffic); it is validated by Forward, not
// here. Sender statistics count only real traffic (dst >= 0).
func (p *Proc) SendVia(relay, dst, tag int, payload interface{}, size int64, arrival, faultDelay Time) {
	if relay < 0 || relay >= len(p.kernel.procs) {
		panic(fmt.Sprintf("sim: SendVia through unknown proc %d", relay))
	}
	s := p.slot
	if arrival < s.now {
		panic(fmt.Sprintf("sim: SendVia arrival %v before local time %v", arrival, s.now))
	}
	w := p.worker
	m := w.newMessage()
	m.From, m.To, m.Tag = p.id, relay, tag
	m.SendTime, m.Arrival = s.now, arrival
	m.FaultDelay = faultDelay
	m.NetWait, m.Hops, m.RelayDst = 0, 0, dst
	m.Size, m.Payload = size, payload
	m.seq = p.nextSeq()
	if dst >= 0 {
		s.stats.MsgsSent++
		s.stats.BytesSent += size
	}
	w.sendOut(event{t: arrival, proc: p.id, seq: m.seq, kind: evDeliver, dst: relay, msg: m})
}

// Forward re-issues a message this process received to another process
// with a new arrival time, preserving the original sender envelope
// (From, Tag, SendTime, Size, Payload, FaultDelay): the receiver
// matches it exactly as if the original sender had sent it directly.
// Ownership of m passes back to the kernel — the caller must not touch
// or FreeMessage it afterwards. The caller should set NetWait/Hops
// before forwarding; receiver statistics are counted at delivery as
// usual, and the forwarding process's own send counters are untouched.
func (p *Proc) Forward(m *Message, dst int, arrival Time) {
	if dst < 0 || dst >= len(p.kernel.procs) {
		panic(fmt.Sprintf("sim: Forward to unknown proc %d", dst))
	}
	if arrival < p.slot.now {
		panic(fmt.Sprintf("sim: Forward arrival %v before local time %v", arrival, p.slot.now))
	}
	w := p.worker
	m.To = dst
	m.Arrival = arrival
	m.seq = p.nextSeq()
	w.sendOut(event{t: arrival, proc: p.id, seq: m.seq, kind: evDeliver, dst: dst, msg: m})
}

// Recv blocks until a message satisfying match has arrived, removes it
// from the mailbox and returns it. The local clock advances to the
// message's arrival time if that is later than Now(). When several
// messages match, the earliest in the deterministic (arrival, sender,
// sequence) order is returned. Continuation handlers must arm
// WaitRecvFn instead.
func (p *Proc) Recv(match func(*Message) bool) *Message {
	s := p.slot
	p.checkBlockingCall("Recv")
	s.matchMode, s.matchFn = matchFunc, match
	m := p.recvMatched()
	s.matchFn = nil // do not retain the closure past the call
	return m
}

// RecvSrcTag is Recv with the ubiquitous (source, tag) predicate
// evaluated inside the kernel: src and tag each either name an exact
// value or are the wildcard Any. Unlike Recv it needs no per-call
// closure, so the mpi receive path stays allocation-free.
func (p *Proc) RecvSrcTag(src, tag int) *Message {
	s := p.slot
	p.checkBlockingCall("RecvSrcTag")
	s.matchMode, s.matchSrc, s.matchTag = matchSrcTag, src, tag
	return p.recvMatched()
}

// checkBlockingCall rejects blocking primitives inside a continuation
// handler: a handler runs on the worker's event-loop goroutine and must
// arm a wait instead of blocking.
func (p *Proc) checkBlockingCall(what string) {
	if p.slot.inHandler && p.body == nil {
		panic(fmt.Sprintf("sim: %s inside a continuation handler on proc %d (arm WaitRecv/WaitRecvFn/WaitSleep instead)", what, p.id))
	}
}

// matches evaluates the published receive predicate against m.
func (p *Proc) matches(m *Message) bool {
	s := p.slot
	switch s.matchMode {
	case matchFunc:
		return s.matchFn(m)
	case matchSrcTag:
		return (s.matchSrc == Any || m.From == s.matchSrc) &&
			(s.matchTag == Any || m.Tag == s.matchTag)
	default:
		return false
	}
}

// recvMatched completes a receive whose predicate has been published in
// the match fields: take an already-arrived match if any, otherwise
// block until the kernel hands one over.
func (p *Proc) recvMatched() *Message {
	s := p.slot
	if m := p.takeMatched(); m != nil {
		s.matchMode = matchNone
		p.completeRecv(m)
		return m
	}
	s.state = stBlocked
	m := p.yield()
	s.matchMode = matchNone
	s.state = stRunnable
	if m == nil {
		// Teardown (deadlock or guard abort): the kernel unblocks us so
		// the goroutine can exit; run recognizes the sentinel and exits
		// without recording an error.
		panic(errTeardown)
	}
	p.completeRecv(m)
	return m
}

// yield donates this goroutine to the worker's event loop until an event
// resumes p. This is the direct-handoff scheduler: control flows from
// the yielding process straight to the next one with a single channel
// send (loopHandoff), or with none at all when the next event resumes p
// itself (loopSelf). Only when the window is exhausted does control
// return to the worker driver.
func (p *Proc) yield() *Message {
	w := p.worker
	st, m := w.runLoop(p)
	switch st {
	case loopSelf:
		return m
	case loopWindowDone:
		w.parked <- struct{}{}
	}
	return <-p.resume
}

// completeRecv advances the clock past the message arrival and accounts
// for blocking time.
func (p *Proc) completeRecv(m *Message) {
	s := p.slot
	if m.Arrival > s.now {
		s.stats.BlockedTime += m.Arrival - s.now
		s.now = m.Arrival
	}
	s.stats.MsgsRecvd++
	s.stats.BytesRecvd += m.Size
}

// takeMatched removes and returns the earliest mailbox message matching
// the published predicate: because the mailbox is sorted (see the field
// doc), that is the first match.
func (p *Proc) takeMatched() *Message {
	s := p.slot
	o := p.worker.obs
	if o != nil {
		o.scans++
	}
	for i := s.mbHead; i < len(s.mailbox); i++ {
		m := s.mailbox[i]
		if !p.matches(m) {
			continue
		}
		if o != nil {
			o.scanned += int64(i - s.mbHead + 1)
		}
		if i == s.mbHead {
			s.mailbox[i] = nil
			s.mbHead++
			if s.mbHead == len(s.mailbox) {
				s.mailbox = s.mailbox[:0]
				s.mbHead = 0
			}
		} else {
			s.mailbox = append(s.mailbox[:i], s.mailbox[i+1:]...)
		}
		return m
	}
	if o != nil {
		o.scanned += int64(len(s.mailbox) - s.mbHead)
	}
	return nil
}

// HasMatch reports whether a matching message has already arrived. It
// supports probe-style optimizations but never blocks; a false result
// does not imply no such message will arrive (conservatively, callers
// must still Recv).
func (p *Proc) HasMatch(match func(*Message) bool) bool {
	s := p.slot
	for _, m := range s.mailbox[s.mbHead:] {
		if match(m) {
			return true
		}
	}
	return false
}

// FreeMessage returns a message obtained from Recv/RecvSrcTag to the
// process's worker pool. Optional; see Message. Must only be called from
// the body function, on a message this process received, at most once.
func (p *Proc) FreeMessage(m *Message) {
	p.worker.freeMessage(m)
}

// messageLess orders messages by (arrival, sender, sequence).
func messageLess(a, b *Message) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.seq < b.seq
}

// Sleep suspends the process until the given absolute simulated time,
// yielding to the kernel. Unlike Advance it allows other processes'
// messages to be matched first; it exists for test scenarios and
// time-driven workloads. Sleeping into the past is a no-op. Continuation
// handlers must arm WaitSleep instead.
func (p *Proc) Sleep(until Time) {
	s := p.slot
	if until <= s.now {
		return
	}
	p.checkBlockingCall("Sleep")
	w := p.worker
	w.queue.push(event{t: until, proc: p.id, seq: p.nextSeq(), kind: evWake, dst: p.id})
	s.state = stBlocked // matchMode is matchNone: arrivals queue in the mailbox
	p.yield()
	if p.kernel.teardown {
		// A guard abort can tear down a sleeper (its wake event is still
		// queued); the nil resume is an exit request, not the wake.
		panic(errTeardown)
	}
	s.state = stRunnable
	if until > s.now {
		s.now = until
	}
}

// run executes the process body on the pooled carrier goroutine g,
// capturing panics as errors. On return the goroutine still holds the
// worker's run token: it releases g back to the worker's pool (so a
// start event popped by the trailing loop can reuse the warm goroutine)
// and keeps driving the event loop until it can hand off or the window
// is done.
func (p *Proc) run(g *gworker) {
	defer func() {
		if r := recover(); r != nil && r != errTeardown {
			p.err = &PanicError{Proc: p.id, Name: p.name, Value: r}
			if g := p.kernel.guard; g != nil {
				g.trip(tripPanic, fmt.Sprintf("proc %d (%s) panicked: %v", p.id, p.name, r))
			}
		}
		s := p.slot
		s.state = stDone
		s.stats.FinishTime = s.now
		w := p.worker
		w.freeG = append(w.freeG, g)
		st := loopWindowDone
		func() {
			defer func() {
				if rr := recover(); rr != nil {
					// The trailing event loop itself failed (corrupted
					// queue, panicking predicate). With the guard live,
					// abort and fall through to park so the driver
					// survives; without it, preserve the hard crash — a
					// silent infinite window would be worse.
					g := p.kernel.guard
					if g == nil {
						panic(rr)
					}
					g.trip(tripPanic, fmt.Sprintf("event loop on proc %d (%s): %v", p.id, p.name, rr))
				}
			}()
			st, _ = w.runLoop(nil)
		}()
		if st == loopWindowDone {
			w.parked <- struct{}{}
		}
	}()
	p.slot.state = stRunnable
	p.body(p)
}
