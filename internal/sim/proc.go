package sim

import (
	"errors"
	"fmt"
)

// errTeardown is the panic value that takes a process out of a run that
// is over: a handler leaves through it from CheckAbort, a blocking body
// when the kernel unwinds it (body.go). It is compared by identity in
// invokeCont's recover and never reaches p.err: a torn-down process is
// not a failed one.
var errTeardown = errors.New("sim: process terminated by kernel teardown")

// Time is simulated time in seconds.
type Time float64

// Infinity is a time later than any event.
const Infinity = Time(1e300)

// Any is the wildcard for WaitRecv's source and tag arguments. It is
// an exact sentinel (not "any negative value"): the mpi layer reserves
// large negative tags for collectives, which must not match a wildcard.
const Any = -1

// Message is a unit of simulated communication between processes. The
// mpi package layers MPI envelope semantics on top: Tag carries the MPI
// tag (or an internal collective tag), Payload the user data.
//
// Messages are pooled. The receiver owns the message its armed receive
// matched and may recycle it with FreeMessage once it is done with every
// field, including Payload; freeing is optional, freeing twice panics.
// Senders must not retain the message after Send.
type Message struct {
	From, To int  // process ids
	Tag      int  // mpi-layer tag, matched by WaitRecv
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
	stBlocked // in an armed wait: a receive or a sleep
	stDone
)

// ProcStats accumulates per-process accounting used for validation,
// Table 1 and the host-cost model.
type ProcStats struct {
	ComputeTime Time  // simulated time consumed by Advance (direct execution / delays)
	BlockedTime Time  // simulated time spent waiting in a receive
	MsgsSent    int64 // point-to-point messages issued
	BytesSent   int64
	MsgsRecvd   int64
	BytesRecvd  int64
	FinishTime  Time // local clock when the process ended
}

// procSlot is the hot per-process state, flattened into one
// index-addressed, worker-owned array (Kernel.slots): delivering to or
// waking process i touches the contiguous cache lines of slots[i]
// instead of chasing a pointer to a heap-scattered struct. Every field
// is owned by the process's worker (only the goroutine driving that
// worker's window touches it).
type procSlot struct {
	now   Time
	seq   uint64
	state procState
	// receiving: the armed wait is a receive for (matchSrc, matchTag);
	// false in a sleep, where nothing matches.
	receiving bool
	// Handler bookkeeping (cont.go): the wait the running handler armed,
	// and whether a handler is running (Wait* is rejected elsewhere).
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
	// cont is the pending handler (nil while one is running, and at the
	// end).
	cont       Cont
	sleepUntil Time
	stats      ProcStats
}

// Proc is a simulated process (one target MPI rank, in this system): its
// handlers run inline on its worker's goroutine. Kernel calls (Advance,
// Send, Wait*) coordinate it with simulated time and must only be called
// from a handler. Proc is the stable public handle; the hot state lives
// in the kernel's flat slot array (procSlot).
type Proc struct {
	id     int
	name   string
	kernel *Kernel
	worker *worker
	slot   *procSlot

	cont0 Cont  // start handler
	body  *body // set by Spawn only (body.go)

	err error // panic captured from a handler
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
// under the conservative protocols. A negative or NaN d is refused: the
// event order needs finite, monotone clocks.
func (p *Proc) Advance(d Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative Advance(%v) on proc %d", d, p.id))
	}
	s := p.slot
	s.now += d
	s.stats.ComputeTime += d
}

// CheckAbort unwinds the calling handler when the run's guard has
// tripped (budget, watchdog, cancellation). The worker loop polls the
// abort flag between events; a handler computing for a long time without
// returning polls it through here, and its process ends the way a
// blocked one does at teardown — torn down, not failed.
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

// SendTag is Send with an explicit tag for WaitRecv matching.
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
	if !(arrival >= s.now) { // NaN included
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
	if !(arrival >= s.now) {
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
	if !(arrival >= p.slot.now) {
		panic(fmt.Sprintf("sim: Forward arrival %v before local time %v", arrival, p.slot.now))
	}
	w := p.worker
	m.To = dst
	m.Arrival = arrival
	m.seq = p.nextSeq()
	w.sendOut(event{t: arrival, proc: p.id, seq: m.seq, kind: evDeliver, dst: dst, msg: m})
}

// matches evaluates the armed receive against m: source and tag each
// either name an exact value or are the wildcard Any.
func (p *Proc) matches(m *Message) bool {
	s := p.slot
	return s.receiving &&
		(s.matchSrc == Any || m.From == s.matchSrc) &&
		(s.matchTag == Any || m.Tag == s.matchTag)
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
// the armed receive: because the mailbox is sorted (see the field doc),
// that is the first match.
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

// FreeMessage returns a message this process received to its worker's
// pool. Optional; see Message. Must only be called by the process, at
// most once.
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
