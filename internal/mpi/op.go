package mpi

import "mpisim/internal/sim"

// A rank waits in exactly one place — for a message, in await — and every
// send is eager. Each operation that can wait is therefore stated once,
// as a machine over the rank's opState: a Start method sets the state up
// and runs the machine until the operation completes or needs a message;
// the machine then records the (src, tag) it wants and returns, and
// arrived resumes it with that message. A loop around a receive keeps its
// counter in the state and re-enters at the receive, message in hand.
//
// Two drivers satisfy the wants: Rank.handle, the continuation handler of
// a Program, arms the kernel wait and returns; Rank.block (blocking.go)
// calls the blocking kernel receive on a World.Run body. Both run the
// same statements in the same order between two waits, so the events,
// the accounting and the trace are the same (DESIGN.md "MPI layer").

// opKind names the machine of the operation in flight.
type opKind uint8

const (
	opNone opKind = iota // no operation is waiting
	opRecv               // a receive: recv, sendrecv's second leg, a request's wait
	opBcast
	opReduce
	opAllreduce // a reduce to rank 0, then a bcast from it
	opGather
	opScatter
	opAllgather
	opAlltoall
)

// opState is the operation a rank has in flight, and the results of the
// one that last completed.
type opState struct {
	kind opKind
	// The message the operation waits for, and when the wait began.
	src, tag int
	t0       float64
	// Results: a receive's size and payload (also every collective's last
	// constituent receive), a collective's vector or vectors.
	size    int64
	payload interface{}
	vec     []float64
	out     [][]float64
	// req is the request a completed receive fills in.
	req *Request
	// Collective state: the tree's root, this rank relative to it and the
	// mask of the round; the step of a ring or linear exchange; what is
	// sent.
	root, rel  int
	mask, step int
	bytes      int64
	reduce     ReduceOp
	chunks     [][]float64
	sizes      []int64
	// bcasting marks an allreduce past its reduce.
	bcasting bool
	// The open trace interval of the primitive collective ("" = none):
	// its name, start and the payload this rank contributes.
	phase      string
	phaseStart float64
	phaseBytes int64
}

// Waiting reports whether the operation last started is waiting for a
// message. A Program returns from Step while it is.
func (r *Rank) Waiting() bool { return r.op.kind != opNone }

// Received returns the size and payload of the last completed receive.
func (r *Rank) Received() (int64, interface{}) { return r.op.size, r.op.payload }

// Vector returns the result of the last completed Bcast, Reduce,
// Allreduce or Scatter.
func (r *Rank) Vector() []float64 { return r.op.vec }

// Vectors returns the result of the last completed Gather, Allgather or
// Alltoall.
func (r *Rank) Vectors() [][]float64 { return r.op.out }

// simulated reports whether messages are simulated at all: under
// AbstractComm every operation is charged in closed form and completes
// without waiting.
func (r *Rank) simulated() bool { return r.world.cfg.Comm != AbstractComm }

// recv starts a point-to-point receive as (the rest of) the operation in
// flight.
func (r *Rank) recv(src, tag int, expect int64) {
	if !r.simulated() {
		n := &r.world.cfg.Machine.Net
		r.commCPU += sim.Time(n.RecvOverhead)
		r.proc.Advance(sim.Time(n.AnalyticDelay(expect) + n.RecvOverhead))
		r.op.size = expect
		return
	}
	r.op.kind = opRecv
	r.await(src, tag)
}

// await makes the operation in flight wait for a message from (src, tag).
func (r *Rank) await(src, tag int) {
	if r.faults != nil {
		r.checkCrash()
	}
	r.op.src, r.op.tag, r.op.t0 = src, tag, r.Now()
}

// arrived resumes the operation in flight with the message it waited
// for: it accounts the wait and the receive, then runs the machine on.
func (r *Rank) arrived(m *sim.Message) {
	t0, now := r.op.t0, r.Now()
	// Attribute to faults the part of the wait the message's FaultDelay
	// explains: had the machine been healthy, the message would have
	// arrived that much earlier, capped by how long we actually waited.
	// The message's link-contention wait (NetWait) is attributed the same
	// way, capped by the wait the fault share has not already claimed.
	fb := float64(m.FaultDelay)
	if fb > now-t0 {
		fb = now - t0
	}
	if r.faults == nil {
		fb = 0
	}
	nb := float64(m.NetWait)
	if nb > now-t0-fb {
		nb = now - t0 - fb
	}
	r.segment(t0, now-fb-nb, SegBlocked)
	if nb > 0 {
		r.netBlocked += sim.Time(nb)
		r.segment(now-fb-nb, now-fb, SegNet)
	}
	if fb > 0 {
		r.faultBlocked += sim.Time(fb)
		r.segment(now-fb, now, SegFault)
	}
	r.op.size, r.op.payload = r.finishRecv(m)
	r.advance(true)
}

func (r *Rank) finishRecv(m *sim.Message) (int64, interface{}) {
	n := &r.world.cfg.Machine.Net
	if r.world.cfg.Comm == Detailed && m.From != r.rank {
		// Serialize through the receive NIC.
		ready := m.Arrival
		if r.nicRecvFree > ready {
			ready = r.nicRecvFree
		}
		r.nicRecvFree = ready + sim.Time(float64(m.Size)*n.GapPerByte)
		if ready > r.proc.Now() {
			r.segment(r.Now(), float64(ready), SegBlocked)
			r.proc.Advance(ready - r.proc.Now())
		}
	}
	cpu := sim.Time(n.RecvOverhead)
	if m.From == r.rank {
		cpu = sim.Time(n.RecvOverhead / 4)
	}
	r.commCPU += cpu
	r.segment(r.Now(), r.Now()+float64(cpu), SegComm)
	if r.world.cfg.CollectTrace {
		r.commEvents = append(r.commEvents, CommEvent{
			From: m.From, SendTime: float64(m.SendTime),
			Arrival: float64(m.Arrival), Complete: r.Now(),
			Size: m.Size, Tag: m.Tag,
			Hops: m.Hops, NetWait: float64(m.NetWait),
		})
	}
	r.proc.Advance(cpu)
	size, data := m.Size, m.Payload
	// The message and every field have been consumed; recycle it.
	r.proc.FreeMessage(m)
	return size, data
}

// advance runs the machine of the operation in flight until the operation
// completes or awaits a message. got says the message it last awaited has
// arrived (size and payload are in the state).
func (r *Rank) advance(got bool) {
	o := &r.op
	done := true
	switch o.kind {
	case opRecv:
		if o.req != nil {
			o.req.size, o.req.data = o.size, o.payload
		}
	case opBcast:
		done = r.bcast(got)
	case opReduce:
		done = r.reduceTo(got)
	case opAllreduce:
		if !o.bcasting {
			if !r.reduceTo(got) {
				return
			}
			r.closeColl()
			o.bcasting, got = true, false
			r.openTree("bcast", 0, o.vec, o.bytes)
		}
		done = r.bcast(got)
	case opGather:
		done = r.gather(got)
	case opScatter:
		done = r.scatter(got)
	case opAllgather:
		done = r.allgather(got)
	case opAlltoall:
		done = r.alltoall(got)
	}
	if done {
		r.closeColl()
		o.kind = opNone
	}
}

// handle is the rank's one continuation handler under RunProgram: resume
// the operation that waited, run the program until it ends or an
// operation it started waits, arm that operation's want.
func (r *Rank) handle(p *sim.Proc, m *sim.Message) (next sim.Cont) {
	defer func() {
		if rec := recover(); rec != nil {
			r.exit(rec)
			next = nil
		}
	}()
	if m != nil {
		r.arrived(m)
	} else {
		r.prog = r.world.start(r)
	}
	for !r.Waiting() {
		if r.prog.Step() {
			r.exit(nil)
			return nil
		}
	}
	p.WaitRecv(r.op.src, r.op.tag)
	return r.self
}

// exit ends the rank's process. rec is what unwound it: nil when its
// program ended; errRankCrash at an injected stop-failure, where the rank
// ends at its crash time and peers waiting on it block until retries, the
// watchdog or a deadlock resolve the run; anything else (a fault of the
// target program, kernel teardown) is the kernel's to report and is
// raised again. A rank that ended retires with the fabric.
func (r *Rank) exit(rec interface{}) {
	if rec != nil && rec != errRankCrash {
		panic(rec)
	}
	if r.world.net != nil {
		r.sendNetDone()
	}
}
