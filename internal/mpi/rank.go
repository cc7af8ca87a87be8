package mpi

import (
	"errors"
	"fmt"
	"math"

	"mpisim/internal/fault"
	"mpisim/internal/machine"
	"mpisim/internal/sim"
)

// errRankCrash unwinds a rank at an injected stop-failure; Rank.exit
// recovers it, ending the rank at its crash time.
var errRankCrash = errors.New("mpi: injected rank crash")

// Rank is one target MPI process. All methods must be called from the
// rank's own program or body function.
type Rank struct {
	world *World
	proc  *sim.Proc
	rank  int

	// op is the operation in flight (op.go); prog and self are the
	// rank's program and its one continuation handler under RunProgram.
	op   opState
	prog Program
	self sim.Cont

	// Detailed-model NIC occupancy state.
	nicSendFree sim.Time
	nicRecvFree sim.Time
	// Non-overtaking guarantee: last arrival time per destination.
	lastArrival map[int]sim.Time

	delayTime   sim.Time
	commCPU     sim.Time
	curBytes    int64
	peakBytes   int64
	collectives int64
	// AbstractComm accounting (no kernel messages exist to count).
	abstractSent  int64
	abstractBytes int64
	// Per-destination accounting, allocated when CollectMatrix is set.
	msgMatrix  []int64
	byteMatrix []int64
	// Activity segments, collected when CollectTrace is set.
	segments []Segment
	// Received-message records, collected when CollectTrace is set.
	commEvents []CommEvent
	// Collective intervals, collected when CollectTrace is set.
	collPhases []CollPhase
	// Delay seconds per condensed task name.
	delayByTask map[string]float64
	// API-level call log, collected when RecordCalls is set: the chunk
	// being filled and the full ones before it (record.go).
	calls      []Call
	callChunks [][]Call

	// Fault injection (nil / zero without an active scenario). faultCPU
	// is fault time consumed through Advance (retransmission CPU,
	// duplicate handling, compute-slowdown excess); faultBlocked is the
	// portion of kernel BlockedTime caused by fault-delayed messages.
	faults        *fault.RankFaults
	hasCrash      bool
	crashDeadline sim.Time
	crashed       bool
	faultCPU      sim.Time
	faultBlocked  sim.Time

	// Topology-mode accounting (zero under the flat network model):
	// netBlocked is the portion of kernel BlockedTime caused by link
	// contention; netIntraMsgs/netIntraBytes count node-local transfers
	// that bypassed the fabric.
	netBlocked    sim.Time
	netIntraMsgs  int64
	netIntraBytes int64
}

// segment appends a trace segment when tracing is enabled; zero-length
// segments are dropped.
func (r *Rank) segment(start, end float64, kind SegKind) {
	if !r.world.cfg.CollectTrace || end <= start {
		return
	}
	r.segments = append(r.segments, Segment{Start: start, End: end, Kind: kind})
}

// Rank returns this process's rank in 0..Size()-1.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.cfg.Ranks }

// Now returns the rank's local simulated time in seconds.
func (r *Rank) Now() float64 { return float64(r.proc.Now()) }

// Machine returns the target machine model.
func (r *Rank) Machine() *machine.Model { return r.world.cfg.Machine }

// CheckAbort unwinds the rank when the run has been aborted
// (sim.Proc.CheckAbort). A program calls it from long stretches of local
// computation that reach no MPI call.
func (r *Rank) CheckAbort() {
	if !r.detached() {
		r.proc.CheckAbort()
	}
}

// checkCrash fires the rank's injected stop-failure once its local clock
// has reached the crash time. Crashes are detected at MPI-call
// boundaries (and mid-work by advanceWork); a rank blocked forever in
// Recv past its crash time is resolved by the watchdog or the deadlock
// detector instead.
func (r *Rank) checkCrash() {
	if r.hasCrash && !r.crashed && r.proc.Now() >= r.crashDeadline {
		r.crash()
	}
}

// crash records the stop-failure and unwinds the rank.
func (r *Rank) crash() {
	r.crashed = true
	r.faults.RecordCrash()
	panic(errRankCrash)
}

// advanceWork advances local work of the given base duration, applying
// any transient compute slowdown (the factor sampled at the start of the
// work item applies to the whole item) and stopping at an injected
// crash. It returns the base seconds actually performed and whether the
// rank crashed mid-work; the caller accounts the work, then must call
// crash() when crashed is true.
func (r *Rank) advanceWork(seconds float64, kind SegKind) (done float64, crashed bool) {
	if r.detached() {
		return seconds, false
	}
	if r.faults == nil {
		r.segment(r.Now(), r.Now()+seconds, kind)
		r.proc.Advance(sim.Time(seconds))
		return seconds, false
	}
	r.checkCrash()
	now := r.Now()
	factor := r.faults.ComputeFactor(now)
	total := seconds * factor
	done = seconds
	if r.hasCrash && sim.Time(now+total) >= r.crashDeadline {
		total = float64(r.crashDeadline) - now
		if total < 0 {
			total = 0
		}
		done = total / factor
		crashed = true
	}
	r.segment(now, now+done, kind)
	if excess := total - done; excess > 0 {
		r.segment(now+done, now+total, SegFault)
		r.faultCPU += sim.Time(excess)
	}
	r.proc.Advance(sim.Time(total))
	return done, crashed
}

// Compute directly executes local computation costing the given seconds
// of target time (MPI-Sim's direct execution of sequential code blocks).
func (r *Rank) Compute(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("mpi: negative Compute(%g)", seconds))
	}
	r.log(Call{Op: "compute", Sec: seconds})
	_, crashed := r.advanceWork(seconds, SegCompute)
	if crashed {
		r.crash()
	}
}

// Delay is the simulator-provided delay function of the paper: it simply
// forwards the simulation clock on the simulation thread by a specified
// amount. It is the replacement for collapsed computational tasks in the
// simplified (MPI-SIM-AM) programs.
func (r *Rank) Delay(seconds float64) { r.DelayTask("", seconds) }

// DelayTask is Delay attributed to a named condensed task, so reports
// can break predicted computation down per task.
func (r *Rank) DelayTask(task string, seconds float64) {
	if math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		// A clock that is not finite has no place in the event order.
		panic(fmt.Sprintf("mpi: task %s delays %v seconds; a delay must be finite", task, seconds))
	}
	if seconds < 0 {
		// Scaling functions can yield tiny negative values for degenerate
		// (empty) iteration spaces; clamp as the runtime library would.
		seconds = 0
	}
	r.log(Call{Op: "delay", Task: task, Sec: seconds})
	done, crashed := r.advanceWork(seconds, SegDelay)
	r.delayTime += sim.Time(done)
	if task != "" {
		if r.delayByTask == nil {
			r.delayByTask = map[string]float64{}
		}
		r.delayByTask[task] += done
	}
	if crashed {
		r.crash()
	}
}

// ReadTaskTime returns the measured w_i parameter with the given name
// from the calibration table (the simplified program's preamble, paper
// §3.1: "read in the value of the parameter from a file and broadcast it
// to all processors"). The read-and-broadcast is instrumentation of the
// simplified program rather than behaviour of the application being
// predicted, so it is charged zero simulated time; otherwise the
// preamble's broadcast latency would bias predictions for short runs.
func (r *Rank) ReadTaskTime(name string) float64 {
	return r.world.cfg.TaskTimes[name]
}

// TrackAlloc records allocation of n bytes of target-program memory. The
// interpreter calls it for every array the target program allocates; the
// direct-execution simulator therefore "uses at least as much memory as
// the application" while the optimized simulator tracks only the dummy
// communication buffer and retained scalars.
func (r *Rank) TrackAlloc(n int64) {
	r.curBytes += n
	if r.curBytes > r.peakBytes {
		r.peakBytes = r.curBytes
	}
	if err := r.world.trackAlloc(n); err != nil {
		panic(err.Error())
	}
}

// TrackFree records release of n bytes of target-program memory.
func (r *Rank) TrackFree(n int64) {
	r.curBytes -= n
	r.world.memMu.Lock()
	r.world.memUsed -= n
	r.world.memMu.Unlock()
}

// sendTimes computes (cpuOverhead, arrivalTime) for a message of size
// bytes issued now, under the configured communication model. faultDelay
// is injected transit delay (retransmission waits, delay injection, link
// slowdown excess); it joins the arrival before the non-overtaking clamp
// so later messages on the same pair can never overtake a fault-delayed
// one.
func (r *Rank) sendTimes(dst int, size int64, faultDelay sim.Time) (cpu sim.Time, arrival sim.Time) {
	n := &r.world.cfg.Machine.Net
	now := r.proc.Now()
	if dst == r.rank {
		// Self message: a memory copy, no network traversal. Same-worker
		// delivery, so it is exempt from the lookahead bound.
		cpu = sim.Time(n.SendOverhead / 4)
		arrival = now + cpu + sim.Time(float64(size)/(4*n.Bandwidth))
		return cpu, arrival
	}
	switch r.world.cfg.Comm {
	case Detailed:
		start := now
		if r.nicSendFree > start {
			start = r.nicSendFree
		}
		occupancy := sim.Time(n.SendOverhead + float64(size)*n.GapPerByte)
		r.nicSendFree = start + occupancy
		cpu = sim.Time(n.SendOverhead)
		arrival = start + occupancy + sim.Time(n.Latency+float64(size)/n.Bandwidth) + faultDelay
	default: // Analytic
		cpu = sim.Time(n.SendOverhead)
		arrival = now + cpu + sim.Time(n.Latency+float64(size)/n.Bandwidth) + faultDelay
	}
	// MPI non-overtaking: messages between the same pair are delivered in
	// send order.
	if r.lastArrival == nil {
		r.lastArrival = make(map[int]sim.Time)
	}
	if last := r.lastArrival[dst]; arrival < last {
		arrival = last
	}
	r.lastArrival[dst] = arrival
	return cpu, arrival
}

// send issues the message and charges sender-side CPU cost.
func (r *Rank) send(dst, tag int, size int64, data interface{}) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", dst, r.Size()))
	}
	if r.faults != nil {
		r.checkCrash()
	}
	if r.world.cfg.CollectMatrix {
		if r.msgMatrix == nil {
			r.msgMatrix = make([]int64, r.Size())
			r.byteMatrix = make([]int64, r.Size())
		}
		r.msgMatrix[dst]++
		r.byteMatrix[dst] += size
	}
	if r.world.cfg.Comm == AbstractComm {
		// Closed-form sender cost; no message is simulated.
		n := &r.world.cfg.Machine.Net
		cpu := sim.Time(n.SendOverhead)
		r.commCPU += cpu
		r.proc.Advance(cpu)
		r.abstractSent++
		r.abstractBytes += size
		return
	}
	var fate fault.MsgFate
	var faultDelay sim.Time
	if r.faults != nil && dst != r.rank {
		n := &r.world.cfg.Machine.Net
		fate = r.faults.SendFate(dst, r.Now())
		if fate.Lost {
			// Dropped with retries disabled or exhausted: no message is
			// issued. The sender still pays its overheads — the original
			// attempt as communication CPU, the retransmissions as fault
			// CPU — and the receiver provably hangs until the watchdog,
			// deadlock detector or an any-source match resolves it.
			cpu := sim.Time(n.SendOverhead)
			r.commCPU += cpu
			r.segment(r.Now(), r.Now()+float64(cpu), SegComm)
			r.proc.Advance(cpu)
			if retry := sim.Time(float64(fate.Retries) * n.SendOverhead); retry > 0 {
				r.faultCPU += retry
				r.segment(r.Now(), r.Now()+float64(retry), SegFault)
				r.proc.Advance(retry)
			}
			return
		}
	}
	if r.world.net != nil && dst != r.rank {
		// Non-flat topology: route through the interconnect model (the
		// fabric computes faultDelay against the real path there).
		r.sendNet(dst, tag, size, data, fate)
	} else {
		if r.faults != nil && dst != r.rank {
			n := &r.world.cfg.Machine.Net
			faultDelay = sim.Time(fate.RetryWait + fate.ExtraDelay +
				(fate.LinkFactor-1)*(n.Latency+float64(size)/n.Bandwidth))
		}
		cpu, arrival := r.sendTimes(dst, size, faultDelay)
		r.proc.SendTagFault(dst, tag, data, size, arrival, faultDelay)
		r.commCPU += cpu
		r.segment(r.Now(), r.Now()+float64(cpu), SegComm)
		r.proc.Advance(cpu)
	}
	if fate.Retries > 0 || fate.Duplicated {
		// Sender CPU for each retransmitted copy plus one for handling
		// the suppressed duplicate.
		n := &r.world.cfg.Machine.Net
		extra := sim.Time(float64(fate.Retries) * n.SendOverhead)
		if fate.Duplicated {
			extra += sim.Time(n.SendOverhead)
		}
		r.faultCPU += extra
		r.segment(r.Now(), r.Now()+float64(extra), SegFault)
		r.proc.Advance(extra)
	}
}

// Send is a standard-mode send of size bytes with the given tag. Sends
// are modeled as eager/buffered: the call returns after the sender CPU
// overhead and never waits. data is an optional payload carried to the
// receiver (the direct-execution interpreter moves real array sections;
// the simplified programs send nil, standing for the dummy buffer).
func (r *Rank) Send(dst, tag int, size int64, data interface{}) {
	r.log(Call{Op: "send", Peer: dst, Tag: tag, Bytes: size})
	if r.detached() {
		return
	}
	r.send(dst, tag, size, data)
}

// AnyTag matches any message tag. AnyTag and AnySource equal the
// kernel's exact wildcard sentinel sim.Any, so (src, tag) matching is
// evaluated inside the kernel with no per-receive closure.
const AnyTag = sim.Any

// StartRecv starts a receive of a message with the given source and tag;
// Received returns its size and payload once it has completed.
// Receiver-side costs (CPU overhead, and NIC serialization under the
// Detailed model) are charged on completion. expect is the receiver's
// declared message size, which the AbstractComm model needs to compute
// the closed-form transfer cost ("based on message size, message
// destination, etc.", paper §5); the event-driven models ignore it and
// use the real message's size.
func (r *Rank) StartRecv(src, tag int, expect int64) {
	r.log(Call{Op: "recv", Peer: src, Tag: tag, Bytes: expect})
	r.op = opState{}
	if r.detached() {
		return
	}
	r.recv(src, tag, expect)
}

// StartSendrecv starts a combined send and receive, as used by shift
// communications. The send is issued first (eager), then the receive
// waits; this cannot deadlock under the eager model.
func (r *Rank) StartSendrecv(dst, sendTag int, size int64, data interface{}, src, recvTag int) {
	r.log(Call{Op: "sendrecv", Peer: dst, Tag: sendTag, Bytes: size, Peer2: src, Tag2: recvTag})
	r.op = opState{}
	r.send(dst, sendTag, size, data)
	r.recv(src, recvTag, 0)
}

// Request represents a nonblocking operation handle.
type Request struct {
	rank   *Rank
	isSend bool
	src    int
	tag    int
	done   bool
	size   int64
	data   interface{}
}

// Isend starts a nonblocking send. Under the eager model the message is
// buffered immediately, so the request is born complete.
func (r *Rank) Isend(dst, tag int, size int64, data interface{}) *Request {
	// Recorded as a plain send: timing is identical under the eager
	// model, so the replay need not distinguish the two.
	r.Send(dst, tag, size, data)
	return &Request{rank: r, isSend: true, done: true}
}

// Irecv posts a nonblocking receive for (src, tag). The match is made at
// wait time.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{rank: r, isSend: false, src: src, tag: tag}
}

// StartWait starts the completion of the request: the receive of a
// posted Irecv, nothing for a send or a request already waited for.
// Received returns the received size and payload (zero values for sends).
func (req *Request) StartWait() {
	r := req.rank
	if req.done {
		r.op = opState{size: req.size, payload: req.data}
		return
	}
	req.done = true
	r.StartRecv(req.src, req.tag, 0)
	if r.Waiting() {
		r.op.req = req
	}
}
