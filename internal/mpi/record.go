package mpi

import "fmt"

// Call is one recorded API-level MPI operation, captured under
// Config.RecordCalls. The sequence of calls per rank is everything a
// replay needs to reproduce the predicted schedule: payload values never
// affect timing (only sizes do), so calls carry sizes and metadata but
// no data. Composed operations record as a single call (an Allreduce
// is one "allreduce", not its constituent reduce+bcast), and
// nonblocking operations record at the point their cost lands: Isend as
// a "send" (the eager model buffers immediately), Irecv at its Wait as
// a "recv".
type Call struct {
	// Op names the operation: compute, delay, send, recv, sendrecv,
	// bcast, reduce, allreduce, barrier, gather, scatter, allgather,
	// alltoall.
	Op string
	// Sec is the local-work duration of a compute or delay, in seconds.
	Sec float64
	// Task is the condensed-task attribution of a delay ("" = none).
	Task string
	// Peer is the destination rank of a send / sendrecv send leg, or
	// the source rank of a recv (AnySource for the wildcard).
	Peer int
	// Tag is the message tag of the Peer leg.
	Tag int
	// Bytes is the message size of a send, the receiver's declared size
	// of a recv (what the AbstractComm model charges), or the
	// per-participant payload size of a collective.
	Bytes int64
	// Peer2 and Tag2 are the receive leg of a sendrecv.
	Peer2 int
	Tag2  int
	// Root is the root rank of a rooted collective (bcast, reduce,
	// gather, scatter).
	Root int
	// Sizes holds per-destination chunk bytes of a variable-size
	// scatter (recorded at the root only) or alltoall.
	Sizes []int64
}

// The relative-peer rule. A rank that issues the calls another rank
// issued, d ranks further on (a replaying class member, a folded trace's
// member), moves each point-to-point peer by d: Peer of a send, recv or
// sendrecv and Peer2 of a sendrecv, except the receive wildcard. Roots
// stay absolute.

// MovingPeers reports which of c's peers move with the rank. It is
// decided by the op, never by a value: Peer is zero on ops that carry
// none and Peer2 on everything but sendrecv, and moving those zeros
// would give every rank calls of its own.
func (c *Call) MovingPeers() (peer, peer2 bool) {
	switch c.Op {
	case "send", "recv":
		return true, false
	case "sendrecv":
		return true, true
	}
	return false, false
}

// ShiftPeer moves a peer by d unless it is the receive wildcard.
func ShiftPeer(peer, d int) int {
	if peer == AnySource {
		return peer
	}
	return peer + d
}

// AppendShifted appends calls to dst with every moving peer shifted by d.
func AppendShifted(dst, calls []Call, d int) []Call {
	n := len(dst)
	dst = append(dst, calls...)
	if d == 0 {
		return dst
	}
	for i := n; i < len(dst); i++ {
		c := &dst[i]
		peer, peer2 := c.MovingPeers()
		if peer {
			c.Peer = ShiftPeer(c.Peer, d)
		}
		if peer2 {
			c.Peer2 = ShiftPeer(c.Peer2, d)
		}
	}
	return dst
}

// log captures an API-level call when recording is enabled. Only the
// public operations call it: a collective's constituent messages and the
// receive leg of a Sendrecv are implementation detail that replaying the
// outer call re-derives. Arguments are captured before execution, so a
// run that crashes mid-call still records the call and replays to the
// same schedule under the same fault scenario.
func (r *Rank) log(c Call) {
	if !r.world.cfg.RecordCalls {
		return
	}
	if _, replays := r.prog.(*replayer); replays {
		return // its log is the stream it replays (callLogs)
	}
	if len(r.calls) == cap(r.calls) {
		r.nextCallChunk()
	}
	r.calls = append(r.calls, c)
}

// Detached returns rank rank of a world of cfg.Ranks that simulates
// nothing: Compute, DelayTask, Send, StartRecv, StartBcast,
// StartAllreduce and StartBarrier log their call and complete at once
// with no data, and there is no clock. internal/interp takes from it the
// call stream a class replays.
func Detached(cfg Config, rank int) *Rank {
	cfg.RecordCalls = true
	return &Rank{world: &World{cfg: cfg}, rank: rank}
}

func (r *Rank) detached() bool { return r.proc == nil }

// CallLog returns the calls the rank has logged and releases them.
func (r *Rank) CallLog() []Call { return r.callLog() }

// A rank's call log is a list of chunks — a small first one, so a rank
// that records a handful of calls stays cheap at any world size, then
// fixed ones of callChunk calls (14 KB, an allocator size class).
// Recording copies no call until callLog flattens the chunks once; the
// single regrowing slice this replaces copied each call five times over
// and spent a third of a recorded run in growslice.
const (
	firstCallChunk = 16
	callChunk      = 128
)

// nextCallChunk retires the full current chunk and opens a new one.
func (r *Rank) nextCallChunk() {
	n := firstCallChunk
	if r.calls != nil {
		r.callChunks = append(r.callChunks, r.calls)
		n = callChunk
	}
	r.calls = make([]Call, 0, n)
}

// callLog returns the rank's recorded calls as one slice (nil when it
// recorded none) and releases the chunks.
func (r *Rank) callLog() []Call {
	log := r.calls
	if len(r.callChunks) > 0 {
		n := len(r.calls)
		for _, ch := range r.callChunks {
			n += len(ch)
		}
		log = make([]Call, 0, n)
		for _, ch := range r.callChunks {
			log = append(log, ch...)
		}
		log = append(log, r.calls...)
	}
	r.calls, r.callChunks = nil, nil
	return log
}

// CommByName maps a communication-model name (the CommModel.String
// forms) back to the model, for consumers that persist the model choice
// (recorded traces, job specs).
func CommByName(name string) (CommModel, error) {
	switch name {
	case "analytic", "":
		return Analytic, nil
	case "detailed":
		return Detailed, nil
	case "abstract":
		return AbstractComm, nil
	}
	return 0, fmt.Errorf("mpi: unknown communication model %q", name)
}
