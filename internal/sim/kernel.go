// Package sim is the discrete-event simulation kernel underlying the
// MPI-Sim reproduction. It is process-oriented with one scheduler: a
// process (SpawnCont) is a chain of resumable run-to-completion handlers
// that run inline on its worker's own goroutine, interact with simulated
// time through kernel calls (Advance, Send) and arm a wait (WaitRecv,
// WaitSleep) instead of blocking — scalable to 100k+ target ranks since
// a process needs no goroutine, no channel operation and no stack of its
// own. Spawn, for tests and the benchmark harness, puts an arbitrary
// blocking function behind one such handler (body.go).
//
// Two engines are provided, mirroring MPI-Sim's sequential and
// conservative parallel simulation protocols:
//
//   - the sequential engine (Workers == 1) processes events from a single
//     queue in global (time, proc, seq) order;
//   - the parallel engine partitions processes over Workers host logical
//     processes and synchronizes them with a conservative time-window
//     protocol: in each round the window [T, T+Lookahead) is processed
//     concurrently by all workers, which is safe because every message
//     incurs at least Lookahead of network delay and therefore cannot be
//     received inside the window it was sent in.
//
// Simulation results are bit-identical across engines and worker counts;
// the kernel is deterministic by construction (total event order
// (time, proc, seq) over finite times, deterministic mailbox matching).
//
// The hot path is allocation-free in steady state: events are plain
// values in per-worker slabs, messages are pooled (pool.go), per-process
// hot state lives in one flat slot array (proc.go), and waking a process
// is a function call from the worker's event loop.
package sim

import (
	"fmt"
	"slices"
	"strings"

	"mpisim/internal/obs"
)

// Protocol selects the conservative synchronization protocol of the
// parallel engine (MPI-Sim provides "a set of conservative parallel
// simulation protocols"; this kernel provides two).
type Protocol int

const (
	// ProtocolWindow processes global time windows [T, T+Lookahead): all
	// workers advance in lockstep from the global minimum event time.
	ProtocolWindow Protocol = iota
	// ProtocolNullMessage exchanges per-worker clock promises
	// (Chandy-Misra-Bryant null messages, evaluated by synchronous
	// reduction rounds): each worker advances to the minimum promise of
	// its peers, which lets workers ahead of the global minimum keep
	// processing when their peers cannot affect them yet. Fewer, larger
	// rounds on pipelined workloads; identical simulation results.
	ProtocolNullMessage
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == ProtocolNullMessage {
		return "null-message"
	}
	return "window"
}

// Config controls the kernel.
type Config struct {
	// Workers is the number of host logical processes (>= 1). It models
	// the host processors of MPI-Sim. Values larger than the number of
	// spawned processes are clamped.
	Workers int
	// Lookahead is the conservative window width; it must be positive for
	// Workers > 1 and no larger than the minimum message delay, which the
	// mpi layer guarantees by setting it to the network's minimum latency.
	Lookahead Time
	// RealParallel, when true, executes each window's workers on separate
	// goroutines (true host parallelism). When false the workers are run
	// sequentially in worker order, which is useful to model large host
	// counts deterministically on few cores; results are identical.
	RealParallel bool
	// Protocol selects the conservative synchronization protocol for
	// Workers > 1 (default ProtocolWindow).
	Protocol Protocol
	// Metrics, when non-nil, receives simulator-plane metrics (event
	// throughput, pool hit rates, queue depth, scheduler counters, ...).
	// Size its shard count to Workers; see internal/obs. Nil disables
	// instrumentation down to one pointer check per hook.
	Metrics *obs.Registry
	// Tracer, when non-nil and enabled, receives sampled simulator-plane
	// counter tracks (queue depth, wallclock per virtual second) on
	// obs.PlaneSimulator. Neither option affects simulation results.
	Tracer *obs.Tracer
	// Timeline, when non-nil and enabled, receives time-series snapshots
	// of run vitals and registry metrics, offered from the existing
	// worker sample points (every obsSampleEvery events). A nil or
	// disabled timeline costs the hot path the same single nil check as
	// the other observability options; snapshots are strictly out of
	// band and never change simulation results.
	Timeline *obs.Timeline
	// RunInfo, when non-nil, receives progress heartbeats (virtual time,
	// committed events) from the same sample points, feeding live
	// percent/ETA reporting. Same cost discipline as Timeline.
	RunInfo *obs.RunInfo
	// Limits bounds the run: event/virtual-time budgets, the no-progress
	// watchdog, and context cancellation (guard.go). The zero value
	// disables the guard; an aborted run returns a partial Result and an
	// *AbortError.
	Limits Limits
}

// Result summarizes a completed simulation.
type Result struct {
	// EndTime is the maximum finish time over all processes: the
	// predicted execution time of the target program.
	EndTime Time
	// Procs holds per-process statistics indexed by process id.
	Procs []ProcStats
	// Events is the total number of kernel events processed.
	Events int64
	// Delivered is the number of messages delivered.
	Delivered int64
	// CrossWorker is the number of messages that crossed host workers.
	CrossWorker int64
	// Windows is the number of conservative windows executed (1 for the
	// sequential engine).
	Windows int64
}

// MaxProcTime returns the maximum over processes of the given accessor.
func (r *Result) MaxProcTime(f func(ProcStats) Time) Time {
	var m Time
	for _, ps := range r.Procs {
		if v := f(ps); v > m {
			m = v
		}
	}
	return m
}

// worker owns a partition of the processes and their pending events.
type worker struct {
	id     int
	kernel *Kernel
	queue  eventQueue
	end    Time    // current window bound, written by the driver
	outbox []event // cross-worker sends buffered until the barrier
	// Pooled message free list (pool.go) and its bound, sized from this
	// worker's share of the processes. Only touched by the goroutine
	// driving this worker's window.
	freeMsgs []*Message
	msgCap   int
	// Persistent window-driver channels, created only under
	// RealParallel: the driver publishes each round's bound on winStart
	// instead of spawning a goroutine per worker per window.
	winStart  chan Time
	winDone   chan struct{}
	events    int64
	delivered int64
	cross     int64
	// contWaiting counts processes of this worker parked in an armed
	// wait — the "continuation queue" depth sampled by obs.
	contWaiting int64
	// obs is nil unless Config.Metrics or Config.Tracer is set; every
	// instrumentation hook gates on that nil check (obs.go).
	obs *workerObs
	// guard is nil unless Config.Limits is active; same nil-check
	// discipline (guard.go).
	guard *guardState
}

// Kernel drives a set of spawned processes to completion.
type Kernel struct {
	cfg     Config
	procs   []*Proc
	slots   []procSlot // flat per-process hot state, indexed by proc id
	workers []*worker
	started bool
	// guard is non-nil when Config.Limits is active (guard.go).
	guard *kernelGuard
	// kobs is the resolved metric-handle set (nil when observability is
	// off); kept on the kernel for barrier-side hooks like the
	// cross-worker batch-bytes counter.
	kobs *kernelObs
	// Per-round scratch buffers, reused so rounds do not allocate.
	bounds     []Time
	mergeHeads []outCursor
}

// NewKernel returns a kernel with the given configuration.
func NewKernel(cfg Config) (*Kernel, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sim: Workers must be >= 1, got %d", cfg.Workers)
	}
	if cfg.Workers > 1 && cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("sim: parallel engine requires positive Lookahead")
	}
	return &Kernel{cfg: cfg}, nil
}

// workerOf maps a process id to its host worker (block distribution, as
// MPI-Sim maps target processes to host processors).
func (k *Kernel) workerOf(proc int) *worker {
	w := proc * len(k.workers) / len(k.procs)
	return k.workers[w]
}

// Run executes the simulation to completion and returns the result. It
// returns an error if any process panicked (*PanicError), if the program
// deadlocks (every process blocked with no messages in flight), or if a
// configured limit tripped (*AbortError in the latter two cases). On
// error the Result is still returned when the kernel got far enough to
// assemble one: a partial result covering the work done before the
// abort, for graceful degradation.
func (k *Kernel) Run() (*Result, error) {
	if k.started {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	k.started = true
	if len(k.procs) == 0 {
		return &Result{}, nil
	}
	n := len(k.procs)
	nw := k.cfg.Workers
	if nw > n {
		nw = n
	}
	k.workers = make([]*worker, nw)
	for i := range k.workers {
		k.workers[i] = &worker{
			id:     i,
			kernel: k,
			queue:  newEventQueue(),
		}
	}
	k.bounds = make([]Time, nw)
	// Flatten per-process state and size the per-worker slabs up front
	// from Workers×procs, so the steady state never grows a slab: the
	// slot array, each worker's queue capacity (every proc contributes at
	// most one pending start/wake plus in-flight deliveries), and the
	// message free-list bound.
	k.slots = make([]procSlot, n)
	shares := make([]int, nw)
	for _, p := range k.procs {
		p.worker = k.workerOf(p.id)
		p.slot = &k.slots[p.id]
		p.slot.wid = p.worker.id
		shares[p.worker.id]++
	}
	for i, w := range k.workers {
		w.queue.grow(2*shares[i] + 64)
		w.msgCap = max(minFreeList, 2*shares[i])
		w.freeMsgs = make([]*Message, 0, min(2*shares[i]+64, w.msgCap))
	}
	// Instrumentation attaches before the start events are seeded so the
	// counters see every event from the first start on.
	k.kobs = k.setupObs()
	k.setupGuard()
	defer k.watchCtx()()
	for _, p := range k.procs {
		p.slot.cont = p.cont0
		if p.body != nil {
			// Here and not in the handler, which may not start a goroutine.
			go p.body.run(p)
			if o := p.worker.obs; o != nil {
				o.fallbacks++
			}
		}
		p.worker.queue.push(event{t: 0, proc: p.id, seq: 0, kind: evStart, dst: p.id})
	}

	res := &Result{}
	if nw == 1 {
		k.workers[0].processWindow(Infinity)
		res.Windows = 1
	} else {
		k.runParallel(res)
	}
	out, err := k.finish(res)
	// After finish so the final sample carries the run's end time (or the
	// partial result's, on abort).
	k.obsFinish(k.kobs, out)
	return out, err
}

// runParallel executes conservative rounds until no events remain or the
// guard trips. Under RealParallel each worker gets one persistent driver
// goroutine for the whole run (created here, retired on return): the
// per-round cost is two channel operations per worker instead of a
// goroutine spawn, which is what kept the parallel engine's allocation
// rate above zero per event.
func (k *Kernel) runParallel(res *Result) {
	if k.cfg.RealParallel {
		for _, w := range k.workers {
			w.winStart = make(chan Time)
			w.winDone = make(chan struct{})
			go func(w *worker) {
				for end := range w.winStart {
					w.processWindow(end)
					w.winDone <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, w := range k.workers {
				close(w.winStart)
			}
		}()
	}
	for {
		// Barrier: route cross-worker messages produced in the last round.
		k.mergeOutboxes()
		if k.guard != nil && k.guard.tripped() {
			return
		}
		bounds, any := k.safeBounds()
		if !any {
			return
		}
		res.Windows++
		if k.kobs != nil {
			// Live window count: incremented here on the driver between
			// windows, with the final-sample remainder added in obsFinish.
			k.kobs.windows.Inc(0)
			k.kobs.windowsLive++
		}
		if k.cfg.RealParallel {
			for i, w := range k.workers {
				w.winStart <- bounds[i]
			}
			for _, w := range k.workers {
				<-w.winDone
			}
		} else {
			for i, w := range k.workers {
				w.processWindow(bounds[i])
			}
		}
	}
}

// outCursor walks one worker's sorted outbox during the barrier merge.
type outCursor struct {
	w   *worker
	idx int
}

// mergeOutboxes routes every cross-worker event produced in the last
// round into its destination worker's queue. Each outbox is one sorted
// value slab (sorted at window end, inside the worker's parallel
// section), so a k-way merge yields the events in global (time, proc,
// seq) order: ascending pushes mostly land in the last pushed time's
// bucket, already in order, so the per-event insertion cost is O(1). A
// merged event may be earlier than the bucket safeBounds staged by its
// peek; the push un-stages it (event.go).
func (k *Kernel) mergeOutboxes() {
	heads := k.mergeHeads[:0]
	for _, w := range k.workers {
		if len(w.outbox) > 0 {
			heads = append(heads, outCursor{w: w, idx: 0})
			if k.kobs != nil {
				k.kobs.xbatchBytes.Add(0, int64(len(w.outbox))*eventBytes)
			}
		}
	}
	switch len(heads) {
	case 0:
	case 1:
		// Common case: only one worker sent cross-worker this round.
		w := heads[0].w
		for i := range w.outbox {
			e := w.outbox[i]
			k.workers[k.slots[e.dst].wid].queue.push(e)
		}
		clearOutbox(w)
	default:
		// Binary min-heap of cursors keyed by their head event.
		less := func(a, b outCursor) bool {
			return eventLess(&a.w.outbox[a.idx], &b.w.outbox[b.idx])
		}
		for i := len(heads)/2 - 1; i >= 0; i-- {
			siftCursor(heads, i, less)
		}
		for len(heads) > 0 {
			c := heads[0]
			e := c.w.outbox[c.idx]
			k.workers[k.slots[e.dst].wid].queue.push(e)
			if c.idx+1 < len(c.w.outbox) {
				heads[0].idx++
			} else {
				clearOutbox(c.w)
				heads[0] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
			if len(heads) > 0 {
				siftCursor(heads, 0, less)
			}
		}
	}
	k.mergeHeads = heads[:0]
}

// siftCursor restores the min-heap property at index i.
func siftCursor(h []outCursor, i int, less func(a, b outCursor) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// clearOutbox resets a drained outbox slab, dropping stale message
// pointers held in the value slack.
func clearOutbox(w *worker) {
	clear(w.outbox)
	w.outbox = w.outbox[:0]
}

// safeBounds computes, per worker, the time bound below which it may
// safely process events this round. It reports false when no events
// remain anywhere. Both protocols are O(Workers) per round; the seed
// kernel evaluated the null-message promises by an O(Workers^2)
// fixed-point iteration, whose limit has the closed form used here (the
// equivalence is property-tested against the iterative reference in
// TestNullMessageBoundsMatchIterative).
func (k *Kernel) safeBounds() ([]Time, bool) {
	// One scan finds the earliest pending event time t1, the first worker
	// a holding it, and the earliest time t2 among the other workers.
	t1, t2 := Infinity, Infinity
	a := -1
	for i, w := range k.workers {
		t := Infinity
		if top := w.queue.peek(); top != nil {
			t = top.t
		}
		if t < t1 {
			t2 = t1
			t1 = t
			a = i
		} else if t < t2 {
			t2 = t
		}
	}
	if a == -1 {
		return nil, false
	}
	bounds := k.bounds
	L := k.cfg.Lookahead
	switch k.cfg.Protocol {
	case ProtocolNullMessage:
		// Clock promises: worker i cannot emit an arrival earlier than
		// lookahead past its next activity, which is its next local event
		// or the earliest arrival its peers could still send it:
		//
		//	p_i = L + min(top_i, min_{j != i} p_j)
		//
		// The least fixed point of this monotone system is
		//
		//	p_a = L + t1            (the earliest worker's own event wins)
		//	p_i = L + min(t_i, p_a) (everyone else is capped by a's promise)
		//
		// and each worker's bound is the minimum promise of its peers:
		// p_a for everyone except a itself, which is bounded by the least
		// promise among the others, L + min(t2, p_a).
		pa := t1 + L
		for i := range bounds {
			bounds[i] = pa
		}
		amin := t2
		if pa < amin {
			amin = pa
		}
		bounds[a] = amin + L
	default: // ProtocolWindow
		end := t1 + L
		for i := range bounds {
			bounds[i] = end
		}
	}
	return bounds, true
}

// finish validates terminal state, retires blocked processes and
// assembles the (possibly partial) result. On abort or deadlock the
// wait-state dump is captured before teardown, so it reflects what every
// process was doing when the run stopped.
func (k *Kernel) finish(res *Result) (*Result, error) {
	aborted := k.guard != nil && k.guard.tripped()
	var blocked []string
	for _, p := range k.procs {
		if p.slot.state == stBlocked {
			blocked = append(blocked, fmt.Sprintf("%d(%s)@%g", p.id, p.name, float64(p.slot.now)))
		}
	}
	var abortErr *AbortError
	if aborted || len(blocked) > 0 {
		states := k.waitStates()
		reason := ""
		if aborted {
			reason = k.guard.why()
		} else {
			reason = fmt.Sprintf("deadlock, %d blocked processes: %s",
				len(blocked), strings.Join(blocked, ", "))
		}
		abortErr = &AbortError{Reason: reason, States: states}
		if k.guard != nil {
			abortErr.Snapshot = k.snapshot(reason, states)
		}
		k.terminateBlocked()
	}
	// Assemble statistics after teardown so finish times are final; on
	// abort this is the partial result.
	res.Procs = make([]ProcStats, len(k.procs))
	for i := range k.slots {
		res.Procs[i] = k.slots[i].stats
		if st := k.slots[i].stats.FinishTime; st > res.EndTime {
			res.EndTime = st
		}
	}
	for _, w := range k.workers {
		res.Events += w.events
		res.Delivered += w.delivered
		res.CrossWorker += w.cross
	}
	// A process panic is the most specific failure: report it over the
	// generic abort, with the snapshot attached when the guard was live.
	for _, p := range k.procs {
		if p.err == nil {
			continue
		}
		if pe, ok := p.err.(*PanicError); ok && abortErr != nil && abortErr.Snapshot != nil {
			pe.Snapshot = abortErr.Snapshot
		}
		return res, p.err
	}
	if abortErr != nil {
		return res, abortErr
	}
	return res, nil
}

// terminateBlocked retires every process the run left short of its end:
// the pending handler of a blocked one is dropped and the process is
// done where it stands. Nothing pops an event after this — on a deadlock
// every queue is empty, and after a guard abort runLoop has returned for
// good. A blocking body (body.go) unwinds first, blocked or never
// started, so that its deferred calls have run when Run returns.
func (k *Kernel) terminateBlocked() {
	for _, p := range k.procs {
		s := p.slot
		if p.body != nil && s.state != stDone {
			p.body.unwind(p)
		}
		if s.state != stBlocked {
			continue
		}
		s.cont = nil
		s.receiving = false
		s.state = stDone
		s.stats.FinishTime = s.now
	}
}

// sendOut routes a delivery event: same-worker events are inserted
// directly (they cannot fall inside the current window, see package doc);
// cross-worker events are appended to the outbox slab until the window
// barrier.
func (w *worker) sendOut(e event) {
	if w.kernel.slots[e.dst].wid != w.id {
		w.cross++
		w.outbox = append(w.outbox, e)
		return
	}
	w.queue.push(e)
}

// processWindow is the driver entry: it publishes the window bound, runs
// the loop and, once the window is exhausted, sorts the outbox for the
// barrier merge. Sorting here keeps it inside the worker's parallel
// section under RealParallel.
func (w *worker) processWindow(end Time) {
	w.end = end
	w.runLoop()
	if len(w.outbox) > 1 {
		slices.SortFunc(w.outbox, eventCmp)
	}
}

// runLoop pops and handles events with time < w.end in (time, proc, seq)
// order: a delivery that its process is not waiting for goes to the
// mailbox, everything else resumes the process's handler chain inline
// (runCont). It runs on the worker's driver goroutine from start to end,
// and the only code of a caller's that it runs is a handler, inside
// invokeCont's recover: matching is the kernel's own (source, tag)
// compare, so nothing a caller wrote can panic in the loop itself.
func (w *worker) runLoop() {
	for {
		// Guard abort: stop popping, for good — terminateBlocked relies on
		// no event being touched after it.
		if w.guard != nil && w.guard.g.abort.Load() {
			return
		}
		top := w.queue.peek()
		if top == nil || top.t >= w.end {
			return
		}
		e := w.queue.pop()
		w.events++
		q := w.kernel.procs[e.dst]
		kind, t, m := e.kind, e.t, e.msg
		if w.obs != nil {
			w.obsTick(t)
		}
		if w.guard != nil {
			w.guardTick(t, kind, e.proc, e.dst)
		}
		if kind != evDeliver {
			w.runCont(q, nil) // evStart, evWake
			continue
		}
		w.delivered++
		if s := q.slot; s.state == stBlocked && q.matches(m) {
			w.batchSameTime(q, t)
			w.runCont(q, m)
		} else {
			s.mailbox = append(s.mailbox, m)
		}
	}
}

// batchSameTime drains immediately-following deliveries to q that share
// the wake timestamp into q's mailbox before q runs, saving a
// block/resume cycle per message on same-time fan-in. The run is the
// head of the queue's staged bucket, so each step is an O(1) peek and
// pop. Only senders ordered at or before q's own position in the
// (time, proc, seq) order are batched: q cannot schedule any event that
// would precede those, so the processing order is exactly what the
// unbatched kernel would have produced and results stay bit-identical.
func (w *worker) batchSameTime(q *Proc, t Time) {
	s := q.slot
	for {
		top := w.queue.peek()
		if top == nil || top.t != t || top.kind != evDeliver ||
			top.dst != q.id || top.proc > q.id {
			return
		}
		e := w.queue.pop()
		w.events++
		w.delivered++
		s.mailbox = append(s.mailbox, e.msg)
		if w.obs != nil {
			w.obs.batched++
		}
	}
}
