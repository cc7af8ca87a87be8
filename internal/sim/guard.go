package sim

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mpisim/internal/obs"
)

// Kernel guard: watchdog, budgets and graceful abort.
//
// A long sweep is a production job: one runaway configuration (a fault
// scenario that makes a receive unmatchable, a workload whose event count
// explodes, a livelocked protocol) must not hang or OOM the whole run.
// The guard bounds a run by event count, virtual time, no-progress event
// count (the watchdog) and external context cancellation; when any bound
// trips, the kernel stops popping events, retires the processes where
// they stand, and Run returns a *partial* Result together with an
// *AbortError carrying a per-rank wait-state dump and a diagnostic
// Snapshot (queue depths, mailbox sizes, the most recent events).
//
// Cost discipline mirrors obs.go: with Limits inactive the hot loop pays
// a single nil pointer check per event; when active, the per-event work
// is a ring-buffer store and a couple of compares on worker-local state,
// with the shared atomic event counter touched only every
// guardFlushEvery events.

// Limits bounds a kernel run. The zero value disables the guard
// entirely (no hot-path cost beyond one nil check per event).
type Limits struct {
	// MaxEvents aborts the run after approximately this many kernel
	// events across all workers (checked at flush granularity;
	// 0 = unlimited).
	MaxEvents int64
	// MaxTime aborts the run once an event beyond this virtual time is
	// processed (0 = unlimited).
	MaxTime Time
	// StallEvents is the watchdog: abort after this many consecutive
	// events on one worker without virtual time advancing — the
	// signature of a livelocked protocol, e.g. unbounded same-time
	// retransmission. It must comfortably exceed the legitimate
	// same-timestamp burst size (at least the process count;
	// 0 = disabled).
	StallEvents int64
	// Ctx, when non-nil, cancels the run from outside (wall-clock
	// timeouts via context.WithTimeout). Cancellation is detected
	// promptly by a watcher goroutine; the workers observe the abort
	// flag at the next event.
	Ctx context.Context
}

// active reports whether any bound is set.
func (l Limits) active() bool {
	return l.MaxEvents > 0 || l.MaxTime > 0 || l.StallEvents > 0 || l.Ctx != nil
}

// guardFlushEvery is the per-worker event countdown between flushes of
// the local event count into the shared budget counter.
const guardFlushEvery = 64

// guardRingSize is the per-worker capacity of the recent-event ring
// recorded for diagnostic snapshots.
const guardRingSize = 32

// tripKind classifies what tripped the guard, for metrics.
type tripKind uint8

const (
	tripWatchdog tripKind = iota
	tripBudget
	tripCancel
	tripPanic
	numTripKinds
)

// kernelGuard is the shared abort state of one kernel run.
type kernelGuard struct {
	limits Limits
	// events is the flushed global event count checked against MaxEvents.
	events atomic.Int64
	// abort is the stop flag every worker loop polls; reason/kind are
	// written once, by whichever trip wins, under mu.
	abort  atomic.Bool
	mu     sync.Mutex
	reason string
	trips  [numTripKinds]*obs.Counter
}

// trip requests an abort. The first caller wins; later trips are noops
// so the reported reason is the root cause, not a cascade.
func (g *kernelGuard) trip(kind tripKind, reason string) {
	g.mu.Lock()
	if !g.abort.Load() {
		g.reason = reason
		g.abort.Store(true)
		if c := g.trips[kind]; c != nil {
			c.Add(0, 1)
		}
	}
	g.mu.Unlock()
}

func (g *kernelGuard) tripped() bool { return g.abort.Load() }

func (g *kernelGuard) why() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reason
}

// guardState is the per-worker guard accumulator. Like workerObs it is
// only touched by the goroutine driving the worker's window.
type guardState struct {
	g         *kernelGuard
	countdown int
	// Stall watchdog: consecutive events without time advancing.
	lastTime Time
	stalled  int64
	// High-water mark of w.events already flushed into g.events.
	synced int64
	// Ring of the most recent events, for Snapshot.LastEvents.
	ring [guardRingSize]EventRecord
	rpos int
	rlen int
}

// setupGuard wires the guard before the first window; a noop when the
// configured Limits are inactive, keeping the hot path to one nil check.
func (k *Kernel) setupGuard() {
	if !k.cfg.Limits.active() {
		return
	}
	g := &kernelGuard{limits: k.cfg.Limits}
	if reg := k.cfg.Metrics; reg != nil {
		g.trips[tripWatchdog] = reg.Counter("sim_watchdog_trips_total", "watchdog aborts: no virtual-time progress within the stall budget")
		g.trips[tripBudget] = reg.Counter("sim_budget_trips_total", "aborts from event-count or virtual-time budgets")
		g.trips[tripCancel] = reg.Counter("sim_cancel_trips_total", "aborts from external context cancellation")
		g.trips[tripPanic] = reg.Counter("sim_panic_trips_total", "process panics captured by the kernel")
	}
	k.guard = g
	for _, w := range k.workers {
		w.guard = &guardState{g: g, countdown: guardFlushEvery}
	}
}

// guardTick is the per-event hook: record the event, advance the stall
// watchdog, and enforce the time and (at flush granularity) event
// budgets. Arguments are copied out of the event before it was freed.
func (w *worker) guardTick(t Time, kind eventKind, src, dst int) {
	gs := w.guard
	r := &gs.ring[gs.rpos]
	r.Time, r.Kind, r.Src, r.Dst, r.Worker = t, kind.String(), src, dst, w.id
	gs.rpos++
	if gs.rpos == guardRingSize {
		gs.rpos = 0
	}
	if gs.rlen < guardRingSize {
		gs.rlen++
	}

	lim := &gs.g.limits
	if t > gs.lastTime {
		gs.lastTime = t
		gs.stalled = 0
	} else if lim.StallEvents > 0 {
		gs.stalled++
		if gs.stalled >= lim.StallEvents {
			gs.g.trip(tripWatchdog, fmt.Sprintf(
				"watchdog: %d events without virtual-time progress at t=%g on worker %d",
				gs.stalled, float64(t), w.id))
			gs.stalled = 0
		}
	}
	if lim.MaxTime > 0 && t > lim.MaxTime {
		gs.g.trip(tripBudget, fmt.Sprintf(
			"virtual-time budget exhausted: event at t=%g past budget %g",
			float64(t), float64(lim.MaxTime)))
	}

	gs.countdown--
	if gs.countdown <= 0 {
		gs.countdown = guardFlushEvery
		total := gs.g.events.Add(w.events - gs.synced)
		gs.synced = w.events
		if lim.MaxEvents > 0 && total >= lim.MaxEvents {
			gs.g.trip(tripBudget, fmt.Sprintf(
				"event budget exhausted: %d events >= limit %d", total, lim.MaxEvents))
		}
	}
}

// watchCtx aborts the run when the configured context is canceled. The
// returned stop function must be called when the run completes.
func (k *Kernel) watchCtx() func() {
	g := k.guard
	if g == nil || g.limits.Ctx == nil {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-g.limits.Ctx.Done():
			g.trip(tripCancel, "canceled: "+g.limits.Ctx.Err().Error())
		case <-stop:
		}
	}()
	return func() { close(stop) }
}

// ProcWaitState is one process's state in a wait-state dump: what it was
// doing when the run was aborted or found deadlocked.
type ProcWaitState struct {
	Proc    int    `json:"proc"`
	Name    string `json:"name"`
	State   string `json:"state"` // "new", "running", "blocked", "done"
	Now     Time   `json:"now"`
	Waiting string `json:"waiting,omitempty"` // blocked on what, e.g. "recv(src=3, tag=any)"
	Mailbox int    `json:"mailbox"`           // arrived-but-unmatched messages
	Sent    int64  `json:"sent"`
	Recvd   int64  `json:"recvd"`
}

// EventRecord is one entry of a Snapshot's recent-event ring.
type EventRecord struct {
	Time   Time   `json:"t"`
	Kind   string `json:"kind"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Worker int    `json:"worker"`
}

// Snapshot is the diagnostic state captured when a run aborts: enough to
// see where the simulation was without rerunning it.
type Snapshot struct {
	Reason string `json:"reason"`
	// QueueDepths is the pending-event count per worker at abort.
	QueueDepths []int `json:"queue_depths"`
	// LastEvents are the most recent events (up to guardRingSize per
	// worker), oldest first.
	LastEvents []EventRecord   `json:"last_events,omitempty"`
	Procs      []ProcWaitState `json:"procs"`
}

// AbortError reports a run stopped before completion: a guard trip
// (watchdog, budget, cancellation) or a deadlock. Run returns it
// alongside the partial Result.
type AbortError struct {
	Reason   string
	States   []ProcWaitState
	Snapshot *Snapshot // nil when the guard was inactive (plain deadlock)
}

// Error keeps the legacy single-line form; deadlocks preserve the
// "deadlock, N blocked processes" text callers match on.
func (e *AbortError) Error() string { return "sim: " + e.Reason }

// Dump renders the per-rank wait-state table, one line per process.
func (e *AbortError) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "abort: %s\n", e.Reason)
	for _, s := range e.States {
		fmt.Fprintf(&b, "  proc %4d %-12s %-8s t=%-14g mailbox=%-4d sent=%-6d recvd=%-6d %s\n",
			s.Proc, s.Name, s.State, float64(s.Now), s.Mailbox, s.Sent, s.Recvd, s.Waiting)
	}
	if e.Snapshot != nil {
		fmt.Fprintf(&b, "  pending events per worker: %v\n", e.Snapshot.QueueDepths)
	}
	return b.String()
}

// PanicError reports a panic in a process, with the diagnostic snapshot
// when the guard was active.
type PanicError struct {
	Proc     int
	Name     string
	Value    interface{}
	Snapshot *Snapshot
}

// Error keeps the seed kernel's message form.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %d (%s) panicked: %v", e.Proc, e.Name, e.Value)
}

// anyStr renders a RecvSrcTag argument ("any" for the wildcard).
func anyStr(v int) string {
	if v == Any {
		return "any"
	}
	return strconv.Itoa(v)
}

// waitStates captures the per-process wait-state dump. Called by the
// driver after all workers parked, so the fields are quiescent.
func (k *Kernel) waitStates() []ProcWaitState {
	states := make([]ProcWaitState, len(k.procs))
	for i, p := range k.procs {
		sl := p.slot
		s := ProcWaitState{
			Proc:    p.id,
			Name:    p.name,
			Now:     sl.now,
			Mailbox: len(sl.mailbox) - sl.mbHead,
			Sent:    sl.stats.MsgsSent,
			Recvd:   sl.stats.MsgsRecvd,
		}
		switch sl.state {
		case stNew:
			s.State = "new"
		case stRunnable:
			s.State = "running"
		case stDone:
			s.State = "done"
		case stBlocked:
			s.State = "blocked"
			s.Waiting = "sleep"
			if sl.receiving {
				s.Waiting = fmt.Sprintf("recv(src=%s, tag=%s)", anyStr(sl.matchSrc), anyStr(sl.matchTag))
			}
		}
		states[i] = s
	}
	return states
}

// snapshot assembles the diagnostic snapshot at abort.
func (k *Kernel) snapshot(reason string, states []ProcWaitState) *Snapshot {
	snap := &Snapshot{
		Reason:      reason,
		QueueDepths: make([]int, len(k.workers)),
		Procs:       states,
	}
	for i, w := range k.workers {
		snap.QueueDepths[i] = w.queue.len()
		if gs := w.guard; gs != nil {
			for j := 0; j < gs.rlen; j++ {
				idx := gs.rpos - gs.rlen + j
				if idx < 0 {
					idx += guardRingSize
				}
				snap.LastEvents = append(snap.LastEvents, gs.ring[idx])
			}
		}
	}
	sort.SliceStable(snap.LastEvents, func(a, b int) bool {
		return snap.LastEvents[a].Time < snap.LastEvents[b].Time
	})
	return snap
}

// String implements fmt.Stringer for the snapshot's event kinds.
func (k eventKind) String() string {
	switch k {
	case evStart:
		return "start"
	case evWake:
		return "wake"
	default:
		return "deliver"
	}
}
