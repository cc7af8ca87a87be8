package sim

import (
	"fmt"
	"time"

	"mpisim/internal/obs"
)

// Simulator-plane observability (the second plane of DESIGN.md
// "Observability"): metrics and trace tracks about the simulator's own
// execution — event throughput, pool behaviour, mailbox scan lengths,
// queue depth, wake batching, and wallclock cost per virtual second.
//
// Cost discipline: the kernel hot loop pays one nil-pointer check per
// instrumentation point when observability is off (cfg.Metrics,
// cfg.Tracer, cfg.RunInfo all nil and cfg.Timeline nil or disabled).
// When on, per-event costs are plain increments
// on worker-local accumulators; the sharded registry and the tracer are
// only touched at sample points (every obsSampleEvery events per
// worker) and at the final flush, so the deterministic simulation
// result is unchanged and the enabled overhead stays bounded.
// time.Now() is called only at sample points and never influences
// simulation behaviour.

// obsSampleEvery is the per-worker event countdown between sample
// points (queue-depth observation, counter flush, tracer counter
// tracks).
const obsSampleEvery = 4096

// kernelObs holds the metric handles shared by all workers of one
// kernel. Handles are resolved once per Run; the registry deduplicates
// by name, so kernels of an experiment sweep can share one registry.
type kernelObs struct {
	reg      *obs.Registry
	tr       *obs.Tracer
	timeline *obs.Timeline
	run      *obs.RunInfo

	// windowsLive counts the windows already added to the windows
	// counter by the parallel driver, so obsFinish only adds the
	// remainder. Driver-owned; read by obsFinish after the drivers stop.
	windowsLive int64

	events    *obs.Counter
	delivered *obs.Counter
	cross     *obs.Counter
	windows   *obs.Counter

	poolMsgHit  *obs.Counter
	poolMsgMiss *obs.Counter

	mailboxScans   *obs.Counter
	mailboxScanned *obs.Counter
	wakeBatched    *obs.Counter

	// Scheduler counters: handler invocations (cont.go), processes that
	// Run started a goroutine for (Spawn), and the bytes shipped across
	// workers in barrier batches (counted in mergeOutboxes).
	conts       *obs.Counter
	fallbacks   *obs.Counter
	xbatchBytes *obs.Counter

	queueDepth     *obs.Gauge
	queueDepthHist *obs.Histogram
	contWaitDepth  *obs.Gauge
	wallPerVirtual *obs.Gauge
}

// workerObs is the per-worker accumulator state. All fields are owned
// by the goroutine driving the worker's window, like the free lists.
type workerObs struct {
	k         *kernelObs
	countdown int

	// Wallclock-per-virtual-second sampling state.
	lastWall time.Time
	lastVirt Time
	haveWall bool

	// Accumulators flushed to the sharded counters at sample points.
	poolMsgHit  int64
	poolMsgMiss int64
	scans       int64
	scanned     int64
	batched     int64
	conts       int64
	fallbacks   int64

	// High-water marks of the worker totals already flushed.
	syncedEvents    int64
	syncedDelivered int64
	syncedCross     int64
}

// setupObs wires the observability plane before the first window. It
// returns nil when both the registry and the tracer are absent, which
// keeps every hot-path hook to a single nil check.
func (k *Kernel) setupObs() *kernelObs {
	reg, tr := k.cfg.Metrics, k.cfg.Tracer
	tl, run := k.cfg.Timeline, k.cfg.RunInfo
	if tl != nil && !tl.Enabled() {
		// A disabled timeline is dropped here, so its hot-path cost is
		// exactly the shared nil check — the same as no timeline at all.
		tl = nil
	}
	if reg == nil && tr == nil && tl == nil && run == nil {
		return nil
	}
	if reg == nil {
		// Tracing (or telemetry) without metrics still needs handles for
		// the sampled counter tracks and the timeline's vitals; a private
		// registry keeps the code uniform.
		reg = obs.NewRegistry(len(k.workers))
		reg.SetEnabled(true)
	}
	o := &kernelObs{
		reg:      reg,
		tr:       tr,
		timeline: tl,
		run:      run,

		events:    reg.Counter("sim_events_total", "kernel events processed"),
		delivered: reg.Counter("sim_messages_delivered_total", "messages delivered to processes"),
		cross:     reg.Counter("sim_cross_worker_total", "messages routed across host workers"),
		windows:   reg.Counter("sim_windows_total", "conservative windows executed"),

		poolMsgHit:  reg.Counter("sim_pool_msg_hit_total", "message allocations served by a worker free list"),
		poolMsgMiss: reg.Counter("sim_pool_msg_miss_total", "message allocations falling through to the shared pool"),

		mailboxScans:   reg.Counter("sim_mailbox_scans_total", "mailbox scans performed by receives"),
		mailboxScanned: reg.Counter("sim_mailbox_scanned_total", "mailbox entries examined across all scans"),
		wakeBatched:    reg.Counter("sim_wake_batched_total", "same-time deliveries batched without a wake"),

		conts:       reg.Counter("sim_continuations_total", "continuation handlers invoked inline on worker goroutines"),
		fallbacks:   reg.Counter("sim_goroutine_fallbacks_total", "processes that needed a goroutine of their own (Spawn)"),
		xbatchBytes: reg.Counter("sim_xworker_batch_bytes", "event bytes shipped across workers in barrier batches"),

		queueDepth:     reg.Gauge("sim_queue_depth", "pending-event queue depth, sampled per worker"),
		queueDepthHist: reg.Histogram("sim_queue_depth_hist", "sampled pending-event queue depth distribution", []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
		contWaitDepth:  reg.Gauge("sim_cont_wait_depth", "continuation processes parked in an armed wait, sampled per worker"),
		wallPerVirtual: reg.Gauge("sim_wall_ns_per_virtual_s", "host nanoseconds spent per simulated second, sampled per worker"),
	}
	// Seeding the wallclock baseline here means even a run shorter than
	// one sample interval gets a final wall-per-virtual-second sample.
	start := time.Now() //simvet:allow wallclock observability baseline; never feeds virtual time
	for _, w := range k.workers {
		w.obs = &workerObs{k: o, countdown: obsSampleEvery, lastWall: start, haveWall: true}
	}
	if tr != nil && tr.Enabled() {
		tr.Meta(obs.PlaneSimulator, -1, "simulator (host workers)")
		for _, w := range k.workers {
			tr.Meta(obs.PlaneSimulator, w.id, fmt.Sprintf("worker %d", w.id))
		}
	}
	return o
}

// obsTick is the per-event hook: a decrement and branch until the
// countdown expires, then a full sample. now is the popped event's
// timestamp (copied before the event was freed).
func (w *worker) obsTick(now Time) {
	o := w.obs
	o.countdown--
	if o.countdown > 0 {
		return
	}
	o.countdown = obsSampleEvery
	w.obsSample(now)
}

// obsSample flushes the worker's accumulators into the sharded metrics
// and emits the sampled simulator-plane tracer tracks. Called from the
// goroutine driving the worker's window; shard index is the worker
// id, preserving the single-writer histogram discipline.
func (w *worker) obsSample(now Time) {
	o := w.obs
	k := o.k
	w.obsFlushCounters()

	depth := int64(w.queue.len())
	k.queueDepth.Set(w.id, depth)
	k.queueDepthHist.Observe(w.id, float64(depth))
	k.contWaitDepth.Set(w.id, w.contWaiting)

	wall := time.Now() //simvet:allow wallclock wall-per-virtual-second metric; never feeds virtual time
	var nsPerVs float64
	haveRate := false
	if o.haveWall && now > o.lastVirt {
		nsPerVs = float64(wall.Sub(o.lastWall).Nanoseconds()) / float64(now-o.lastVirt)
		k.wallPerVirtual.Set(w.id, int64(nsPerVs))
		haveRate = true
	}
	o.lastWall, o.lastVirt, o.haveWall = wall, now, true

	if k.tr != nil && k.tr.Enabled() {
		k.tr.Counter(obs.PlaneSimulator, w.id, "queue_depth", float64(now),
			obs.Num("events", float64(depth)))
		k.tr.Counter(obs.PlaneSimulator, w.id, "cont_wait_depth", float64(now),
			obs.Num("procs", float64(w.contWaiting)))
		if haveRate {
			k.tr.Counter(obs.PlaneSimulator, w.id, "wall_ns_per_virtual_s", float64(now),
				obs.Num("ns", nsPerVs))
		}
	}

	// Live telemetry: heartbeat the run info and offer the timeline a
	// snapshot. Both are strictly out of band — they read the merged
	// counters but feed nothing back into the simulation.
	if k.run != nil || k.timeline != nil {
		events := k.events.Value()
		if k.run != nil {
			k.run.Heartbeat(float64(now), events)
		}
		if k.timeline != nil {
			k.timeline.Offer(obs.Vitals{
				Virtual:           float64(now),
				Events:            events,
				Windows:           k.windows.Value(),
				WallNsPerVirtualS: nsPerVs,
			})
		}
	}
}

// obsFlushCounters moves the worker-local accumulators into the sharded
// counters. Totals (events/delivered/cross) are flushed as deltas
// against the already-synced high-water marks, so the registry reflects
// live progress without double counting.
func (w *worker) obsFlushCounters() {
	o := w.obs
	k := o.k
	if d := w.events - o.syncedEvents; d > 0 {
		k.events.Add(w.id, d)
		o.syncedEvents = w.events
	}
	if d := w.delivered - o.syncedDelivered; d > 0 {
		k.delivered.Add(w.id, d)
		o.syncedDelivered = w.delivered
	}
	if d := w.cross - o.syncedCross; d > 0 {
		k.cross.Add(w.id, d)
		o.syncedCross = w.cross
	}
	if o.poolMsgHit > 0 {
		k.poolMsgHit.Add(w.id, o.poolMsgHit)
		o.poolMsgHit = 0
	}
	if o.poolMsgMiss > 0 {
		k.poolMsgMiss.Add(w.id, o.poolMsgMiss)
		o.poolMsgMiss = 0
	}
	if o.scans > 0 {
		k.mailboxScans.Add(w.id, o.scans)
		o.scans = 0
	}
	if o.scanned > 0 {
		k.mailboxScanned.Add(w.id, o.scanned)
		o.scanned = 0
	}
	if o.batched > 0 {
		k.wakeBatched.Add(w.id, o.batched)
		o.batched = 0
	}
	if o.conts > 0 {
		k.conts.Add(w.id, o.conts)
		o.conts = 0
	}
	if o.fallbacks > 0 {
		k.fallbacks.Add(w.id, o.fallbacks)
		o.fallbacks = 0
	}
}

// obsFinish performs a final sample per worker after the last window, so
// the registry totals exactly match the Result counters and the tracer's
// counter tracks carry at least one point even for runs shorter than a
// sample interval.
func (k *Kernel) obsFinish(ko *kernelObs, res *Result) {
	if ko == nil {
		return
	}
	for _, w := range k.workers {
		w.obsSample(res.EndTime)
	}
	ko.windows.Add(0, res.Windows-ko.windowsLive)
	if ko.run != nil {
		ko.run.Heartbeat(float64(res.EndTime), res.Events)
	}
	if ko.timeline != nil {
		// Forced final point: even a run shorter than one cadence yields
		// a timeline entry, and /events subscribers see a closing delta.
		ko.timeline.Sample(obs.Vitals{
			Virtual: float64(res.EndTime),
			Events:  res.Events,
			Windows: res.Windows,
		})
	}
}
