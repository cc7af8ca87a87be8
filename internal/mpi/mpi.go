// Package mpi is the simulated Message Passing Interface library at the
// heart of the MPI-Sim reproduction. A target program is one resumable
// Program per target rank (the IR interpreter, trace replay) or, in
// tests, one blocking Go body per rank; every MPI call is trapped and
// its cost on the target architecture is simulated, while local
// computation is either directly executed (MPI-SIM-DE) or replaced by
// the Delay function (MPI-SIM-AM), exactly as in the paper (§2.1, §3.1).
//
// Three communication timing models are provided:
//
//   - Detailed: LogGP-style with per-rank NIC occupancy serialization on
//     both the send and receive side. This is the reproduction's stand-in
//     for "direct measurement on the real machine".
//   - Analytic: latency + size/bandwidth plus CPU overheads, the model
//     MPI-Sim uses to predict communication time.
//   - AbstractComm: closed-form costs with no event simulation (the
//     paper's §5 extension).
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"mpisim/internal/fault"
	"mpisim/internal/machine"
	"mpisim/internal/net"
	"mpisim/internal/obs"
	"mpisim/internal/sim"
)

// CommModel selects the communication timing model.
type CommModel int

const (
	// Analytic is the simple latency+bandwidth model used by the simulator.
	Analytic CommModel = iota
	// Detailed adds NIC occupancy serialization; it is the ground-truth
	// ("measured") model of this reproduction.
	Detailed
	// AbstractComm is the paper's §5 alternative: "extend the MPI-Sim
	// simulator to take as input an abstract model of the communication
	// (based on message size, message destination, etc.) and use it to
	// predict communication performance". No messages are simulated at
	// all: every communication call advances the caller's clock by a
	// closed-form cost. It is by far the fastest model, but — exactly as
	// the paper's §1 critique of fully abstract simulation warns — it
	// ignores cross-process synchronization (pipelines, wavefronts,
	// load imbalance at barriers), so its predictions degrade on
	// dependence-heavy codes. Payload values are not transported.
	AbstractComm
)

// String implements fmt.Stringer.
func (c CommModel) String() string {
	switch c {
	case Detailed:
		return "detailed"
	case AbstractComm:
		return "abstract"
	}
	return "analytic"
}

// AnySource matches a message from any sender (the kernel's exact
// wildcard sentinel sim.Any). It is exact under the sequential engine
// only: core.Prepare refuses to replay a trace that receives from it on
// more than one host worker (core.WildcardError), at both front doors.
// A Go program run directly on the parallel engine is not checked.
const AnySource = sim.Any

// Config describes one simulation run.
type Config struct {
	// Ranks is the number of target processes.
	Ranks int
	// Machine is the target architecture model.
	Machine *machine.Model
	// Comm selects the communication timing model.
	Comm CommModel
	// HostWorkers is the number of host processors the simulator itself
	// uses (1 = sequential engine).
	HostWorkers int
	// RealParallel runs host workers on separate goroutines.
	RealParallel bool
	// Protocol selects the conservative synchronization protocol of the
	// parallel engine (window or null-message).
	Protocol sim.Protocol
	// TaskTimes is the w_i calibration table consumed by ReadTaskTime
	// (the paper's "read in the value of the parameter from a file and
	// broadcast it to all processors").
	TaskTimes map[string]float64
	// MemoryLimit, when positive, bounds the total simulated memory the
	// target program may allocate across all ranks (TrackAlloc). It
	// reproduces the out-of-memory wall that limits MPI-SIM-DE.
	MemoryLimit int64
	// CollectMatrix enables per-pair communication accounting; the
	// Report then carries the rank-to-rank message and byte matrices
	// ("more detailed metrics of the communication behavior", paper
	// §2.2 challenge (a)).
	CollectMatrix bool
	// CollectTrace enables per-rank activity segments (compute, delay,
	// blocked, communication CPU) in the Report, from which a timeline
	// of the predicted execution can be rendered.
	CollectTrace bool
	// RecordCalls enables the API-level call log (Report.Calls): every
	// rank's sequence of MPI operations with sizes and metadata but no
	// payloads, sufficient for internal/tracein to replay the run.
	RecordCalls bool
	// Metrics, when non-nil, receives simulator-plane metrics from the
	// underlying kernel (see sim.Config.Metrics / internal/obs).
	Metrics *obs.Registry
	// Tracer, when non-nil and enabled, receives the kernel's sampled
	// simulator-plane counter tracks. The simulated plane (per-rank
	// spans, message flows, collective phases) is exported separately
	// from the Report by internal/trace.Export.
	Tracer *obs.Tracer
	// Timeline / RunInfo attach the live-telemetry plane to the kernel:
	// time-series snapshots and progress heartbeats (see sim.Config).
	Timeline *obs.Timeline
	RunInfo  *obs.RunInfo
	// Faults, when non-nil and active, injects the scenario's faults
	// (crashes, loss, duplication, delay, link and compute slowdown)
	// into the run, deterministically per scenario seed. Ignored under
	// AbstractComm, which simulates no messages to inject into.
	Faults *fault.Scenario
	// Limits bounds the kernel run: event/virtual-time budgets, the
	// no-progress watchdog and context cancellation (sim.Limits). On a
	// trip, Run returns a partial Report together with the
	// *sim.AbortError.
	Limits sim.Limits
}

// SegKind classifies a trace segment.
type SegKind uint8

// Trace segment kinds.
const (
	// SegCompute is directly executed target computation.
	SegCompute SegKind = iota
	// SegDelay is abstracted computation (delay calls).
	SegDelay
	// SegBlocked is time spent waiting for a message.
	SegBlocked
	// SegComm is CPU time in communication calls.
	SegComm
	// SegFault is time attributable to injected faults: retransmission
	// CPU and waits, duplicate handling, compute-slowdown excess, and the
	// portion of blocked time caused by fault-delayed messages.
	SegFault
	// SegNet is the portion of blocked time caused by interconnect
	// contention (messages queued on busy links), under a non-flat
	// topology.
	SegNet
)

// String implements fmt.Stringer.
func (k SegKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegDelay:
		return "delay"
	case SegBlocked:
		return "blocked"
	case SegComm:
		return "comm"
	case SegFault:
		return "fault"
	case SegNet:
		return "net"
	}
	return "unknown"
}

// Segment is one interval of a rank's simulated activity.
type Segment struct {
	Start, End float64
	Kind       SegKind
}

// CommEvent records one received message from the receiver's viewpoint,
// collected under CollectTrace; the dynamic task graph is built from
// these.
type CommEvent struct {
	// From is the sending rank.
	From int
	// SendTime is the sender's clock when the send was issued.
	SendTime float64
	// Arrival is when the message reached the receiver.
	Arrival float64
	// Complete is when the receive finished (>= Arrival).
	Complete float64
	// Size is the message size in bytes.
	Size int64
	// Tag is the MPI tag (negative for internal collective traffic).
	Tag int
	// Hops is the number of interconnect links the message traversed
	// (zero under the flat network model and for node-local transfers).
	Hops int `json:",omitempty"`
	// NetWait is the transit time the message spent queued on busy
	// links (zero under the flat network model).
	NetWait float64 `json:",omitempty"`
}

// CollPhase is one collective operation interval on a rank, collected
// under CollectTrace. Composed collectives (Allreduce, Barrier) appear
// as their constituent primitives.
type CollPhase struct {
	// Name is the primitive collective ("bcast", "reduce", ...).
	Name string
	// Start and End bound the rank's participation in seconds.
	Start, End float64
	// Bytes is the payload this rank contributed to the collective: the
	// resolved per-participant size (real data wins over the declared
	// size), summed over per-destination chunks for the variable-size
	// collectives (scatter at the root, alltoall).
	Bytes int64 `json:",omitempty"`
}

// RankStats extends the kernel's per-process statistics with MPI-level
// accounting.
type RankStats struct {
	sim.ProcStats
	// DelayTime is simulated time injected through Delay (the abstracted
	// computation of MPI-SIM-AM).
	DelayTime sim.Time
	// CommCPUTime is CPU time charged for send/receive overheads.
	CommCPUTime sim.Time
	// PeakBytes is the high-water mark of tracked target-program memory.
	PeakBytes int64
	// CurBytes is the tracked memory at program end.
	CurBytes int64
	// Collectives counts collective operations completed.
	Collectives int64
	// FaultTime is simulated time this rank lost to injected faults:
	// retransmission CPU, duplicate handling, compute-slowdown excess,
	// plus the FaultBlocked portion below. Zero without fault injection.
	FaultTime sim.Time
	// FaultBlocked is the portion of BlockedTime attributable to
	// fault-delayed messages (FaultTime includes it); the remainder of
	// BlockedTime is genuine wait the healthy machine would also see.
	FaultBlocked sim.Time
	// NetBlocked is the portion of BlockedTime attributable to
	// interconnect contention: the received messages' link-queueing
	// delays, capped by the actual wait. Zero under the flat model.
	NetBlocked sim.Time
	// Crashed reports that the rank hit an injected stop-failure and
	// terminated at FinishTime.
	Crashed bool
}

// Report is the outcome of a World run.
type Report struct {
	// Time is the predicted execution time of the target program in
	// seconds (the maximum rank finish time).
	Time float64
	// Ranks holds per-rank statistics.
	Ranks []RankStats
	// TotalPeakBytes sums the per-rank memory peaks: the total memory the
	// simulator needs for target-program state (Table 1).
	TotalPeakBytes int64
	// MaxRankPeakBytes is the largest single-rank peak.
	MaxRankPeakBytes int64
	// Kernel carries the kernel-level result (events, windows, ...).
	Kernel *sim.Result
	// MsgMatrix[s][d] counts messages sent from rank s to rank d, and
	// ByteMatrix the corresponding bytes. Only populated when
	// Config.CollectMatrix is set.
	MsgMatrix  [][]int64
	ByteMatrix [][]int64
	// Traces holds each rank's activity segments when
	// Config.CollectTrace is set.
	Traces [][]Segment
	// CommEvents holds each rank's received-message records when
	// Config.CollectTrace is set.
	CommEvents [][]CommEvent
	// CollPhases holds each rank's collective intervals when
	// Config.CollectTrace is set.
	CollPhases [][]CollPhase
	// Calls holds each rank's API-level call log when
	// Config.RecordCalls is set. It is in-memory hand-off to the trace
	// recorder, not part of the serialized report (traces have their
	// own JSONL format).
	Calls [][]Call `json:"-"`
	// DelayByTask aggregates delay seconds per condensed-task name over
	// all ranks (populated by simplified-program runs).
	DelayByTask map[string]float64
	// Faults aggregates the injected-fault accounting when Config.Faults
	// was active; nil otherwise.
	Faults *fault.Stats
	// Net summarizes the interconnect when the machine model named a
	// non-flat topology: placement, intra/inter-node traffic split,
	// total contention wait and the per-link hotspot list. Nil under the
	// flat model.
	Net *net.Stats
	// Partial marks a report assembled from an aborted run (watchdog,
	// budget, cancellation): every figure covers only the simulated work
	// up to the abort. AbortReason carries the guard's root cause.
	Partial     bool
	AbortReason string
}

// World runs a target program of Config.Ranks ranks.
type World struct {
	cfg      Config
	kernel   *sim.Kernel
	ranks    []*Rank
	start    func(*Rank) Program // RunProgram's program factory
	injector *fault.Injector     // nil without fault injection

	// Topology mode (nil/zero under the flat network model): the built
	// interconnect, its mutable occupancy state, and the fabric process
	// id (== Ranks; the fabric is spawned after the rank procs).
	net     *net.Network
	fabric  *net.Fabric
	netProc int

	memMu   sync.Mutex
	memUsed int64
	memErr  error
}

// NewWorld validates cfg and prepares a world.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("mpi: Ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi: Machine model required")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.HostWorkers <= 0 {
		cfg.HostWorkers = 1
	}
	// Resolve the machine's topology. Flat (or empty) yields nil and the
	// seed analytic path; a real topology lowers the lookahead to the
	// minimum delay it can produce (claim leg / intra-node transfer).
	nw, err := net.Build(cfg.Machine, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	lookahead := sim.Time(cfg.Machine.Net.Latency)
	if cfg.Comm == AbstractComm {
		// AbstractComm simulates no messages at all, so there is no
		// traffic to route or congest; like fault injection, the
		// topology is validated above but otherwise ignored.
		nw = nil
	}
	if nw != nil {
		lookahead = sim.Time(nw.Lookahead())
	}
	k, err := sim.NewKernel(sim.Config{
		Workers:      cfg.HostWorkers,
		Lookahead:    lookahead,
		RealParallel: cfg.RealParallel,
		Protocol:     cfg.Protocol,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
		Timeline:     cfg.Timeline,
		RunInfo:      cfg.RunInfo,
		Limits:       cfg.Limits,
	})
	if err != nil {
		return nil, err
	}
	w := &World{cfg: cfg, kernel: k}
	if nw != nil {
		w.net = nw
		w.fabric = net.NewFabric(nw)
		w.netProc = cfg.Ranks
	}
	if cfg.Faults != nil && cfg.Faults.Active() && cfg.Comm != AbstractComm {
		// Every fault effect only *increases* message delays, so the
		// kernel's conservative lookahead (the healthy minimum latency)
		// remains a valid lower bound under injection.
		inj, err := cfg.Faults.Injector(cfg.Ranks)
		if err != nil {
			return nil, err
		}
		w.injector = inj
	}
	return w, nil
}

// Program is one rank's behaviour in resumable form, the way the
// product runs ranks (the interpreter's frames, a trace's call lists):
// no goroutine, no stack, one continuation handler per rank. Step runs
// the rank until its program has ended (true) or an operation it started
// with a Start method is Waiting (false); it is called again once that
// operation has completed, with the results on the Rank (Received,
// Vector, Vectors).
type Program interface {
	Step() (done bool)
}

// RunProgram runs one program per rank, created by start inside the
// rank's first scheduling (so what it allocates or faults on is the
// rank's), and returns the report. The error reports deadlocks, panics
// in the target program, exceeding the simulated memory limit, or a
// guard abort (*sim.AbortError). On abort the partial report is returned
// alongside the error (Report.Partial), so long sweeps degrade to
// partial artifacts instead of losing the run.
func (w *World) RunProgram(start func(*Rank) Program) (*Report, error) {
	w.start = start
	return w.run(func(name string, r *Rank) *sim.Proc {
		r.self = r.handle
		return w.kernel.SpawnCont(name, r.self)
	})
}

// Run is RunProgram for a blocking body, executed once per rank on a
// goroutine of its own: the form tests and reference evaluators are
// written in.
func (w *World) Run(body func(*Rank)) (*Report, error) {
	return w.run(func(name string, r *Rank) *sim.Proc {
		return w.kernel.Spawn(name, func(*sim.Proc) {
			defer func() { r.exit(recover()) }()
			body(r)
		})
	})
}

// run spawns the ranks, runs the kernel and assembles the report.
func (w *World) run(spawn func(name string, r *Rank) *sim.Proc) (*Report, error) {
	w.ranks = make([]*Rank, w.cfg.Ranks)
	for i := 0; i < w.cfg.Ranks; i++ {
		r := &Rank{world: w, rank: i}
		if w.injector != nil {
			r.faults = w.injector.Rank(i)
			if ct, ok := r.faults.CrashTime(); ok {
				r.hasCrash = true
				r.crashDeadline = sim.Time(ct)
			}
		}
		w.ranks[i] = r
		r.proc = spawn(fmt.Sprintf("rank%d", i), r)
	}
	if w.net != nil {
		w.kernel.SpawnCont("fabric", w.fabricCont())
	}
	res, err := w.kernel.Run()
	if w.memErr != nil {
		return nil, w.memErr
	}
	if err != nil && res == nil {
		return nil, err
	}
	endTime := res.EndTime
	if w.net != nil {
		// The fabric proc finishes after the last rank's done-claim; the
		// predicted program time is the maximum over the ranks only.
		endTime = 0
		for i := 0; i < w.cfg.Ranks && i < len(res.Procs); i++ {
			if ft := res.Procs[i].FinishTime; ft > endTime {
				endTime = ft
			}
		}
	}
	rep := &Report{Time: float64(endTime), Kernel: res}
	var abort *sim.AbortError
	if err != nil {
		if !errors.As(err, &abort) {
			return nil, err
		}
		rep.Partial = true
		rep.AbortReason = abort.Reason
	}
	rep.Ranks = make([]RankStats, w.cfg.Ranks)
	for i, r := range w.ranks {
		rs := RankStats{
			ProcStats:    res.Procs[i],
			DelayTime:    r.delayTime,
			CommCPUTime:  r.commCPU,
			PeakBytes:    r.peakBytes,
			CurBytes:     r.curBytes,
			Collectives:  r.collectives,
			FaultTime:    r.faultCPU + r.faultBlocked,
			FaultBlocked: r.faultBlocked,
			NetBlocked:   r.netBlocked,
			Crashed:      r.crashed,
		}
		rep.Ranks[i] = rs
		rep.TotalPeakBytes += r.peakBytes
		if r.peakBytes > rep.MaxRankPeakBytes {
			rep.MaxRankPeakBytes = r.peakBytes
		}
	}
	if w.cfg.CollectMatrix {
		rep.MsgMatrix = make([][]int64, w.cfg.Ranks)
		rep.ByteMatrix = make([][]int64, w.cfg.Ranks)
		for i, r := range w.ranks {
			rep.MsgMatrix[i] = r.msgMatrix
			rep.ByteMatrix[i] = r.byteMatrix
		}
	}
	if w.cfg.CollectTrace {
		rep.Traces = make([][]Segment, w.cfg.Ranks)
		rep.CommEvents = make([][]CommEvent, w.cfg.Ranks)
		rep.CollPhases = make([][]CollPhase, w.cfg.Ranks)
		for i, r := range w.ranks {
			r.closeColl() // of a rank that ended inside a collective
			rep.Traces[i] = r.segments
			rep.CommEvents[i] = r.commEvents
			rep.CollPhases[i] = r.collPhases
		}
	}
	if w.cfg.RecordCalls {
		rep.Calls = make([][]Call, w.cfg.Ranks)
		for i, r := range w.ranks {
			rep.Calls[i] = r.callLog()
		}
	}
	for _, r := range w.ranks {
		if r.delayByTask == nil {
			continue
		}
		if rep.DelayByTask == nil {
			rep.DelayByTask = map[string]float64{}
		}
		for task, secs := range r.delayByTask {
			rep.DelayByTask[task] += secs
		}
	}
	if w.injector != nil {
		st := w.injector.Stats()
		rep.Faults = &st
		w.publishFaultMetrics(&st)
	}
	if w.net != nil {
		rep.Net = w.netStats(rep.Time)
		w.publishNetMetrics(rep.Net)
	}
	return rep, err
}

// publishFaultMetrics flushes the injector's aggregate accounting into
// the metrics registry, alongside the kernel's simulator-plane counters.
func (w *World) publishFaultMetrics(st *fault.Stats) {
	reg := w.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("fault_drops_total", "message transmissions dropped by fault injection").Add(0, st.Drops)
	reg.Counter("fault_lost_total", "messages permanently lost (retries disabled or exhausted)").Add(0, st.Lost)
	reg.Counter("fault_retransmissions_total", "retransmitted message copies").Add(0, st.Retransmissions)
	reg.Counter("fault_backoff_waits_total", "retransmission waits beyond the base timeout (exponential backoff)").Add(0, st.BackoffWaits)
	reg.Counter("fault_duplicates_total", "duplicate message copies delivered and suppressed").Add(0, st.Duplicates)
	reg.Counter("fault_delays_total", "messages given injected extra transit delay").Add(0, st.Delays)
	reg.Counter("fault_crashes_total", "ranks stopped by injected crash failures").Add(0, st.Crashes)
}

// Run is a convenience wrapper: build a world and run the blocking body
// on every rank.
func Run(cfg Config, body func(*Rank)) (*Report, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.Run(body)
}

// trackAlloc charges n bytes (n may be negative for frees) against the
// global memory limit.
func (w *World) trackAlloc(n int64) error {
	w.memMu.Lock()
	defer w.memMu.Unlock()
	w.memUsed += n
	if w.cfg.MemoryLimit > 0 && w.memUsed > w.cfg.MemoryLimit {
		if w.memErr == nil {
			w.memErr = &MemoryLimitError{Used: w.memUsed, Limit: w.cfg.MemoryLimit}
		}
		return w.memErr
	}
	return nil
}

// MemoryLimitError reports that the target program exceeded the simulated
// memory available to the simulator, the failure mode that prevents
// MPI-SIM-DE from simulating large configurations.
type MemoryLimitError struct {
	Used, Limit int64
}

// Error implements error.
func (e *MemoryLimitError) Error() string {
	return fmt.Sprintf("mpi: simulated memory limit exceeded (%d > %d bytes)", e.Used, e.Limit)
}

// IsMemoryLimit reports whether err is a memory-limit failure.
func IsMemoryLimit(err error) bool {
	_, ok := err.(*MemoryLimitError)
	return ok
}
