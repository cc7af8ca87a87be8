package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/sim"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// Cache lets a long-lived front door reuse the two expensive,
// run-independent products of Prepare across specs that share them. Each
// method returns what is stored under the key, calling the closure on a
// miss; concurrent callers of one key must run it once. Prepare(…, nil, …)
// computes both every time.
type Cache interface {
	// Compiled is the program and its compilation under a compile key.
	Compiled(key string, build func() (*ir.Program, *compiler.Result, error)) (*ir.Program, *compiler.Result, error)
	// TaskTimes is a w_i table under a calibration key, which refines the
	// compile key it is passed with.
	TaskTimes(compileKey, calKey string, calibrate func() (map[string]float64, error)) (map[string]float64, error)
}

// noCache is Prepare's Cache when the caller has none.
type noCache struct{}

func (noCache) Compiled(_ string, build func() (*ir.Program, *compiler.Result, error)) (*ir.Program, *compiler.Result, error) {
	return build()
}

func (noCache) TaskTimes(_, _ string, calibrate func() (map[string]float64, error)) (map[string]float64, error) {
	return calibrate()
}

// Plan is a prediction ready to simulate: everything Figure 2 does short
// of the final MPI-Sim run has happened. The exported fields are what a
// front door prints or records about it.
type Plan struct {
	// Runner holds the compiled, verified and calibrated program; nil
	// for a replay.
	Runner *Runner
	// Trace is the (extrapolated) trace a replay re-issues; nil for a
	// compiled workload.
	Trace   *tracein.Trace
	Machine *machine.Model
	// App names the workload and Mode its evaluation mode as artifacts
	// and trace headers spell them ("MPI-SIM-AM", "replay", …).
	App, Mode string
	Ranks     int
	// Inputs are the merged problem-size parameters of the run.
	Inputs map[string]float64
	// CalRanks is the rank count w_i was calibrated at (the table is
	// Runner.TaskTimes); 0 when the spec supplied the table or the mode
	// needs none.
	CalRanks int
	// Warnings are the extrapolation's once-per-task degrade notices.
	Warnings []string

	mode   Mode
	limits SpecLimits
	host   mpi.Config
}

// Prepare does everything a prediction needs before it simulates.
//
// For a program (tr == nil): build or parse it and compile it (through
// cache), merge the spec's inputs over the app defaults, resolve the
// machine with its topology and placement, for MPI-SIM-AM without a
// supplied table verify and calibrate at the calibration configuration
// (through cache), verify at the run configuration, and — when a RunInfo
// is attached and a w_i table exists — fix the progress horizon from a
// fast abstract pre-run. A refused configuration is a *CheckError.
//
// For a trace: refuse it on more than one host worker if it receives
// from any source (*WildcardError), extrapolate it to spec.TraceRanks
// when that asks for a larger machine, and resolve the machine — the
// spec's when it names one, else the header's.
//
// host carries what belongs to the front door rather than to the
// prediction: the engine (HostWorkers, RealParallel),
// the collection switches, the observability hooks and the memory limit.
// Its Ranks, Machine, Comm, TaskTimes, Faults and Limits are the spec's
// to say and are overwritten. Metrics, Tracer and Timeline observe the
// prediction only: the calibration run is a different program on a
// different configuration, and metering it into the same counters and
// trace would describe neither.
//
// The spec must have passed Validate.
func Prepare(spec *RunSpec, host mpi.Config, cache Cache, tr *tracein.Trace) (*Plan, error) {
	if cache == nil {
		cache = noCache{}
	}
	if host.RunInfo != nil {
		host.RunInfo.SetState(obs.RunCompiling)
	}
	host.Faults = spec.Faults
	p := &Plan{limits: spec.limits(), host: host}
	if tr != nil {
		if err := p.prepareReplay(spec, tr); err != nil {
			return nil, err
		}
		return p, nil
	}

	m, err := spec.machine(spec.Machine)
	if err != nil {
		return nil, err
	}
	ck := spec.compileKey()
	prog, compiled, err := cache.Compiled(ck, func() (*ir.Program, *compiler.Result, error) {
		prog, err := spec.program()
		if err != nil {
			return nil, nil, err
		}
		res, err := compiler.Compile(prog)
		return prog, res, err
	})
	if err != nil {
		return nil, err
	}
	r := &Runner{
		Program: prog, Machine: m, Compiled: compiled,
		TaskTimes:   spec.TaskTimes,
		HostWorkers: host.HostWorkers, RealParallel: host.RealParallel,
		RunInfo:    host.RunInfo,
		SkipChecks: spec.SkipChecks,
	}
	p.Runner, p.Machine, p.mode = r, m, spec.mode()
	p.App, p.Mode, p.Ranks = spec.App, p.mode.String(), spec.Ranks
	if p.App == "" {
		p.App = prog.Name
	}
	p.Inputs = spec.inputsAt(spec.Ranks)

	if p.mode == Abstract && r.TaskTimes == nil {
		p.CalRanks = spec.effectiveCalRanks()
		calInputs := spec.inputsAt(p.CalRanks)
		r.TaskTimes, err = cache.TaskTimes(ck, calKey(ck, p.CalRanks, calInputs),
			func() (map[string]float64, error) { return r.Calibrate(p.CalRanks, calInputs) })
		if err != nil {
			return nil, err
		}
	}
	if err := r.precheck(p.Ranks, p.Inputs); err != nil {
		return nil, err
	}

	r.MemoryLimit = host.MemoryLimit
	r.CollectMatrix, r.CollectTrace, r.RecordCalls = host.CollectMatrix, host.CollectTrace, host.RecordCalls
	r.Metrics, r.Tracer, r.Timeline = host.Metrics, host.Tracer, host.Timeline
	r.Faults = spec.Faults
	r.MaxEvents, r.MaxVirtualTime, r.StallEvents = p.limits.MaxEvents, p.limits.MaxVirtualTime, p.limits.StallEvents
	r.WallTimeout = p.limits.WallTimeout()
	if r.RunInfo != nil && r.TaskTimes != nil {
		// Best-effort: without the estimate, progress and ETA divide by
		// the budgets instead of the statically predicted end.
		_, _ = r.EstimateHorizon(p.Ranks, p.Inputs)
	}
	return p, nil
}

// WildcardError refuses a replay on more than one host worker of a
// trace that receives from mpi.AnySource: the parallel engine matches a
// wildcard against the messages its window has seen, which is exact
// only on one worker.
type WildcardError struct {
	// Rank and Call locate the first wildcard receive in rank order (the
	// call counted from 0 in the rank's sequence).
	Rank, Call int
}

func (e *WildcardError) Error() string {
	return fmt.Sprintf("core: trace rank %d, call %d receives from any source, which the parallel engine cannot match exactly; replay it with one host worker",
		e.Rank, e.Call)
}

func (p *Plan) prepareReplay(spec *RunSpec, tr *tracein.Trace) error {
	if p.host.HostWorkers > 1 {
		if rank, call, ok := tr.AnySource(); ok {
			return &WildcardError{Rank: rank, Call: call}
		}
	}
	if n := spec.TraceRanks; n > 0 && n != tr.Header.Ranks {
		var err error
		tr, err = tracein.Extrapolate(tr, tracein.ExtrapolateOptions{
			Ranks:  n,
			Inputs: spec.Inputs,
			Warn: func(format string, args ...interface{}) {
				p.Warnings = append(p.Warnings, fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return err
		}
	}
	name := spec.Machine
	if name == "" {
		name = tr.Header.Machine
	}
	m, err := spec.machine(name)
	if err != nil {
		return err
	}
	p.Trace, p.Machine = tr, m
	p.App, p.Mode, p.Ranks, p.Inputs = tr.Header.App, "replay", tr.Header.Ranks, tr.Header.Inputs
	if p.App == "" {
		p.App = "trace"
	}
	return nil
}

// Header describes the prediction as a trace header, for recording its
// call log: a replay keeps the header it came with.
func (p *Plan) Header() tracein.Header {
	if p.Trace != nil {
		return p.Trace.Header
	}
	return tracein.Header{
		App: p.App, Mode: p.Mode, Machine: p.Machine.Name, Comm: p.mode.Comm(),
		Inputs: p.Inputs, TaskScale: p.Runner.Compiled.TaskScales(),
	}
}

// Outcome is a finished simulation.
type Outcome struct {
	Report *mpi.Report
	// Abort is why the run stopped early (budget, watchdog, cancellation,
	// crash starvation); Report is then the partial result up to there.
	Abort *sim.AbortError
	// Artifact is the run's archival record, with the task anchors of a
	// compiled program and, for a partial result, how much of the run it
	// covers.
	Artifact *trace.Artifact
}

// Run simulates the plan under the spec's limits and faults, cancelled
// by ctx, keeping the attached RunInfo current. A run that stops early
// but has a partial report is an Outcome with Abort set, not an error;
// the error is a failure that left nothing to report (*sim.PanicError, a
// simulated out-of-memory, an abort before the first event).
func (p *Plan) Run(ctx context.Context) (*Outcome, error) {
	var rep *mpi.Report
	var err error
	if r := p.Runner; r != nil {
		r.Ctx = ctx
		rep, err = r.Run(p.mode, p.Ranks, p.Inputs)
	} else {
		ctx, cancel := wallCtx(ctx, p.limits.WallTimeout())
		defer cancel()
		cfg := p.host
		cfg.Ranks, cfg.Machine = p.Ranks, p.Machine
		cfg.Limits = sim.Limits{
			MaxEvents:   p.limits.MaxEvents,
			MaxTime:     sim.Time(p.limits.MaxVirtualTime),
			StallEvents: p.limits.StallEvents,
			Ctx:         ctx,
		}
		rep, err = trackRun(cfg.RunInfo, cfg.Limits, func() (*mpi.Report, error) {
			return tracein.Replay(p.Trace, cfg)
		})
	}
	out := &Outcome{Report: rep}
	if err != nil && (rep == nil || !errors.As(err, &out.Abort)) {
		return nil, err
	}

	art := &trace.Artifact{App: p.App, Mode: p.Mode, Machine: p.Machine.Name, Inputs: p.Inputs, Report: rep}
	if p.Runner != nil {
		if tls := p.Runner.Compiled.TaskLines(); len(tls) > 0 {
			art.TaskLines = make(map[string]int, len(tls))
			art.TaskHeads = make(map[string]string, len(tls))
			for _, tl := range tls {
				art.TaskLines[tl.Task] = tl.Line
				art.TaskHeads[tl.Task] = tl.Head
			}
		}
	}
	if rep.Partial {
		// How much of the run the truncated prediction covers: the live
		// tracker's last snapshot when it has one, else the consumed
		// fraction of whichever budget is set.
		switch ri := p.host.RunInfo; {
		case ri != nil && ri.Status().Percent > 0:
			art.Progress = ri.Status().Percent
		case p.limits.MaxVirtualTime > 0:
			art.Progress = rep.Time / p.limits.MaxVirtualTime
		case p.limits.MaxEvents > 0:
			art.Progress = float64(rep.Kernel.Events) / float64(p.limits.MaxEvents)
		}
		art.Progress = min(max(art.Progress, 0), 1)
	}
	out.Artifact = art
	return out, nil
}

// wallCtx bounds base (nil = background) by a wall-clock budget; zero
// leaves it unbounded.
func wallCtx(base context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return base, func() {}
	}
	if base == nil {
		base = context.Background()
	}
	return context.WithTimeout(base, d)
}

// trackRun keeps ri (nil = untracked) current across one simulation:
// the budgets become the progress horizon unless a static estimate
// already set one, the state goes running, and the result finishes it
// done or aborted.
func trackRun(ri *obs.RunInfo, lim sim.Limits, run func() (*mpi.Report, error)) (*mpi.Report, error) {
	if ri == nil {
		return run()
	}
	ri.SetHorizon(float64(lim.MaxTime), lim.MaxEvents)
	ri.SetState(obs.RunRunning)
	rep, err := run()
	vt := 0.0
	if rep != nil {
		vt = rep.Time
	}
	if err != nil {
		reason := err.Error()
		if ab, ok := err.(*sim.AbortError); ok {
			reason = ab.Reason
		}
		ri.Finish(obs.RunAborted, vt, reason)
	} else {
		ri.Finish(obs.RunDone, vt, "")
	}
	return rep, err
}
