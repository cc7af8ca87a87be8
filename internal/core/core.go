// Package core is the end-to-end integration of the paper's contribution:
// the dhpf-side compilation (static task graph, condensation, slicing,
// simplified-program emission) coupled with the MPI-Sim simulation modes.
// It drives the complete Figure-2 workflow:
//
//	source program --compiler--> simplified MPI code + MPI code with timers
//	timers on the (modeled) parallel system --> measured task times w_i
//	simplified code + w_i --MPI-Sim--> performance estimates (MPI-SIM-AM)
//
// RunSpec describes one prediction and Prepare / Plan.Run execute it:
// the one run path behind both front doors (cmd/mpisim, mpisimd), for
// programs and recorded traces alike. Runner is the stage below — a
// compiled program on a machine, with the three steps of the workflow
// (Check, Calibrate, Run) as methods — which the experiment tables drive
// directly when they sweep one program over many configurations.
//
// Three evaluation modes correspond to the paper's columns:
//
//	Measured   - the original program on the detailed machine model
//	             (stand-in for running on the real machine);
//	DirectExec - MPI-SIM-DE: direct execution of the computation with the
//	             simulator's analytic communication model;
//	Abstract   - MPI-SIM-AM: the compiler-simplified program with
//	             calibrated delays.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mpisim/internal/check"
	"mpisim/internal/compiler"
	"mpisim/internal/fault"
	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/net"
	"mpisim/internal/obs"
	"mpisim/internal/sim"
)

// Mode selects how a program configuration is evaluated.
type Mode int

// Evaluation modes.
const (
	// Measured is the ground truth: full computation on the detailed
	// communication model.
	Measured Mode = iota
	// DirectExec is MPI-SIM-DE: full computation, analytic communication.
	DirectExec
	// Abstract is MPI-SIM-AM: the simplified program with delay calls.
	Abstract
	// PureAnalytic is the paper's §5 extension: the simplified program
	// with the abstract communication model — analytical models for both
	// the sequential tasks and the communication, with no event-level
	// simulation at all. Fastest, least accurate on dependence-heavy
	// codes (it ignores pipelining and wavefront serialization, the
	// §1 critique of fully abstract simulation).
	PureAnalytic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Measured:
		return "measured"
	case DirectExec:
		return "MPI-SIM-DE"
	case Abstract:
		return "MPI-SIM-AM"
	case PureAnalytic:
		return "MPI-SIM-AM/abstract-comm"
	}
	return "unknown"
}

// Comm names the communication timing model the mode runs under
// (mpi.CommModel.String). Trace headers record it so replay reproduces
// the recorded schedule under the same model (see internal/tracein).
func (m Mode) Comm() string {
	switch m {
	case Measured:
		return "detailed"
	case PureAnalytic:
		return "abstract"
	}
	return "analytic"
}

// Runner owns a compiled application and a target machine, and runs it
// in any mode.
type Runner struct {
	Program  *ir.Program
	Machine  *machine.Model
	Compiled *compiler.Result
	// TaskTimes is the current w_i calibration table (set by Calibrate
	// or manually).
	TaskTimes map[string]float64
	// HostWorkers configures the simulation engine for subsequent runs.
	HostWorkers  int
	RealParallel bool
	// MemoryLimit bounds simulated target memory for DE/measured runs
	// (0 = unlimited). AM runs are never limited: their footprint is the
	// point of the technique.
	MemoryLimit int64
	// CollectMatrix enables rank-to-rank communication matrices in run
	// reports.
	CollectMatrix bool
	// CollectTrace enables per-rank activity segments in run reports.
	CollectTrace bool
	// RecordCalls enables the API-level MPI call log in run reports
	// (mpi.Report.Calls), from which internal/tracein records a
	// replayable trace.
	RecordCalls bool
	// ProfileBranches enables the paper's §3.1 profiling refinement:
	// Calibrate first measures the taken-probability of every branch,
	// recompiles so that conditionals folded into condensed tasks are
	// weighted by their measured probabilities instead of 0.5, and then
	// calibrates the w_i against the refined scaling functions.
	ProfileBranches bool
	// Metrics / Tracer attach the observability plane (internal/obs) to
	// every subsequent run's simulation kernel. Nil disables
	// instrumentation down to one pointer check per kernel hook.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Timeline, when non-nil and enabled, receives live time-series
	// snapshots from the kernel of every subsequent run (see
	// obs.Timeline); strictly out of band, results are unchanged.
	Timeline *obs.Timeline
	// RunInfo, when non-nil, is kept current with the run lifecycle
	// (calibrating/running/done/aborted), progress heartbeats, and the
	// horizon the percent/ETA estimates divide by: the MaxVirtualTime /
	// MaxEvents budgets.
	RunInfo *obs.RunInfo
	// LastCalibration is the collector of the most recent Calibrate call,
	// kept so callers can inspect per-coefficient fit quality
	// (Calibration.Stats) after the run.
	LastCalibration *interp.Calibration
	// Faults injects a deterministic fault scenario (internal/fault) into
	// evaluation runs. Calibration runs are never faulted: the w_i table
	// must reflect the healthy machine.
	Faults *fault.Scenario
	// MaxEvents / MaxVirtualTime / StallEvents bound evaluation runs
	// (0 = unlimited): event budget, virtual-time budget, and the
	// no-progress watchdog threshold (events processed without virtual
	// time advancing). A tripped budget returns the partial report
	// alongside a *sim.AbortError.
	MaxEvents      int64
	MaxVirtualTime float64
	StallEvents    int64
	// WallTimeout bounds each evaluation run's host wall-clock time
	// (0 = unlimited) via context cancellation; Ctx additionally lets the
	// caller cancel runs externally.
	WallTimeout time.Duration
	Ctx         context.Context
	// SkipChecks disables the pre-simulation static verification
	// (internal/check). By default every Run and Calibrate first verifies
	// the source program at the requested configuration and refuses to
	// simulate one with error-severity findings — a deadlocked or
	// mismatched program would otherwise burn a full simulation before
	// hanging or producing garbage.
	SkipChecks bool

	// checkCache memoizes verification per (ranks, inputs) configuration,
	// partCache the simplified program's rank classes.
	checkCache map[string]*check.Result
	partCache  map[string]partition
	// lookahead caches the (machine-dependent, rank-independent) kernel
	// lookahead computed by Lookahead.
	lookahead float64
}

// CheckError is returned when pre-simulation verification refuses a
// configuration. Result carries the complete findings for display.
type CheckError struct {
	Result *check.Result
	// Calibration marks a refused calibration configuration: the run's
	// Inputs applied at the calibration rank count, Result.Ranks.
	Calibration bool
	Inputs      map[string]float64
}

// Error implements error with a one-line summary in the job spec's words;
// use Result for the individual diagnostics.
func (e *CheckError) Error() string { return e.Explain("cal_ranks", "task_times", "skip_checks") }

// Explain is the one-line summary, naming the settings to change as a
// front door calls them.
func (e *CheckError) Explain(calRanks, taskTimes, skipChecks string) string {
	r := e.Result
	msg := fmt.Sprintf("core: static verification found %d error(s) in %s at %d ranks", r.Errors(), r.Program, r.Ranks)
	if !e.Calibration {
		return fmt.Sprintf("%s (set %s to simulate anyway)", msg, skipChecks)
	}
	carried := []string{}
	for k, v := range e.Inputs {
		carried = append(carried, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(carried)
	return fmt.Sprintf("%s, the calibration configuration, with the run's inputs {%s}: set %s to a rank count they fit, supply %s, or set %s to simulate anyway",
		msg, strings.Join(carried, ","), calRanks, taskTimes, skipChecks)
}

// Check runs the static communication verifier on the source program at
// a configuration. Results are cached per configuration, so the hook in
// Run costs one verification per distinct (ranks, inputs).
func (r *Runner) Check(ranks int, inputs map[string]float64) (*check.Result, error) {
	key := configKey(ranks, inputs)
	if res, ok := r.checkCache[key]; ok {
		return res, nil
	}
	res, err := check.Run(r.Program, check.Options{Ranks: ranks, Inputs: inputs, Machine: r.Machine})
	if err != nil {
		return nil, err
	}
	if r.checkCache == nil {
		r.checkCache = map[string]*check.Result{}
	}
	r.checkCache[key] = res
	return res, nil
}

// configKey names a (ranks, inputs) configuration.
func configKey(ranks int, inputs map[string]float64) string {
	keys := make([]string, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", ranks)
	for _, k := range keys {
		fmt.Fprintf(&sb, "|%s=%g", k, inputs[k])
	}
	return sb.String()
}

// classMinRanks is the rank count from which an AM run executes by rank
// class. Below it the partition can cost more than it saves: measured,
// every app at its default inputs breaks even by 196 ranks (NAS SP last,
// Sweep3D and Tomcatv by 64), and a stream that gives up pays the
// partition for nothing (EXPERIMENTS.md "Class-native AM: where it pays").
var classMinRanks = 256

// partition is check.Partition's result: each rank's representative, or
// -1, and why a rank is not covered.
type partition struct {
	rep []int32
	why string
}

// classes is the simplified program's rank classes at a configuration
// (check.Partition, for interp.RunClasses), cached like Check; none
// below classMinRanks.
func (r *Runner) classes(ranks int, inputs map[string]float64) (partition, error) {
	if ranks < classMinRanks {
		return partition{}, nil
	}
	key := configKey(ranks, inputs)
	if pt, ok := r.partCache[key]; ok {
		return pt, nil
	}
	rep, why, err := check.Partition(r.Compiled.Simplified, ranks, inputs)
	if err != nil {
		return partition{}, err
	}
	if r.partCache == nil {
		r.partCache = map[string]partition{}
	}
	r.partCache[key] = partition{rep, why}
	return r.partCache[key], nil
}

// precheck is the fail-fast hook: verify before simulating.
func (r *Runner) precheck(ranks int, inputs map[string]float64) error {
	if r.SkipChecks {
		return nil
	}
	res, err := r.Check(ranks, inputs)
	if err != nil {
		return fmt.Errorf("core: static verification: %w", err)
	}
	if res.HasErrors() {
		return &CheckError{Result: res}
	}
	return nil
}

// NewRunner compiles the program for the given machine.
func NewRunner(p *ir.Program, m *machine.Model) (*Runner, error) {
	res, err := compiler.Compile(p)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Runner{Program: p, Machine: m, Compiled: res}, nil
}

// Calibrate runs the timer-instrumented program on a reference
// configuration and stores the measured w_i table (paper §3.3: "measure
// task times for one or a few selected problem sizes and number of
// processors"). It returns the table. Ctx and WallTimeout bound the timer
// and profiling runs as they bound Run: a run they stop fails with a
// wrapped *sim.AbortError.
func (r *Runner) Calibrate(ranks int, inputs map[string]float64) (map[string]float64, error) {
	if err := r.precheck(ranks, inputs); err != nil {
		return nil, err
	}
	if r.RunInfo != nil {
		r.RunInfo.SetState(obs.RunCalibrating)
	}
	ctx, cancel := wallCtx(r.Ctx, r.WallTimeout)
	defer cancel()
	// The timer and profiling runs stay on the sequential engine whatever
	// the prediction runs on: their collectors sum floating-point samples
	// in the order ranks reach them, which real host workers do not
	// repeat, and the w_i table must be one value per configuration.
	timer := mpi.Config{
		Ranks: ranks, Machine: r.Machine, Comm: mpi.Detailed,
		Metrics: r.Metrics, Tracer: r.Tracer, Limits: sim.Limits{Ctx: ctx},
	}
	if r.ProfileBranches {
		bp := interp.NewBranchProfile()
		if _, err := interp.Run(r.Compiled.Timer, interp.Config{
			Config:        timer,
			Inputs:        inputs,
			BranchProfile: bp,
		}); err != nil {
			return nil, fmt.Errorf("core: branch-profiling run: %w", err)
		}
		refined, err := compiler.CompileOpts(r.Program,
			compiler.Options{BranchProbs: bp.Probabilities()})
		if err != nil {
			return nil, fmt.Errorf("core: recompile with branch profile: %w", err)
		}
		r.Compiled = refined
	}
	cal := interp.NewCalibration()
	_, err := interp.Run(r.Compiled.Timer, interp.Config{
		Config:      timer,
		Inputs:      inputs,
		Calibration: cal,
	})
	if err != nil {
		return nil, fmt.Errorf("core: calibration run: %w", err)
	}
	r.LastCalibration = cal
	r.TaskTimes = cal.TaskTimes()
	return r.TaskTimes, nil
}

// Run evaluates the configuration in the given mode. Unless SkipChecks
// is set, the configuration is first statically verified and refused
// (with a CheckError) when verification finds errors. Fault scenarios
// and run limits (budgets, watchdog, wall-clock timeout) apply here (Ctx
// and the wall-clock timeout to Calibrate too); a tripped limit returns
// the partial report together with the *sim.AbortError describing why.
func (r *Runner) Run(mode Mode, ranks int, inputs map[string]float64) (*mpi.Report, error) {
	if err := r.precheck(ranks, inputs); err != nil {
		return nil, err
	}
	ctx, cancel := wallCtx(r.Ctx, r.WallTimeout)
	defer cancel()
	cfg := interp.Config{
		Config: mpi.Config{
			Ranks: ranks, Machine: r.Machine,
			HostWorkers: r.HostWorkers, RealParallel: r.RealParallel,
			CollectMatrix: r.CollectMatrix,
			CollectTrace:  r.CollectTrace,
			RecordCalls:   r.RecordCalls,
			Metrics:       r.Metrics,
			Tracer:        r.Tracer,
			Timeline:      r.Timeline,
			RunInfo:       r.RunInfo,
			Faults:        r.Faults,
			Limits: sim.Limits{
				MaxEvents:   r.MaxEvents,
				MaxTime:     sim.Time(r.MaxVirtualTime),
				StallEvents: r.StallEvents,
				Ctx:         ctx,
			},
		},
		Inputs: inputs,
	}
	return trackRun(r.RunInfo, cfg.Limits, func() (*mpi.Report, error) { return r.runMode(mode, cfg) })
}

// runMode dispatches the mode-specific program/comm-model combination.
func (r *Runner) runMode(mode Mode, cfg interp.Config) (*mpi.Report, error) {
	switch mode {
	case Measured:
		cfg.Comm = mpi.Detailed
		cfg.MemoryLimit = r.MemoryLimit
		return interp.Run(r.Program, cfg)
	case DirectExec:
		cfg.Comm = mpi.Analytic
		cfg.MemoryLimit = r.MemoryLimit
		return interp.Run(r.Program, cfg)
	case Abstract:
		if r.TaskTimes == nil {
			return nil, fmt.Errorf("core: Abstract mode requires Calibrate first")
		}
		cfg.Comm = mpi.Analytic
		cfg.TaskTimes = r.TaskTimes
		pt, err := r.classes(cfg.Ranks, cfg.Inputs)
		if err != nil {
			return nil, err
		}
		return interp.RunClasses(r.Compiled.Simplified, cfg, pt.rep)
	case PureAnalytic:
		if r.TaskTimes == nil {
			return nil, fmt.Errorf("core: PureAnalytic mode requires task times (Calibrate or EstimateTaskTimes)")
		}
		cfg.Comm = mpi.AbstractComm
		cfg.TaskTimes = r.TaskTimes
		return interp.Run(r.Compiled.Simplified, cfg)
	}
	return nil, fmt.Errorf("core: unknown mode %d", mode)
}

// EstimateTaskTimes sets the w_i table from a purely static compiler
// estimate instead of measurement: one abstract operation costs the
// machine's OpTime scaled by the cache factor of the per-rank working
// set at the given reference configuration. This is the paper's §3.3
// alternative (a), "compiler support for estimating sequential task
// execution times analytically" — no program execution is needed at all.
func (r *Runner) EstimateTaskTimes(ranks int, inputs map[string]float64) (map[string]float64, error) {
	total, err := r.DEMemory(ranks, inputs)
	if err != nil {
		return nil, err
	}
	perRank := total / int64(ranks)
	w := r.Machine.ComputeTime(1, perRank)
	tt := make(map[string]float64, len(r.Compiled.TaskVars))
	for _, name := range r.Compiled.TaskVars {
		tt[name] = w
	}
	r.TaskTimes = tt
	return tt, nil
}

// Validation compares the three modes on one configuration.
type Validation struct {
	Ranks                        int
	MeasuredTime, DETime, AMTime float64
	// DEError and AMError are relative errors against Measured.
	DEError, AMError          float64
	MeasuredRep, DERep, AMRep *mpi.Report
}

// Validate runs measured, DE and AM on the configuration, calibrating at
// (calRanks, calInputs) if no task-time table is present yet.
func (r *Runner) Validate(ranks int, inputs map[string]float64,
	calRanks int, calInputs map[string]float64) (*Validation, error) {
	if r.TaskTimes == nil {
		if _, err := r.Calibrate(calRanks, calInputs); err != nil {
			return nil, err
		}
	}
	meas, err := r.Run(Measured, ranks, inputs)
	if err != nil {
		return nil, fmt.Errorf("core: measured run: %w", err)
	}
	de, err := r.Run(DirectExec, ranks, inputs)
	if err != nil {
		return nil, fmt.Errorf("core: DE run: %w", err)
	}
	am, err := r.Run(Abstract, ranks, inputs)
	if err != nil {
		return nil, fmt.Errorf("core: AM run: %w", err)
	}
	v := &Validation{
		Ranks:        ranks,
		MeasuredTime: meas.Time, DETime: de.Time, AMTime: am.Time,
		MeasuredRep: meas, DERep: de, AMRep: am,
	}
	if meas.Time > 0 {
		v.DEError = relAbs(de.Time, meas.Time)
		v.AMError = relAbs(am.Time, meas.Time)
	}
	return v, nil
}

func relAbs(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// DEMemory estimates the direct-execution simulator's target-state
// memory for a configuration without running it.
func (r *Runner) DEMemory(ranks int, inputs map[string]float64) (int64, error) {
	return interp.MemoryEstimate(r.Program, ranks, inputs)
}

// AMMemory estimates the optimized simulator's target-state memory for a
// configuration without running it (the simplified program's arrays).
func (r *Runner) AMMemory(ranks int, inputs map[string]float64) (int64, error) {
	return interp.MemoryEstimate(r.Compiled.Simplified, ranks, inputs)
}

// Lookahead returns the conservative lookahead used by the host-cost
// model: the machine's network latency for the flat analytic model, or
// the topology's claim-leg latency when the machine names a non-flat
// interconnect (see net.Network.Lookahead). The multi-rank intra-node
// bound depends on the placement at the actual rank count and is
// applied by the mpi layer itself; this estimate uses the
// one-rank-per-host value.
func (r *Runner) Lookahead() float64 {
	if r.lookahead > 0 {
		return r.lookahead
	}
	r.lookahead = r.Machine.Net.Latency
	if nw, err := net.Build(r.Machine, 1); err == nil && nw != nil {
		r.lookahead = nw.ClaimLatency()
	}
	return r.lookahead
}
