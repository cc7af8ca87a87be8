// Command mpisim runs one of the paper's benchmark applications under the
// simulator in any evaluation mode and prints the predicted performance.
//
// Usage:
//
//	mpisim -app tomcatv -mode am -ranks 64 -inputs N=2048,ITER=100
//	mpisim -app sweep3d -mode measured -ranks 16
//	mpisim -app nassp -mode de -ranks 9 -inputs NX=64,STEPS=10,Q=3
//	mpisim -app sweep3d -mode am -ranks 64 -tracefile run.json -metrics
//	mpisim -app sweep3d -mode am -ranks 64 -runjson r64.json   # then mpireport
//	mpisim -app sweep3d -mode am -ranks 64 -faults loss.json -watchdog 100000
//	mpisim -app sweep3d -mode am -ranks 256 -progress -obshttp :8080
//	mpisim -app sweep3d -mode am -ranks 64 -profile run.pb.gz   # go tool pprof
//	mpisim -app sample -mode de -ranks 16 -record run.trace     # record a trace
//	mpisim -tracein run.trace -topology torus:dims=4x4          # replay it
//	mpisim -tracein run.trace -xranks 64 -runjson x64.json      # extrapolate
//
// Modes: measured (detailed ground truth), de (MPI-SIM-DE, direct
// execution), am (MPI-SIM-AM, compiler-simplified program with delay
// calls). AM calibrates w_i automatically at -cal-ranks unless a table is
// supplied with -tasktimes.
//
// Traces: -record writes the run's API-level call log as a versioned
// JSONL trace (internal/tracein). -tracein replays such a trace — no
// program or compiler involved — against any machine, topology,
// placement, fault scenario and engine configuration; -xranks first
// extrapolates the trace to a larger rank count (weak scaling) using
// the recorded symbolic task-scaling functions.
//
// Robustness: -faults runs under a deterministic fault-injection
// scenario (message loss/duplication/delay, link and compute slowdowns,
// rank crashes; internal/fault). -watchdog, -budget, -timebudget and
// -walltimeout bound the run; a tripped bound aborts with a per-rank
// wait-state dump on stderr while still reporting (and, with -runjson,
// archiving) the partial result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/check"
	"mpisim/internal/cliutil"
	"mpisim/internal/core"
	"mpisim/internal/dtg"
	"mpisim/internal/fault"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

func main() {
	if err := run(); err != nil {
		// When the pre-simulation verifier refused the configuration,
		// surface its findings one per line before the summary.
		var ce *core.CheckError
		if errors.As(err, &ce) {
			fmt.Fprint(os.Stderr, ce.Result.Text(check.Error))
		}
		fmt.Fprintln(os.Stderr, "mpisim:", err)
		os.Exit(1)
	}
}

// output carries the post-run reporting configuration.
type output struct {
	verbose, matrix     bool
	timeline, dtg       bool
	tracer              *obs.Tracer
	traceDone           func() error
	traceFile, traceFmt string
	runJSON, profile    string
	profFold            string
	recordFile          string
	reg                 *obs.Registry
}

// run is flags → core.RunSpec + host configuration → core.Prepare →
// Plan.Run → emit; what a prediction is and how it is executed live in
// internal/core, shared with mpisimd.
func run() error {
	var (
		appName   = flag.String("app", "tomcatv", "application: "+strings.Join(apps.Names(), ", "))
		file      = flag.String("file", "", "load a program from a pseudocode file instead of -app (see stgdump output for the format)")
		modeName  = flag.String("mode", "am", "evaluation mode: measured, de, am")
		ranks     = flag.Int("ranks", 4, "number of target processors")
		inputsStr = flag.String("inputs", "", "program inputs as key=value,... (defaults per app)")
		machName  = flag.String("machine", "ibmsp", "target machine: "+strings.Join(machine.Names(), ", "))
		listMach  = flag.Bool("listmachines", false, "list the machine model presets and exit")
		topology  = flag.String("topology", "", "interconnect topology: flat, bus[:hosts=N], torus:dims=4x4, fattree:k=4, graph:PATH (empty = machine default)")
		placement = flag.String("placement", "", "rank placement onto hosts: block, roundrobin, random:SEED (empty = machine default)")
		netJSON   = flag.String("netjson", "", "arbitrary-graph topology config file (shorthand for -topology graph:PATH)")
		hosts     = flag.Int("hosts", 1, "host processors for the simulation engine")
		calRanks  = flag.Int("cal-ranks", 0, "calibration rank count for AM (default: min(ranks,16))")
		ttFile    = flag.String("tasktimes", "", "read w_i table from file instead of calibrating")
		memLimit  = flag.Int64("memlimit", 0, "simulated memory limit in bytes for measured/DE runs")
		verbose   = flag.Bool("v", false, "print per-rank statistics")
		matrix    = flag.Bool("matrix", false, "print the rank-to-rank communication matrix")
		timeline  = flag.Bool("timeline", false, "print a per-rank activity timeline of the predicted run")
		dtgFlag   = flag.Bool("dtg", false, "print dynamic-task-graph statistics (critical path, parallelism)")
		checkFlag = flag.Bool("check", false, "print every static-verification finding (not just errors) to stderr before running")
		noCheck   = flag.Bool("nocheck", false, "skip the pre-simulation static verification entirely")
		metrics   = flag.Bool("metrics", false, "print simulator self-metrics to stderr after the run")
		traceFile = flag.String("tracefile", "", "write a structured trace of the run to this file (implies trace collection)")
		traceFmt  = flag.String("traceformat", "chrome", "trace file format: chrome (trace_event JSON for Perfetto) or jsonl")
		runJSON   = flag.String("runjson", "", "write the run artifact as JSON (input for mpireport)")
		progress  = flag.Bool("progress", false, "print a progress/ETA line to stderr every 2s while the run executes")
		obsHTTP   = flag.String("obshttp", "", "serve live telemetry over HTTP on this address (endpoints: / /text /series /run /events /healthz)")
		profile   = flag.String("profile", "", "write a virtual-time pprof profile of the predicted run (gzip profile.proto; view with go tool pprof)")
		profFold  = flag.String("profilefolded", "", "write the virtual-time profile as folded stacks (flamegraph.pl input)")

		recordFile = flag.String("record", "", "record the run's MPI call log as a JSONL trace to this file (internal/tracein)")
		traceIn    = flag.String("tracein", "", "replay a recorded JSONL trace instead of simulating a program (excludes -app/-file/-mode and the options that only apply to programs)")
		xranks     = flag.Int("xranks", 0, "with -tracein: extrapolate the trace to this rank count (a multiple of the trace's) before replaying")

		faultsFile  = flag.String("faults", "", "run under a deterministic fault-injection scenario (JSON, see internal/fault)")
		faultSeed   = flag.Uint64("seed", 0, "override the fault scenario's RNG seed (0 = keep the file's)")
		watchdog    = flag.Int64("watchdog", 0, "abort after N events without virtual-time progress, with a per-rank wait-state dump (0 = off)")
		budget      = flag.Int64("budget", 0, "abort after N simulation events, keeping the partial result (0 = unlimited)")
		timeBudget  = flag.Float64("timebudget", 0, "abort past this virtual time in seconds (0 = unlimited)")
		wallTimeout = flag.Duration("walltimeout", 0, "abort after this much host wall-clock time, e.g. 30s (0 = unlimited)")
	)
	flag.Parse()

	if *listMach {
		listMachines()
		return nil
	}
	replay := *traceIn != ""
	// A trace describes its own run, so under -tracein only the flags the
	// user typed enter the spec, where Validate refuses the ones that
	// contradict a replay; the flags' defaults describe programs.
	typed := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { typed[f.Name] = true })
	use := func(name string) bool { return !replay || typed[name] }
	if *xranks != 0 && !replay {
		return fmt.Errorf("-xranks requires -tracein")
	}
	if *netJSON != "" {
		if *topology != "" {
			return fmt.Errorf("-netjson and -topology are mutually exclusive")
		}
		*topology = "graph:" + *netJSON
	}

	spec := &core.RunSpec{
		TraceRanks: *xranks, Mode: "replay",
		Topology: *topology, Placement: *placement,
		CalRanks: *calRanks, SkipChecks: *noCheck,
		Limits: &core.SpecLimits{
			MaxEvents: *budget, MaxVirtualTime: *timeBudget, StallEvents: *watchdog,
			// Rounded up: a sub-millisecond budget must not read as "none".
			WallTimeoutMS: int64((*wallTimeout + time.Millisecond - 1) / time.Millisecond),
		},
	}
	if use("app") && *file == "" {
		spec.App = *appName
	}
	if use("mode") {
		spec.Mode = *modeName
	}
	if use("ranks") {
		spec.Ranks = *ranks
	}
	if use("machine") {
		spec.Machine = *machName
	}
	var err error
	if spec.Inputs, err = cliutil.ParseInputs(*inputsStr); err != nil {
		return err
	}
	if err := readSpecFiles(spec, *file, *ttFile, *faultsFile, *faultSeed); err != nil {
		return err
	}
	var tr *tracein.Trace
	var recorded *tracein.Header // a copy: extrapolation replaces the trace
	if replay {
		for _, name := range []string{"memlimit", "check"} {
			if typed[name] {
				return fmt.Errorf("-%s does not apply to -tracein: a replay runs no program", name)
			}
		}
		// Streamed from the file: a large trace never exists as one string.
		if tr, err = tracein.ParseFile(*traceIn); err != nil {
			return err
		}
		h := tr.Header
		recorded = &h
	}
	if err := spec.ValidateWith(recorded, 0); err != nil {
		return err
	}

	ri, reg, liveTL, err := openTelemetry(*progress, *metrics, *obsHTTP, *hosts)
	if err != nil {
		return err
	}
	o := &output{
		verbose: *verbose, matrix: *matrix, timeline: *timeline, dtg: *dtgFlag,
		traceFile: *traceFile, traceFmt: *traceFmt,
		runJSON: *runJSON, profile: *profile, profFold: *profFold,
		recordFile: *recordFile, reg: reg,
	}
	if *traceFile != "" {
		o.tracer, o.traceDone, err = cliutil.OpenTraceFile(*traceFile, *traceFmt)
		if err != nil {
			return err
		}
	}
	runCtx, cancelRun := signalContext()
	defer cancelRun()

	plan, err := core.Prepare(spec, mpi.Config{
		HostWorkers: *hosts, RealParallel: *hosts > 1,
		MemoryLimit:   *memLimit,
		CollectMatrix: *matrix,
		CollectTrace:  *timeline || *dtgFlag || *traceFile != "",
		RecordCalls:   *recordFile != "",
		Metrics:       reg, Tracer: o.tracer, Timeline: liveTL, RunInfo: ri,
	}, nil, tr)
	if err != nil {
		var ce *core.CheckError
		if *checkFlag && errors.As(err, &ce) {
			fmt.Fprint(os.Stderr, ce.Result.Text(check.Info))
		}
		return err
	}
	for _, w := range plan.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	if replay && plan.Ranks != recorded.Ranks {
		fmt.Printf("extrapolated %s from %d to %d ranks\n", *traceIn, recorded.Ranks, plan.Ranks)
	}
	if *checkFlag && !*noCheck {
		res, err := plan.Runner.Check(plan.Ranks, plan.Inputs) // verified by Prepare: a cache hit
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, res.Text(check.Info))
	}
	if plan.CalRanks > 0 {
		fmt.Printf("calibrating w_i on %d ranks...\n", plan.CalRanks)
		cliutil.WriteTaskTimes(os.Stdout, plan.Runner.TaskTimes)
	}

	stopProgress := func() {}
	if *progress {
		stopProgress = cliutil.StartProgress(os.Stderr, ri, 2*time.Second)
	}
	out, err := plan.Run(runCtx)
	stopProgress()
	if err != nil {
		return err
	}
	// An aborted run (budget, watchdog, cancellation, crash starvation)
	// still reports: the per-rank wait states go to stderr, the partial
	// prediction is printed and archived as usual, and the abort
	// surfaces as the final exit status.
	var abortErr error
	if ae := out.Abort; ae != nil {
		fmt.Fprint(os.Stderr, ae.Dump())
		abortErr = fmt.Errorf("run aborted: %s (wait-state dump on stderr, partial results above)", shorten(ae.Reason))
	}
	if replay {
		h := plan.Trace.Header
		fmt.Printf("trace: %s, %d ranks, %d events (recorded mode=%s comm=%s)\n",
			*traceIn, h.Ranks, plan.Trace.Events(), h.Mode, h.Comm)
	}
	if err := o.emit(plan, out); err != nil {
		return err
	}
	return abortErr
}

func listMachines() {
	for _, m := range machine.Presets() {
		topo := m.Topology
		if topo == "" {
			topo = "flat"
		}
		fmt.Printf("%-12s %3d MB/s, %6.3g s latency, topology %s\n",
			m.Name, int(m.Net.Bandwidth/1e6), m.Net.Latency, topo)
	}
}

// readSpecFiles loads what the spec takes by value and the flags name by
// path: the program text, the w_i table, the fault scenario.
func readSpecFiles(spec *core.RunSpec, file, ttFile, faultsFile string, seed uint64) error {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		spec.Program = string(src)
	}
	if ttFile != "" {
		f, err := os.Open(ttFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if spec.TaskTimes, err = cliutil.ReadTaskTimes(f); err != nil {
			return err
		}
	}
	if faultsFile != "" {
		sc, err := fault.Load(faultsFile)
		if err != nil {
			return err
		}
		if seed != 0 {
			sc.Seed = seed
		}
		spec.Faults = sc
	}
	return nil
}

// openTelemetry builds the live observability plane the flags ask for:
// the run tracker behind -progress and -obshttp, the metrics registry
// behind -metrics and -obshttp, and the HTTP server itself.
func openTelemetry(progress, metrics bool, addr string, hosts int) (*obs.RunInfo, *obs.Registry, *obs.Timeline, error) {
	var ri *obs.RunInfo
	if progress || addr != "" {
		ri = obs.NewRunInfo()
	}
	var reg *obs.Registry
	if metrics || addr != "" {
		reg = obs.NewRegistry(hosts)
		reg.SetEnabled(true)
	}
	if addr == "" {
		return ri, reg, nil, nil
	}
	tl := obs.NewTimeline(reg, obs.TimelineOptions{})
	tl.SetEnabled(true)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "mpisim: serving telemetry at http://%s/ (/series /run /events /healthz)\n", ln.Addr())
	go http.Serve(ln, obs.HandlerWith(reg, obs.HandlerOpts{Timeline: tl, Run: ri}))
	return ri, reg, tl, nil
}

// signalContext makes interruption an abort, not a kill: SIGINT/SIGTERM
// cancels the returned context, the kernel trips its cancellation guard,
// and the normal abort path still prints the partial prediction and
// (with -runjson) archives the partial artifact with its abort reason
// and progress. A second signal force-quits immediately.
func signalContext() (context.Context, context.CancelFunc) {
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "mpisim: %v: cancelling run, partial results follow (repeat to force-quit)\n", sig)
		cancel()
		// Keep receiving so a second signal — even one delivered while
		// the first was being handled — force-quits unconditionally
		// instead of relying on restoring the default disposition.
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "mpisim: %v: force quit\n", sig)
		code := 1
		if s, ok := sig.(syscall.Signal); ok {
			code = 128 + int(s)
		}
		os.Exit(code)
	}()
	return ctx, cancel
}

// emit prints the prediction summary and writes every requested
// artifact: timeline, DTG stats, structured trace, recorded call trace,
// run artifact, profiles, metrics.
func (o *output) emit(plan *core.Plan, out *core.Outcome) error {
	rep := out.Report
	fmt.Printf("app=%s mode=%s machine=%s targets=%d inputs=%v\n",
		plan.App, plan.Mode, plan.Machine.Name, plan.Ranks, plan.Inputs)
	if rep.Partial {
		fmt.Printf("PARTIAL result (aborted: %s)\n", shorten(rep.AbortReason))
	}
	fmt.Printf("predicted execution time: %s\n", cliutil.FormatSeconds(rep.Time))
	if f := rep.Faults; f != nil {
		fmt.Printf("faults: %d dropped (%d lost), %d retransmissions, %d duplicates, %d delayed, %d crashes, retry wait %s\n",
			f.Drops, f.Lost, f.Retransmissions, f.Duplicates, f.Delays, f.Crashes,
			cliutil.FormatSeconds(f.RetryWaitSeconds))
	}
	if st := rep.Net; st != nil {
		fmt.Printf("network: %s placement=%s, routed %d msgs (%s), node-local %d msgs, contention wait %s\n",
			st.Topology, st.Placement, st.InterMsgs, cliutil.FormatBytes(st.InterBytes),
			st.IntraMsgs, cliutil.FormatSeconds(st.Wait))
		if o.verbose {
			fmt.Print(trace.Congestion(rep, 5))
		}
	}
	fmt.Printf("target memory: total %s, max rank %s\n",
		cliutil.FormatBytes(rep.TotalPeakBytes), cliutil.FormatBytes(rep.MaxRankPeakBytes))
	fmt.Printf("kernel: %d events, %d messages delivered, %d windows\n",
		rep.Kernel.Events, rep.Kernel.Delivered, rep.Kernel.Windows)
	if o.verbose {
		for i, rs := range rep.Ranks {
			fmt.Printf("  rank %4d: compute %-12s delay %-12s blocked %-12s sent %d msgs / %s",
				i, cliutil.FormatSeconds(float64(rs.ComputeTime)),
				cliutil.FormatSeconds(float64(rs.DelayTime)),
				cliutil.FormatSeconds(float64(rs.BlockedTime)),
				rs.MsgsSent, cliutil.FormatBytes(rs.BytesSent))
			if rs.FaultTime > 0 {
				fmt.Printf(" fault %s", cliutil.FormatSeconds(float64(rs.FaultTime)))
			}
			if rs.Crashed {
				fmt.Print(" CRASHED")
			}
			fmt.Println()
		}
	}
	if o.timeline {
		tl, err := trace.Timeline(rep, 100)
		if err != nil {
			return err
		}
		fmt.Print(tl)
		u, err := trace.Utilize(rep)
		if err != nil {
			return err
		}
		fmt.Println("utilization:")
		fmt.Print(u.Summary())
	}
	if o.dtg {
		g, err := dtg.Build(rep)
		if err != nil {
			return err
		}
		fmt.Println(g.Summarize())
	}
	if o.tracer != nil {
		// The simulator-plane events streamed during the run; append the
		// simulated plane (rank spans, message flows, collective phases).
		if err := trace.Export(o.tracer, rep); err != nil {
			return err
		}
		if err := o.traceDone(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%s)\n", o.traceFile, o.traceFmt)
	}
	if o.recordFile != "" {
		if rep.Partial {
			// A partial call log includes operations that never completed;
			// replaying it would deadlock. Refuse rather than write a trap.
			fmt.Fprintf(os.Stderr, "mpisim: not recording %s: the run aborted, the call log is incomplete\n", o.recordFile)
		} else {
			tr, err := tracein.Record(rep, plan.Header())
			if err != nil {
				return err
			}
			if err := tracein.WriteFile(o.recordFile, tr); err != nil {
				return err
			}
			fmt.Printf("trace recorded to %s (%d ranks in %d classes, %d events)\n",
				o.recordFile, tr.Header.Ranks, tr.Classes(), tr.Events())
		}
	}
	if o.runJSON != "" || o.profile != "" || o.profFold != "" {
		art := out.Artifact
		if o.runJSON != "" {
			if err := trace.WriteArtifact(o.runJSON, art); err != nil {
				return err
			}
			fmt.Printf("run artifact written to %s\n", o.runJSON)
		}
		if o.profile != "" {
			if err := trace.WriteProfileFile(o.profile, art); err != nil {
				return err
			}
			fmt.Printf("profile written to %s (view: go tool pprof -top %s)\n", o.profile, o.profile)
		}
		if o.profFold != "" {
			p, err := trace.BuildProfile(art)
			if err != nil {
				return err
			}
			f, err := os.Create(o.profFold)
			if err != nil {
				return err
			}
			if err := p.WriteFolded(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("folded stacks written to %s\n", o.profFold)
		}
	}
	if o.reg != nil {
		fmt.Fprintln(os.Stderr, "simulator self-metrics:")
		if err := o.reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if o.matrix && rep.MsgMatrix != nil {
		fmt.Println("communication matrix (messages sent, row = source):")
		for s, row := range rep.MsgMatrix {
			fmt.Printf("  %4d:", s)
			for _, c := range row {
				fmt.Printf(" %6d", c)
			}
			fmt.Println()
		}
	}
	return nil
}

// shorten truncates a long abort reason (the deadlock form enumerates
// every blocked process) for one-line console output; the full text is
// in the wait-state dump and the run artifact.
func shorten(s string) string {
	if i := strings.IndexByte(s, ':'); i > 0 {
		s = s[:i]
	}
	if len(s) > 100 {
		s = s[:100] + "..."
	}
	return s
}
