package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/cliutil"
	"mpisim/internal/core"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/sim"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// noParent marks a root span.
const noParent = -1

// runInproc is the traced pass of a CLI workload, run in a fresh process
// so the spans start from a cold heap as the CLI does. First the
// prediction itself, calling each layer in cmd/mpisim's order with a span
// around every call; then, outside the prediction, the differential
// measurements that split what no outside span can see.
func runInproc(e env, w workload, started time.Time) (*inprocReport, error) {
	rec := newRecorder(w.name)
	tracePath := e.tracePath(w) // recorded by the parent
	reg := obs.NewRegistry(1)
	reg.SetEnabled(true)
	machName := machineForSeed(e.seed)
	v := map[string]float64{}

	var rep *mpi.Report
	var runner *core.Runner // compiled workloads only
	var inputs map[string]float64
	err := rec.call("predict", noParent, func(root int) error {
		var art *trace.Artifact
		var err error
		if w.replay {
			rep, art, err = predictReplay(rec, root, reg, tracePath)
		} else {
			rep, art, runner, inputs, err = predictCompiled(rec, root, reg, w, machName)
		}
		if err != nil {
			return err
		}
		return rec.call("trace.encode", root, func(int) error {
			data, err := trace.EncodeArtifact(art)
			if err != nil {
				return err
			}
			v["trace.artifact_bytes"] = float64(len(data))
			return os.WriteFile(e.tmp(w.name+".inproc.json"), data, 0o644)
		})
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(e.tmp(w.name + ".inproc.json"))
	v["traced_total_s"] = time.Since(started).Seconds()
	if runner != nil {
		v["compiler.tasks"] = float64(len(runner.Compiled.TaskVars))
	}
	want := digest(rep)

	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	v["sim.events"] = counter("sim_events_total")
	v["sim.messages"] = counter("sim_messages_delivered_total")
	v["sim.continuations"] = counter("sim_continuations_total")
	v["sim.goroutine_fallbacks"] = counter("sim_goroutine_fallbacks_total")

	// Differential measurements on the identical event stream.
	err = rec.call("differential", noParent, func(root int) error {
		if w.replay {
			if err := writeSide(rec, root, e, w, machName, want); err != nil {
				return err
			}
		} else if err := replaySameRun(rec, root, runner, w, inputs, want); err != nil {
			return err
		}
		runtime.GC()
		events, err := kernelExchange(rec, root, len(rep.Ranks), rep.Kernel.Events)
		v["sim.kernel_events"] = float64(events)
		return err
	})
	if err != nil {
		return nil, err
	}

	layerValues(rec, v, w, rep, tracePath)
	if err := rec.write(filepath.Join(e.outDir, "trace_"+w.name+".json")); err != nil {
		return nil, err
	}
	return &inprocReport{Digest: want, Values: v}, nil
}

// calRanks is mpisim's default calibration rank count: min(ranks, 16).
func calRanks(ranks int) int {
	if ranks > 16 {
		return 16
	}
	return ranks
}

// sweep3dAt returns sweep3d's inputs at a rank count: the app's defaults
// under the -inputs every CLI workload passes.
func sweep3dAt(ranks int) (map[string]float64, error) {
	over, err := cliutil.ParseInputs(sweep3dInputs)
	if err != nil {
		return nil, err
	}
	return cliutil.MergeInputs(apps.Registry()["sweep3d"].Default(ranks), over), nil
}

func coreMode(w workload) core.Mode {
	if w.mode == "de" {
		return core.DirectExec
	}
	return core.Abstract
}

// predictCompiled mirrors cmd/mpisim's compiled path: build the program,
// compile, verify and calibrate at the calibration configuration (AM),
// verify at the run configuration, simulate. Runner.Check fills the
// runner's cache, so the Calibrate and Run spans hold no verifier time.
func predictCompiled(rec *recorder, root int, reg *obs.Registry, w workload, machName string) (
	rep *mpi.Report, art *trace.Artifact, r *core.Runner, inputs map[string]float64, err error) {
	var prog *ir.Program
	rec.call("ir.build", root, func(int) error { prog = apps.Registry()["sweep3d"].Build(); return nil })
	m, err := machine.ByName(machName)
	if err != nil {
		return
	}
	if inputs, err = sweep3dAt(w.ranks); err != nil {
		return
	}
	mode := coreMode(w)
	if err = rec.call("compiler.compile", root, func(int) error {
		r, err = core.NewRunner(prog, m)
		return err
	}); err != nil {
		return
	}
	r.HostWorkers = 1
	r.SkipChecks = w.nocheck
	check := func(ranks int, in map[string]float64) error {
		if w.nocheck {
			return nil
		}
		return rec.call("check.run", root, func(int) error {
			res, err := r.Check(ranks, in)
			if err == nil && res.HasErrors() {
				err = &core.CheckError{Result: res}
			}
			return err
		})
	}
	if mode == core.Abstract {
		cr := calRanks(w.ranks)
		var calInputs map[string]float64
		if calInputs, err = sweep3dAt(cr); err != nil {
			return
		}
		if err = check(cr, calInputs); err != nil {
			return
		}
		if err = rec.call("core.calibrate", root, func(int) error {
			_, err := r.Calibrate(cr, calInputs)
			return err
		}); err != nil {
			return
		}
	}
	if err = check(w.ranks, inputs); err != nil {
		return
	}
	r.Metrics = reg // after calibration: the counters cover the prediction only
	err = rec.call("interp.run", root, func(int) error {
		rep, err = r.Run(mode, w.ranks, inputs)
		return err
	})
	r.Metrics = nil
	if err != nil {
		return
	}
	art = &trace.Artifact{App: "sweep3d", Mode: mode.String(), Machine: m.Name, Inputs: inputs, Report: rep}
	tls := r.Compiled.TaskLines()
	art.TaskLines = make(map[string]int, len(tls))
	art.TaskHeads = make(map[string]string, len(tls))
	for _, tl := range tls {
		art.TaskLines[tl.Task] = tl.Line
		art.TaskHeads[tl.Task] = tl.Head
	}
	return
}

// predictReplay mirrors cmd/mpisim's -tracein path.
func predictReplay(rec *recorder, root int, reg *obs.Registry, tracePath string) (*mpi.Report, *trace.Artifact, error) {
	var tr *tracein.Trace
	err := rec.call("tracein.parse", root, func(int) (err error) {
		tr, err = tracein.ParseFile(tracePath)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.ByName(tr.Header.Machine)
	if err != nil {
		return nil, nil, err
	}
	var rep *mpi.Report
	err = rec.call("mpi.replay", root, func(int) (err error) {
		rep, err = tracein.Replay(tr, mpi.Config{Machine: m, HostWorkers: 1, Metrics: reg})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, &trace.Artifact{App: tr.Header.App, Mode: "replay", Machine: m.Name, Inputs: tr.Header.Inputs, Report: rep}, nil
}

// replaySameRun measures mpi+sim without interp: run the prediction
// again with the call log on, then time tracein.Replay of that log. The
// replay issues the identical MPI calls, so interp.run minus mpi.replay
// is what the interpreter itself cost.
func replaySameRun(rec *recorder, root int, r *core.Runner, w workload, inputs map[string]float64, want string) error {
	mode := coreMode(w)
	runtime.GC()
	r.RecordCalls = true
	logged, err := r.Run(mode, w.ranks, inputs)
	if err != nil {
		return err
	}
	tr, err := tracein.Record(logged, tracein.Header{Machine: r.Machine.Name, Comm: mode.Comm()})
	if err != nil {
		return err
	}
	runtime.GC()
	var rep *mpi.Report
	err = rec.call("mpi.replay", root, func(int) (err error) {
		rep, err = tracein.Replay(tr, mpi.Config{Machine: r.Machine, HostWorkers: 1})
		return err
	})
	if err == nil && digest(rep) != want {
		err = fmt.Errorf("replay of the run's own call log gives digest %s, want %s", digest(rep), want)
	}
	return err
}

// writeSide times what the replay workload's set-up does to produce the
// trace: build the Trace from a recorded run, and write it.
func writeSide(rec *recorder, root int, e env, w workload, machName, want string) error {
	m, err := machine.ByName(machName)
	if err != nil {
		return err
	}
	r, err := core.NewRunner(apps.Registry()["sweep3d"].Build(), m)
	if err != nil {
		return err
	}
	r.HostWorkers = 1
	r.SkipChecks = true
	r.RecordCalls = true
	calInputs, err := sweep3dAt(calRanks(w.ranks))
	if err != nil {
		return err
	}
	if _, err := r.Calibrate(calRanks(w.ranks), calInputs); err != nil {
		return err
	}
	inputs, err := sweep3dAt(w.ranks)
	if err != nil {
		return err
	}
	rep, err := r.Run(core.Abstract, w.ranks, inputs)
	if err != nil {
		return err
	}
	if digest(rep) != want {
		return fmt.Errorf("direct run gives digest %s, the replay %s", digest(rep), want)
	}
	var tr *tracein.Trace
	err = rec.call("tracein.record", root, func(int) (err error) {
		tr, err = tracein.Record(rep, tracein.Header{
			App: "sweep3d", Mode: core.Abstract.String(), Machine: m.Name,
			Comm: core.Abstract.Comm(), Inputs: inputs, TaskScale: r.Compiled.TaskScales(),
		})
		return err
	})
	if err != nil {
		return err
	}
	path := e.tmp(w.name + ".inproc.trace")
	defer os.Remove(path)
	return rec.call("tracein.write", root, func(int) error { return tracein.WriteFile(path, tr) })
}

// kernelExchange drives a blocking neighbour exchange through the bare
// kernel at the prediction's process count and (about) its event count:
// what sim alone costs for that many events on carrier goroutines, the
// way mpi's rank bodies run today. It mirrors BenchmarkKernelSched/classic
// in internal/sim. It returns the events the kernel counted.
func kernelExchange(rec *recorder, root, procs int, events int64) (int64, error) {
	const latency = sim.Time(1e-6)
	rounds := int(events) / procs // one delivery event per process and round
	if rounds < 1 {
		rounds = 1
	}
	var res *sim.Result
	err := rec.call("sim.kernel", root, func(int) error {
		k, err := sim.NewKernel(sim.Config{Workers: 1})
		if err != nil {
			return err
		}
		for i := 0; i < procs; i++ {
			k.Spawn("p", func(p *sim.Proc) {
				next := (p.ID() + 1) % procs
				for r := 0; r < rounds; r++ {
					p.Advance(1e-7)
					p.Send(next, nil, 64, p.Now()+latency)
					p.FreeMessage(p.RecvSrcTag(sim.Any, sim.Any))
				}
			})
		}
		res, err = k.Run()
		return err
	})
	if err != nil {
		return 0, err
	}
	return res.Events, nil
}

// layerValues turns the recorded spans into the per-layer metrics.
func layerValues(rec *recorder, v map[string]float64, w workload, rep *mpi.Report, tracePath string) {
	const mb = 1 << 20
	total := func(name string) (dur float64, mallocs, bytes uint64) {
		for _, s := range rec.named(name) {
			dur += s.dur()
			mallocs += s.Mallocs
			bytes += s.AllocBytes
		}
		return
	}
	simple := func(metric, spanName string) { v[metric], _, _ = total(spanName) }
	simple("ir.build_s", "ir.build")
	simple("compiler.compile_s", "compiler.compile")
	simple("core.calibrate_s", "core.calibrate")
	simple("trace.encode_s", "trace.encode")
	simple("tracein.record_s", "tracein.record")

	// The top-level spans of the prediction account for its wall.
	root := rec.named("predict")[0].ID
	for _, s := range rec.filter(func(s span) bool { return s.Parent == root }) {
		v["predict_spans_s"] += s.dur()
	}

	if d, mallocs, bytes := total("check.run"); d > 0 {
		v["check.run_s"], v["check.allocs"], v["check.alloc_mb"] = d, float64(mallocs), float64(bytes)/mb
		runCfg := rec.named("check.run")
		v["check.ranks_per_s"] = float64(w.ranks) / runCfg[len(runCfg)-1].dur()
	}
	if d, mallocs, bytes := total("interp.run"); d > 0 {
		v["interp.run_s"], v["interp.run_allocs"], v["interp.run_alloc_mb"] = d, float64(mallocs), float64(bytes)/mb
	}
	replay, replayMallocs, _ := total("mpi.replay")
	v["mpi.replay_s"], v["mpi.replay_allocs"] = replay, float64(replayMallocs)
	if v["interp.run_s"] > 0 {
		v["interp.self_s"] = v["interp.run_s"] - replay
	}
	// The exchange ran about, not exactly, the prediction's event count:
	// scale its time to it.
	kernel, _, _ := total("sim.kernel")
	v["sim.kernel_events_per_s"] = v["sim.kernel_events"] / kernel
	v["sim.kernel_s"] = float64(rep.Kernel.Events) / v["sim.kernel_events_per_s"]
	v["mpi.self_s"] = replay - v["sim.kernel_s"]

	if d, mallocs, bytes := total("tracein.parse"); d > 0 {
		size := 0.0
		if st, err := os.Stat(tracePath); err == nil {
			size = float64(st.Size())
		}
		v["tracein.parse_s"], v["tracein.parse_allocs"], v["tracein.parse_alloc_mb"] = d, float64(mallocs), float64(bytes)/mb
		v["tracein.trace_bytes"] = size
		v["tracein.parse_mb_per_s"] = size / mb / d
		v["tracein.bytes_per_event"] = size / float64(rep.Kernel.Events)
		if wr, _, _ := total("tracein.write"); wr > 0 {
			v["tracein.write_s"] = wr
			v["tracein.write_mb_per_s"] = size / mb / wr
		}
	}
}
