package mpisim

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per experiment; run with
// `go test -bench=Figure -benchtime=1x`), measures the simulator's own
// throughput, and quantifies the design choices DESIGN.md calls out for
// ablation (condensation granularity, slicing, engine choice,
// communication model).

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/core"
	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/sim"
	"mpisim/internal/tables"
)

// benchCfg bounds experiment size so each bench iteration is seconds.
func benchCfg() tables.Config { return tables.Config{RankCap: 16} }

func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := tables.ByID(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFigure3Tomcatv(b *testing.B)       { runExperimentBench(b, "fig3") }
func BenchmarkFigure4Sweep3D(b *testing.B)       { runExperimentBench(b, "fig4") }
func BenchmarkFigure5SPClassA(b *testing.B)      { runExperimentBench(b, "fig5") }
func BenchmarkFigure6SPClassC(b *testing.B)      { runExperimentBench(b, "fig6") }
func BenchmarkFigure7ErrorSummary(b *testing.B)  { runExperimentBench(b, "fig7") }
func BenchmarkFigure8Sample(b *testing.B)        { runExperimentBench(b, "fig8") }
func BenchmarkFigure9SampleRatio(b *testing.B)   { runExperimentBench(b, "fig9") }
func BenchmarkTable1Memory(b *testing.B)         { runExperimentBench(b, "table1") }
func BenchmarkFigure10Scalability(b *testing.B)  { runExperimentBench(b, "fig10") }
func BenchmarkFigure11Scalability(b *testing.B)  { runExperimentBench(b, "fig11") }
func BenchmarkFigure12AbsolutePerf(b *testing.B) { runExperimentBench(b, "fig12") }
func BenchmarkFigure13AbsolutePerf(b *testing.B) { runExperimentBench(b, "fig13") }
func BenchmarkFigure14ParallelPerf(b *testing.B) { runExperimentBench(b, "fig14") }
func BenchmarkFigure15Speedup(b *testing.B)      { runExperimentBench(b, "fig15") }
func BenchmarkFigure16LargeSystems(b *testing.B) { runExperimentBench(b, "fig16") }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationCondenseRegions measures the full workflow with the
// paper's maximal-region condensation; compare with
// BenchmarkAblationCondenseLeaves. Fewer tasks mean fewer delay calls
// and timer probes.
func BenchmarkAblationCondenseRegions(b *testing.B) { ablationCondense(b, false) }

// BenchmarkAblationCondenseLeaves condenses every leaf compute node
// separately (no region merging).
func BenchmarkAblationCondenseLeaves(b *testing.B) { ablationCondense(b, true) }

func ablationCondense(b *testing.B, leaves bool) {
	prog := Tomcatv()
	inputs := TomcatvInputs(128, 2)
	var tasks int
	for i := 0; i < b.N; i++ {
		res, err := compiler.CompileOpts(prog, compiler.Options{NoCondense: leaves})
		if err != nil {
			b.Fatal(err)
		}
		tasks = len(res.TaskVars)
		cal := interp.NewCalibration()
		if _, err := interp.Run(res.Timer, interp.Config{
			Config:      mpi.Config{Ranks: 4, Machine: IBMSP(), Comm: mpi.Detailed},
			Inputs:      inputs,
			Calibration: cal,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := interp.Run(res.Simplified, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: IBMSP(), Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
			Inputs: inputs,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks")
}

// BenchmarkAblationSliceOn/Off quantify what program slicing buys: with
// slicing disabled, the retained scalar computations (loop bounds, block
// sizes) are dropped, and the prediction error explodes. The bench
// reports the AM prediction error as a metric.
func BenchmarkAblationSliceOn(b *testing.B)  { ablationSlice(b, false) }
func BenchmarkAblationSliceOff(b *testing.B) { ablationSlice(b, true) }

func ablationSlice(b *testing.B, noSlice bool) {
	prog := Tomcatv()
	inputs := TomcatvInputs(128, 2)
	meas, err := interp.Run(prog, interp.Config{
		Config: mpi.Config{Ranks: 4, Machine: IBMSP(), Comm: mpi.Detailed},
		Inputs: inputs,
	})
	if err != nil {
		b.Fatal(err)
	}
	var relErr float64
	for i := 0; i < b.N; i++ {
		res, err := compiler.CompileOpts(prog, compiler.Options{NoSlice: noSlice})
		if err != nil {
			b.Fatal(err)
		}
		cal := interp.NewCalibration()
		if _, err := interp.Run(res.Timer, interp.Config{
			Config:      mpi.Config{Ranks: 4, Machine: IBMSP(), Comm: mpi.Detailed},
			Inputs:      inputs,
			Calibration: cal,
		}); err != nil {
			b.Fatal(err)
		}
		am, err := interp.Run(res.Simplified, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: IBMSP(), Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
			Inputs: inputs,
		})
		if err != nil {
			b.Fatal(err)
		}
		relErr = (am.Time - meas.Time) / meas.Time
		if relErr < 0 {
			relErr = -relErr
		}
	}
	b.ReportMetric(100*relErr, "%err")
}

// BenchmarkAblationEngine* compare the sequential engine with the
// conservative parallel engine (modeled workers and real goroutines) on
// identical simulations.
func BenchmarkAblationEngineSequential(b *testing.B) { ablationEngine(b, 1, false) }
func BenchmarkAblationEngineWorkers2(b *testing.B)   { ablationEngine(b, 2, true) }
func BenchmarkAblationEngineWorkers4(b *testing.B)   { ablationEngine(b, 4, true) }

func ablationEngine(b *testing.B, workers int, real bool) {
	prog := Sweep3D()
	inputs := Sweep3DInputs(4, 4, 32, 8, 4, 4)
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, interp.Config{
			Config: mpi.Config{Ranks: 16, Machine: IBMSP(), Comm: mpi.Detailed, HostWorkers: workers, RealParallel: real},
			Inputs: inputs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationComm* compare the detailed (NIC occupancy), analytic
// (latency+bandwidth) and abstract (closed-form, no events) communication
// models: successively cheaper to simulate, successively less faithful.
func BenchmarkAblationCommDetailed(b *testing.B) { ablationComm(b, mpi.Detailed) }
func BenchmarkAblationCommAnalytic(b *testing.B) { ablationComm(b, mpi.Analytic) }
func BenchmarkAblationCommAbstract(b *testing.B) { ablationComm(b, mpi.AbstractComm) }

// BenchmarkAblationAbstractCommError quantifies what the abstract
// communication model loses on a wavefront code: the reported metric is
// its prediction error against the event-driven AM prediction.
func BenchmarkAblationAbstractCommError(b *testing.B) {
	r, err := NewRunner(Sweep3D(), IBMSP())
	if err != nil {
		b.Fatal(err)
	}
	inputs := Sweep3DInputs(4, 4, 32, 8, 4, 4)
	if _, err := r.Calibrate(16, inputs); err != nil {
		b.Fatal(err)
	}
	var relErr float64
	for i := 0; i < b.N; i++ {
		am, err := r.Run(Abstract, 16, inputs)
		if err != nil {
			b.Fatal(err)
		}
		pa, err := r.Run(PureAnalytic, 16, inputs)
		if err != nil {
			b.Fatal(err)
		}
		relErr = (pa.Time - am.Time) / am.Time
		if relErr < 0 {
			relErr = -relErr
		}
	}
	b.ReportMetric(100*relErr, "%err")
}

func ablationComm(b *testing.B, comm mpi.CommModel) {
	prog := Sample()
	inputs := SampleInputs(PatternNearestNeighbour, 1000, 2000, 10, 2, 4)
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, interp.Config{
			Config: mpi.Config{Ranks: 8, Machine: Origin2000(), Comm: comm},
			Inputs: inputs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator micro-benchmarks -------------------------------------------

// BenchmarkKernelMessageRate measures raw kernel event throughput
// (messages simulated per second) on a two-process ping-pong.
func BenchmarkKernelMessageRate(b *testing.B) {
	const msgs = 10000
	for i := 0; i < b.N; i++ {
		k, err := sim.NewKernel(sim.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		k.Spawn("ping", func(p *sim.Proc) {
			for j := 0; j < msgs; j++ {
				p.Send(1, nil, 8, p.Now()+1e-6)
				p.FreeMessage(p.RecvSrcTag(sim.Any, sim.Any))
			}
		})
		k.Spawn("pong", func(p *sim.Proc) {
			for j := 0; j < msgs; j++ {
				p.FreeMessage(p.RecvSrcTag(sim.Any, sim.Any))
				p.Send(0, nil, 8, p.Now()+1e-6)
			}
		})
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*msgs), "msgs/op")
}

// BenchmarkInterpThroughput measures interpreted statement throughput on
// a pure compute nest: host nanoseconds per abstract operation of the
// target program (the unit machine.Model.OpTime prices), and allocations.
func BenchmarkInterpThroughput(b *testing.B) {
	benchInterp(b, Tomcatv(), TomcatvInputs(256, 1), 1, mpi.Analytic)
}

// BenchmarkInterpThroughputSweep3D is the same measure on a direct-
// execution Sweep3D prediction at 256 ranks (4x4x40 cells per rank, the
// de_sweep3d_256 workload's run): the cell loop under the detailed
// communication model.
func BenchmarkInterpThroughputSweep3D(b *testing.B) {
	npx, npy := apps.ProcGrid(256)
	benchInterp(b, Sweep3D(), Sweep3DInputs(4, 4, 40, 10, npx, npy), 256, mpi.Detailed)
}

// BenchmarkInterpThroughputSample is the same measure on a direct-
// execution SAMPLE prediction at 16 ranks with its default inputs (the
// wavefront pattern, WORK 20000): the work loop, whose subscript is
// mod(w,512)+1.
func BenchmarkInterpThroughputSample(b *testing.B) {
	npx, npy := apps.ProcGrid(16)
	benchInterp(b, Sample(), SampleInputs(apps.PatternWavefront, 20000, 1000, 10, npx, npy), 16, mpi.Detailed)
}

// BenchmarkInterpThroughputStencil1d is the same measure on svc_mix's
// direct-execution stencil1d job: 16 ranks, N=512, STEPS=4, nearly all of
// it the smoothing loop.
func BenchmarkInterpThroughputStencil1d(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("examples", "programs", "stencil1d.ir"))
	if err != nil {
		b.Fatal(err)
	}
	p, err := ir.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	benchInterp(b, p, map[string]float64{"N": 512, "STEPS": 4}, 16, mpi.Detailed)
}

func benchInterp(b *testing.B, prog *Program, inputs map[string]float64, ranks int, comm mpi.CommModel) {
	m := IBMSP()
	var ops float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := interp.Run(prog, interp.Config{
			Config: mpi.Config{Ranks: ranks, Machine: m, Comm: comm},
			Inputs: inputs,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Ranks {
			ops += float64(r.ComputeTime) / m.ComputeTime(1, r.PeakBytes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/abstract-op")
}

// BenchmarkCalibrate measures one calibration (Runner.Calibrate, the
// timer-instrumented program's run) of every svc_mix program at its
// 16-rank configuration: the apps with their default inputs, the example
// programs with the mix's N=512, STEPS=4. The verifier is skipped: its
// cost is the check benchmarks'.
func BenchmarkCalibrate(b *testing.B) {
	type prog struct {
		name   string
		p      *Program
		inputs map[string]float64
	}
	var progs []prog
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		progs = append(progs, prog{name, spec.Build(), spec.Default(16)})
	}
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*.ir"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog{strings.TrimSuffix(filepath.Base(f), ".ir"), p, map[string]float64{"N": 512, "STEPS": 4}})
	}
	for _, pr := range progs {
		b.Run(pr.name, func(b *testing.B) {
			r, err := core.NewRunner(pr.p, IBMSP())
			if err != nil {
				b.Fatal(err)
			}
			r.SkipChecks = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Calibrate(16, pr.inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the full compiler pipeline (STG,
// condensation, slicing, emission) on the largest program.
func BenchmarkCompile(b *testing.B) {
	prog := NASSP()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicEval measures scaling-function evaluation speed.
func BenchmarkSymbolicEval(b *testing.B) {
	e := ir.MustParseExpr("(N - 2) * (min(N, myid*b + b) - max(2, myid*b + 1)) * w_1")
	env := map[string]float64{"N": 2048, "myid": 3, "b": 256, "w_1": 2e-8}
	for i := 0; i < b.N; i++ {
		if _, err := ir.Eval(e, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstractManyRanks measures AM simulation cost at a large
// target count — the headline capability: events per second through
// interpreter, MPI layer and kernel together, and what one target rank
// costs the host in allocations and bytes. scripts/bench_kernel.sh
// records it beside the bare-kernel rows it is to be read against.
func BenchmarkAbstractManyRanks(b *testing.B) {
	const ranks = 1024
	r, err := NewRunner(Sweep3D(), IBMSP())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Calibrate(4, Sweep3DInputs(4, 4, 16, 8, 2, 2)); err != nil {
		b.Fatal(err)
	}
	npx, npy := ProcGrid(ranks)
	inputs := Sweep3DInputs(4, 4, 16, 8, npx, npy)
	var before, after runtime.MemStats
	var events int64
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := r.Run(Abstract, ranks, inputs)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Kernel.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/ranks, "allocs/rank")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/ranks, "bytes/rank")
}

// BenchmarkAblationProtocol* compare the kernel's two conservative
// synchronization protocols on the same parallel simulation.
func BenchmarkAblationProtocolWindow(b *testing.B)      { ablationProtocol(b, sim.ProtocolWindow) }
func BenchmarkAblationProtocolNullMessage(b *testing.B) { ablationProtocol(b, sim.ProtocolNullMessage) }

func ablationProtocol(b *testing.B, proto sim.Protocol) {
	prog := Sample()
	inputs := SampleInputs(PatternNearestNeighbour, 2000, 500, 20, 2, 4)
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, interp.Config{
			Config: mpi.Config{Ranks: 8, Machine: Origin2000(), Comm: mpi.Detailed, HostWorkers: 4, RealParallel: true, Protocol: proto},
			Inputs: inputs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
