package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/trace"
)

func tomcatvRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(apps.Tomcatv(), machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModeString(t *testing.T) {
	if Measured.String() != "measured" || DirectExec.String() != "MPI-SIM-DE" ||
		Abstract.String() != "MPI-SIM-AM" || Mode(99).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
}

func TestAbstractRequiresCalibration(t *testing.T) {
	r := tomcatvRunner(t)
	_, err := r.Run(Abstract, 4, apps.TomcatvInputs(64, 1))
	if err == nil || !strings.Contains(err.Error(), "Calibrate") {
		t.Fatalf("expected calibration error, got %v", err)
	}
}

func TestCalibrateProducesAllTaskTimes(t *testing.T) {
	r := tomcatvRunner(t)
	tt, err := r.Calibrate(4, apps.TomcatvInputs(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tt) != len(r.Compiled.TaskVars) {
		t.Fatalf("calibrated %d of %d tasks", len(tt), len(r.Compiled.TaskVars))
	}
	for name, w := range tt {
		if w <= 0 {
			t.Errorf("task %s: w = %g", name, w)
		}
	}
}

func TestValidateWorkflow(t *testing.T) {
	r := tomcatvRunner(t)
	inputs := apps.TomcatvInputs(96, 2)
	v, err := r.Validate(4, inputs, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if v.MeasuredTime <= 0 || v.DETime <= 0 || v.AMTime <= 0 {
		t.Fatalf("degenerate times: %+v", v)
	}
	if v.DEError > 0.10 {
		t.Errorf("DE error %.3f", v.DEError)
	}
	if v.AMError > 0.17 {
		t.Errorf("AM error %.3f", v.AMError)
	}
	// The AM run must use far less memory.
	if v.AMRep.TotalPeakBytes*10 > v.DERep.TotalPeakBytes {
		t.Errorf("memory: AM=%d DE=%d", v.AMRep.TotalPeakBytes, v.DERep.TotalPeakBytes)
	}
}

func TestMemoryEstimates(t *testing.T) {
	r := tomcatvRunner(t)
	inputs := apps.TomcatvInputs(128, 1)
	deMem, err := r.DEMemory(8, inputs)
	if err != nil {
		t.Fatal(err)
	}
	amMem, err := r.AMMemory(8, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if deMem <= 0 || amMem <= 0 || amMem*20 > deMem {
		t.Fatalf("DE=%d AM=%d", deMem, amMem)
	}
	// The estimate must match what a real DE run allocates.
	rep, err := r.Run(DirectExec, 8, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPeakBytes != deMem {
		t.Fatalf("estimate %d != actual %d", deMem, rep.TotalPeakBytes)
	}
	// 128x(ceil(128/8)+2)x8x6 arrays per rank x 8 ranks
	want := int64(128*18*8*6) * 8
	if deMem != want {
		t.Fatalf("DE memory = %d, want %d", deMem, want)
	}
}

func TestMemoryLimitStopsDE(t *testing.T) {
	r := tomcatvRunner(t)
	r.MemoryLimit = 100 << 10
	_, err := r.Run(DirectExec, 8, apps.TomcatvInputs(256, 1))
	if err == nil || !mpi.IsMemoryLimit(err) {
		t.Fatalf("expected memory-limit failure, got %v", err)
	}
	// AM at the same configuration succeeds.
	if _, err := r.Calibrate(4, apps.TomcatvInputs(64, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(Abstract, 8, apps.TomcatvInputs(256, 1)); err != nil {
		t.Fatalf("AM run failed under DE memory limit: %v", err)
	}
}

func TestAbstractScalesToManyRanks(t *testing.T) {
	// The headline capability: simulate far more target processors than
	// direct execution could (paper: 10,000+). Scaled down for test time.
	npx, npy := apps.ProcGrid(256)
	inputs := apps.Sweep3DInputs(4, 4, 16, 8, npx, npy)
	r, err := NewRunner(apps.Sweep3D(), machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	calNpx, calNpy := apps.ProcGrid(4)
	if _, err := r.Calibrate(4, apps.Sweep3DInputs(4, 4, 16, 8, calNpx, calNpy)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(Abstract, 256, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 {
		t.Fatal("no simulated time")
	}
	// Per-rank memory is just the dummy buffer and small faces.
	if rep.MaxRankPeakBytes > 1<<20 {
		t.Fatalf("AM per-rank memory too large: %d", rep.MaxRankPeakBytes)
	}
}

func TestNewRunnerRejectsBadInputs(t *testing.T) {
	if _, err := NewRunner(apps.Tomcatv(), &machine.Model{Name: "bad"}); err == nil {
		t.Fatal("expected machine validation error")
	}
}

func TestRunUnknownMode(t *testing.T) {
	r := tomcatvRunner(t)
	if _, err := r.Run(Mode(42), 2, apps.TomcatvInputs(32, 1)); err == nil {
		t.Fatal("expected unknown mode error")
	}
}

func TestPureAnalyticMode(t *testing.T) {
	r := tomcatvRunner(t)
	inputs := apps.TomcatvInputs(96, 2)
	if _, err := r.Run(PureAnalytic, 4, inputs); err == nil {
		t.Fatal("expected task-time requirement error")
	}
	if _, err := r.Calibrate(4, inputs); err != nil {
		t.Fatal(err)
	}
	pa, err := r.Run(PureAnalytic, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	am, err := r.Run(Abstract, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Time <= 0 {
		t.Fatal("no predicted time")
	}
	// No messages are simulated under the abstract comm model.
	if pa.Kernel.Delivered != 0 {
		t.Fatalf("abstract comm delivered %d messages", pa.Kernel.Delivered)
	}
	// For a loosely synchronized code the two AM variants stay in the
	// same ballpark (within 2x).
	if pa.Time > 2*am.Time || am.Time > 2*pa.Time {
		t.Fatalf("pure-analytic %g vs event AM %g diverge too much", pa.Time, am.Time)
	}
	if PureAnalytic.String() != "MPI-SIM-AM/abstract-comm" {
		t.Fatal("mode string wrong")
	}
}

func TestEstimateTaskTimesStatic(t *testing.T) {
	r := tomcatvRunner(t)
	inputs := apps.TomcatvInputs(96, 2)
	tt, err := r.EstimateTaskTimes(4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tt) != len(r.Compiled.TaskVars) {
		t.Fatalf("estimated %d of %d tasks", len(tt), len(r.Compiled.TaskVars))
	}
	// Static estimates enable AM prediction without any calibration run;
	// for a compute-bound code the error stays moderate because the
	// estimate uses the same operation accounting as the interpreter.
	am, err := r.Run(Abstract, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := r.Run(Measured, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	e := relAbs(am.Time, meas.Time)
	if e > 0.25 {
		t.Fatalf("static-estimate AM error %.3f too large (AM=%g meas=%g)", e, am.Time, meas.Time)
	}
}

// biasedBranchProgram has a data-dependent branch inside a collapsible
// nest that is taken ~90% of the time, plus a barrier so the nest is a
// condensed task.
func biasedBranchProgram() *ir.Program {
	i := ir.S("i")
	return &ir.Program{
		Name:   "biased",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.S("N")}, Elem: 8}},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.Loop("work", "i", ir.N(1), ir.S("N"),
				ir.SetA("A", ir.IX(i), ir.Mod(i, ir.N(10))),
				&ir.If{Cond: ir.GE(ir.At("A", i), ir.N(1)), Then: ir.Block(
					// Heavy arm, taken 9 times out of 10.
					ir.SetA("A", ir.IX(i), ir.Mul(ir.At("A", i), ir.N(1.5))),
					ir.SetA("A", ir.IX(i), ir.Add(ir.At("A", i), ir.N(2))),
					ir.SetA("A", ir.IX(i), ir.Sqrt(ir.At("A", i))),
				)},
			),
			&ir.Barrier{},
		),
	}
}

func TestBranchProfilingRefinesUnits(t *testing.T) {
	prog := biasedBranchProgram()
	inputs := map[string]float64{"N": 1000}

	unprofiled, err := NewRunner(prog, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unprofiled.Calibrate(4, inputs); err != nil {
		t.Fatal(err)
	}

	profiled, err := NewRunner(prog, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	profiled.ProfileBranches = true
	if _, err := profiled.Calibrate(4, inputs); err != nil {
		t.Fatal(err)
	}

	// The profiled scaling function weights the heavy arm at ~0.9, so
	// its unit count for the same config must exceed the 0.5-folded one.
	evalUnits := func(r *Runner) float64 {
		tasks := r.Compiled.Graph.CondensedTasks()
		if len(tasks) == 0 {
			t.Fatal("no condensed tasks")
		}
		v, err := ir.Eval(tasks[0].Units, map[string]float64{"N": 1000, "P": 4, "myid": 0})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	u0 := evalUnits(unprofiled)
	u1 := evalUnits(profiled)
	if u1 <= u0 {
		t.Fatalf("profiled units %v not larger than unprofiled %v", u1, u0)
	}
	// Both calibrated pipelines still predict the measured time well at
	// the calibration configuration (w compensates either way).
	for _, r := range []*Runner{unprofiled, profiled} {
		meas, err := r.Run(Measured, 4, inputs)
		if err != nil {
			t.Fatal(err)
		}
		am, err := r.Run(Abstract, 4, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if e := relAbs(am.Time, meas.Time); e > 0.05 {
			t.Fatalf("AM error %.3f with profiling=%v", e, r.ProfileBranches)
		}
	}
}

func TestValidateReusesCalibration(t *testing.T) {
	r := tomcatvRunner(t)
	inputs := apps.TomcatvInputs(64, 1)
	if _, err := r.Validate(2, inputs, 2, inputs); err != nil {
		t.Fatal(err)
	}
	tt := r.TaskTimes
	// Second validation must reuse the existing table, not recalibrate.
	if _, err := r.Validate(4, inputs, 2, inputs); err != nil {
		t.Fatal(err)
	}
	for k, v := range tt {
		if r.TaskTimes[k] != v {
			t.Fatalf("task times changed on revalidation")
		}
	}
}

func TestCollectMatrixThroughRunner(t *testing.T) {
	r := tomcatvRunner(t)
	r.CollectMatrix = true
	rep, err := r.Run(Measured, 4, apps.TomcatvInputs(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MsgMatrix == nil {
		t.Fatal("matrix not collected through runner")
	}
	// Tomcatv's shift pattern: rank 1 sends to 0 and 2, never to 3.
	if rep.MsgMatrix[1][0] == 0 || rep.MsgMatrix[1][3] != 0 {
		t.Fatalf("unexpected matrix row: %v", rep.MsgMatrix[1])
	}
}

// TestRunInfoLifecycle drives a full run and a budget-aborted run and
// checks the tracker ends in done/aborted with the right vitals.
func TestRunInfoLifecycle(t *testing.T) {
	r := tomcatvRunner(t)
	r.RunInfo = obs.NewRunInfo()
	rep, err := r.Run(Measured, 4, apps.TomcatvInputs(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := r.RunInfo.Status()
	if st.State != obs.RunDone || st.Percent != 1 {
		t.Fatalf("after clean run: state=%v percent=%g", st.State, st.Percent)
	}
	if st.Virtual != rep.Time {
		t.Fatalf("final virtual %g, report %g", st.Virtual, rep.Time)
	}

	r2 := tomcatvRunner(t)
	r2.RunInfo = obs.NewRunInfo()
	// The guard checks the event budget at flush granularity (64
	// events/worker), so use a run long enough to cross it.
	r2.MaxEvents = 100
	_, err = r2.Run(Measured, 4, apps.TomcatvInputs(64, 50))
	if err == nil {
		t.Fatal("expected budget abort")
	}
	st = r2.RunInfo.Status()
	if st.State != obs.RunAborted {
		t.Fatalf("after abort: state=%v", st.State)
	}
	if !strings.Contains(st.AbortReason, "budget") {
		t.Fatalf("abort reason %q", st.AbortReason)
	}
}

// TestArtifactIndependentOfRunInfo: a prediction's artifact is a
// function of its spec. An AM run stopped by its event budget writes the
// same bytes whether or not a RunInfo watches it, and its progress is
// the budget it consumed.
func TestArtifactIndependentOfRunInfo(t *testing.T) {
	spec := &RunSpec{App: "sweep3d", Mode: "am", Ranks: 256, Limits: &SpecLimits{MaxEvents: 2000}}
	spec.Normalize()
	var arts [2][]byte
	for i, ri := range []*obs.RunInfo{nil, obs.NewRunInfo()} {
		plan, err := Prepare(spec, mpi.Config{RunInfo: ri}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Abort == nil || !out.Report.Partial {
			t.Fatalf("run %d was not stopped by its budget", i)
		}
		if want := float64(out.Report.Kernel.Events) / 2000; out.Artifact.Progress != min(want, 1) {
			t.Errorf("run %d: progress %g, want %g", i, out.Artifact.Progress, want)
		}
		if arts[i], err = trace.EncodeArtifact(out.Artifact); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(arts[0], arts[1]) {
		t.Errorf("artifacts differ with a RunInfo attached:\n%s\nwithout:\n%s", arts[1], arts[0])
	}
}

// TestPayloadReachesAM runs a program whose branch reads a received array
// that another array's send fills: rank 1 receives A into B, then sends
// three messages while B(1) > 0. The simplified program must carry the
// payload (the slicer keeps every sent array once a received one is
// relevant), so MPI-SIM-AM delivers the four messages direct execution
// does, not one.
func TestPayloadReachesAM(t *testing.T) {
	p, err := ir.Parse(`program payload
  double precision A(4)
  double precision B(4)
  do i = 1, 4
    A(i) = (myid + 1)
  enddo
  if ((myid == 0)) then
    SEND A(1:4) to 1 tag 1
  endif
  if ((myid == 1)) then
    RECV B(1:4) from 0 tag 1
  endif
  do it = 1, 3
    if ((B(1) > 0)) then
      SEND A(1:1) to 0 tag 2
    endif
  enddo
end
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	de, err := r.Run(DirectExec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Calibrate(2, nil); err != nil {
		t.Fatal(err)
	}
	am, err := r.Run(Abstract, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if de.Kernel.Delivered != 4 || am.Kernel.Delivered != de.Kernel.Delivered {
		t.Fatalf("messages delivered: DE %d, AM %d, want 4 and 4", de.Kernel.Delivered, am.Kernel.Delivered)
	}
}
