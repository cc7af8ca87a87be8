package apps

import (
	"math"
	"testing"

	"mpisim/internal/compiler"
	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) != 4 {
		t.Fatalf("registry has %d apps", len(reg))
	}
	for _, name := range []string{"tomcatv", "sweep3d", "nassp", "sample"} {
		spec, ok := reg[name]
		if !ok {
			t.Fatalf("missing app %q", name)
		}
		if spec.Build == nil || spec.Default == nil {
			t.Fatalf("%s: incomplete spec", name)
		}
	}
	if names := Names(); len(names) != 4 || names[0] != "nassp" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestProcGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 9: {3, 3}, 12: {3, 4}, 7: {1, 7}}
	for ranks, want := range cases {
		x, y := ProcGrid(ranks)
		if x != want[0] || y != want[1] {
			t.Errorf("ProcGrid(%d) = %d,%d want %v", ranks, x, y, want)
		}
		if x*y != ranks {
			t.Errorf("ProcGrid(%d) does not multiply out", ranks)
		}
	}
}

func TestSquareSide(t *testing.T) {
	if SquareSide(16) != 4 || SquareSide(1) != 1 || SquareSide(25) != 5 {
		t.Fatal("SquareSide wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square")
		}
	}()
	SquareSide(8)
}

func TestAllProgramsValidate(t *testing.T) {
	for name, spec := range Registry() {
		if err := spec.Build().Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAllProgramsCompile(t *testing.T) {
	for name, spec := range Registry() {
		res, err := compiler.Compile(spec.Build())
		if err != nil {
			t.Errorf("%s: compile: %v", name, err)
			continue
		}
		if len(res.TaskVars) == 0 {
			t.Errorf("%s: no condensed tasks", name)
		}
		if len(res.Slice.DummyArrays) == 0 {
			t.Errorf("%s: no arrays replaced by the dummy buffer: %s", name, res.Summary())
		}
	}
}

// runModes executes the Figure-2 workflow for an app at one config and
// returns measured (detailed), DE and AM times plus the reports.
func runModes(t *testing.T, prog *ir.Program, ranks int, inputs map[string]float64,
	calRanks int, calInputs map[string]float64) (measured, de, am float64, deRep, amRep *mpi.Report) {
	t.Helper()
	m := machine.IBMSP()
	res, err := compiler.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cal := interp.NewCalibration()
	if _, err := interp.Run(res.Timer, interp.Config{
		Config:      mpi.Config{Ranks: calRanks, Machine: m, Comm: mpi.Detailed},
		Inputs:      calInputs,
		Calibration: cal,
	}); err != nil {
		t.Fatalf("timer: %v", err)
	}
	meas, err := interp.Run(prog, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Detailed},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatalf("measured: %v", err)
	}
	deRep, err = interp.Run(prog, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatalf("DE: %v", err)
	}
	amRep, err = interp.Run(res.Simplified, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatalf("AM: %v", err)
	}
	return meas.Time, deRep.Time, amRep.Time, deRep, amRep
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / b }

func TestTomcatvValidation(t *testing.T) {
	inputs := TomcatvInputs(96, 2)
	meas, de, am, deRep, amRep := runModes(t, Tomcatv(), 4, inputs, 4, inputs)
	if relErr(de, meas) > 0.10 {
		t.Errorf("DE error vs measured: %.3f (DE=%g meas=%g)", relErr(de, meas), de, meas)
	}
	if relErr(am, meas) > 0.17 {
		t.Errorf("AM error vs measured: %.3f (AM=%g meas=%g)", relErr(am, meas), am, meas)
	}
	// Memory reduction: AM keeps no big arrays.
	if deRep.TotalPeakBytes < 10*amRep.TotalPeakBytes {
		t.Errorf("memory reduction too small: DE=%d AM=%d",
			deRep.TotalPeakBytes, amRep.TotalPeakBytes)
	}
}

func TestTomcatvScalesAcrossRanks(t *testing.T) {
	// Calibrate once at P=4, predict at P=2 and P=8.
	calInputs := TomcatvInputs(96, 2)
	for _, ranks := range []int{2, 8} {
		meas, _, am, _, _ := runModes(t, Tomcatv(), ranks, calInputs, 4, calInputs)
		if e := relErr(am, meas); e > 0.17 {
			t.Errorf("P=%d: AM error %.3f > 17%%", ranks, e)
		}
	}
}

func TestSweep3DValidation(t *testing.T) {
	inputs := Sweep3DInputs(4, 4, 32, 8, 2, 2)
	meas, de, am, _, _ := runModes(t, Sweep3D(), 4, inputs, 4, inputs)
	if relErr(de, meas) > 0.10 {
		t.Errorf("DE error vs measured: %.3f", relErr(de, meas))
	}
	if relErr(am, meas) > 0.17 {
		t.Errorf("AM error vs measured: %.3f (AM=%g meas=%g)", relErr(am, meas), am, meas)
	}
}

func TestSweep3DWavefrontPipelines(t *testing.T) {
	// With more k-blocks the pipeline has finer stages: same total work,
	// different timing; both must complete without deadlock on a
	// non-square grid. Per-block compute must exceed the message latency
	// for pipelining to pay off, so use a compute-heavy size.
	base := Sweep3DInputs(12, 12, 32, 32, 2, 3) // one block: no pipelining
	fine := Sweep3DInputs(12, 12, 32, 8, 2, 3)  // four blocks
	m := machine.IBMSP()
	run := func(in map[string]float64) float64 {
		rep, err := interp.Run(Sweep3D(), interp.Config{
			Config: mpi.Config{Ranks: 6, Machine: m, Comm: mpi.Detailed},
			Inputs: in,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Time
	}
	coarse := run(base)
	pipelined := run(fine)
	// Finer pipelining reduces wavefront fill time for this geometry.
	if pipelined >= coarse {
		t.Errorf("pipelining did not help: fine=%g coarse=%g", pipelined, coarse)
	}
}

func TestNASSPValidation(t *testing.T) {
	inputs := NASSPInputs(24, 2, 2)
	meas, de, am, _, _ := runModes(t, NASSP(), 4, inputs, 4, inputs)
	if relErr(de, meas) > 0.10 {
		t.Errorf("DE error vs measured: %.3f", relErr(de, meas))
	}
	if relErr(am, meas) > 0.17 {
		t.Errorf("AM error vs measured: %.3f (AM=%g meas=%g)", relErr(am, meas), am, meas)
	}
}

func TestNASSPClassScaling(t *testing.T) {
	// Calibrate on the small class, predict the larger class (the
	// paper's class A -> class C experiment): error must stay bounded.
	// As in the paper, both classes sit in the same (out-of-cache) memory
	// regime — that is why the authors saw only ~4% error despite not
	// modeling cache working sets (§4.2).
	small := NASSPInputs(32, 2, 2)
	large := NASSPInputs(48, 2, 2)
	meas, _, am, _, _ := runModes(t, NASSP(), 4, large, 4, small)
	if e := relErr(am, meas); e > 0.17 {
		t.Errorf("class-scaled AM error %.3f > 17%% (AM=%g meas=%g)", e, am, meas)
	}
	// The larger class must take substantially longer ((48/32)^3 = 3.4x).
	measSmall, _, _, _, _ := runModes(t, NASSP(), 4, small, 4, small)
	if meas < 3*measSmall {
		t.Errorf("class scaling too small: %g vs %g", meas, measSmall)
	}
}

func TestNASSPKeepsCellArray(t *testing.T) {
	res, err := compiler.Compile(NASSP())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Slice.KeptArrays["CSIZE"] {
		t.Fatalf("CSIZE not kept:\n%s", res.Summary())
	}
	for _, big := range []string{"U", "RHS"} {
		if res.Slice.KeptArrays[big] {
			t.Errorf("%s wrongly kept", big)
		}
	}
}

func TestSampleBothPatterns(t *testing.T) {
	for _, pat := range []int{PatternWavefront, PatternNearestNeighbour} {
		inputs := SampleInputs(pat, 5000, 200, 4, 2, 2)
		meas, _, am, _, _ := runModes(t, Sample(), 4, inputs, 4, inputs)
		if meas <= 0 {
			t.Fatalf("pattern %d: no time", pat)
		}
		if e := relErr(am, meas); e > 0.17 {
			t.Errorf("pattern %d: AM error %.3f", pat, e)
		}
	}
}

func TestSampleErrorGrowsWithCommRatio(t *testing.T) {
	// Figure 9's effect: AM error increases as communication dominates.
	m := machine.Origin2000()
	errAt := func(work int) float64 {
		inputs := SampleInputs(PatternNearestNeighbour, work, 500, 6, 2, 2)
		res, err := compiler.Compile(Sample())
		if err != nil {
			t.Fatal(err)
		}
		cal := interp.NewCalibration()
		if _, err := interp.Run(res.Timer, interp.Config{
			Config:      mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed},
			Inputs:      inputs,
			Calibration: cal,
		}); err != nil {
			t.Fatal(err)
		}
		meas, err := interp.Run(Sample(), interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		am, err := interp.Run(res.Simplified, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return relErr(am.Time, meas.Time)
	}
	commHeavy := errAt(100)
	compHeavy := errAt(200000)
	if compHeavy > 0.05 {
		t.Errorf("computation-dominated error %.3f should be tiny", compHeavy)
	}
	if commHeavy < compHeavy {
		t.Errorf("comm-heavy error (%.4f) not larger than comp-heavy (%.4f)", commHeavy, compHeavy)
	}
}

func TestDefaultInputsRun(t *testing.T) {
	m := machine.IBMSP()
	for name, spec := range Registry() {
		ranks := 4
		inputs := spec.Default(ranks)
		prog := spec.Build()
		if name == "tomcatv" {
			inputs = TomcatvInputs(64, 1) // keep the test fast
		}
		rep, err := interp.Run(prog, interp.Config{
			Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic},
			Inputs: inputs,
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if rep.Time <= 0 {
			t.Errorf("%s: zero simulated time", name)
		}
	}
}

func TestAppsEngineEquivalence(t *testing.T) {
	// Simulated results must be identical across host worker counts for
	// a communication-heavy app (Sweep3D exercises the wavefront).
	m := machine.IBMSP()
	inputs := Sweep3DInputs(3, 3, 16, 4, 2, 2)
	base, err := interp.Run(Sweep3D(), interp.Config{
		Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, hw := range []int{2, 4} {
		rep, err := interp.Run(Sweep3D(), interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed, HostWorkers: hw, RealParallel: true},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Time != base.Time {
			t.Fatalf("hostWorkers=%d: %g != %g", hw, rep.Time, base.Time)
		}
	}
}

// TestProgramsRoundTripThroughText exercises the IR text format: every
// benchmark, and every compiler-emitted variant, prints to pseudocode
// that parses back to an identical program.
func TestProgramsRoundTripThroughText(t *testing.T) {
	for name, spec := range Registry() {
		progs := []*ir.Program{spec.Build()}
		res, err := compiler.Compile(spec.Build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs = append(progs, res.Simplified, res.Timer)
		for _, p := range progs {
			text := p.String()
			back, err := ir.Parse(text)
			if err != nil {
				t.Errorf("%s/%s: parse: %v", name, p.Name, err)
				continue
			}
			if back.String() != text {
				t.Errorf("%s/%s: round trip changed the program", name, p.Name)
			}
		}
	}
}

// TestParsedProgramRunsIdentically: a benchmark serialized to text and
// parsed back must simulate to the identical predicted time.
func TestParsedProgramRunsIdentically(t *testing.T) {
	orig := Sample()
	back, err := ir.Parse(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	inputs := SampleInputs(PatternWavefront, 2000, 100, 3, 2, 2)
	m := machine.IBMSP()
	a, err := interp.Run(orig, interp.Config{Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed}, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	b, err := interp.Run(back, interp.Config{Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed}, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("parsed program simulates differently: %g vs %g", b.Time, a.Time)
	}
}
