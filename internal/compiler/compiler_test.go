package compiler

import (
	"math"
	"strings"
	"testing"

	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// figure1 is the running example from the paper (Figure 1a).
func figure1() *ir.Program {
	myid := ir.S(ir.BuiltinMyID)
	nVar := ir.S("N")
	b := ir.S("b")
	return &ir.Program{
		Name:   "figure1",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{
			{Name: "A", Dims: []ir.Expr{nVar, ir.Add(ir.N(1), ir.CeilDiv(nVar, ir.S(ir.BuiltinP)))}, Elem: 8},
			{Name: "D", Dims: []ir.Expr{nVar, ir.Add(ir.N(1), ir.CeilDiv(nVar, ir.S(ir.BuiltinP)))}, Elem: 8},
		},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.SetS("b", ir.CeilDiv(nVar, ir.S(ir.BuiltinP))),
			&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: 1, Array: "D",
					Section: ir.Sec(ir.N(2), ir.Sub(nVar, ir.N(1)), ir.N(1), ir.N(1))})},
			&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
				&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: 1, Array: "D",
					Section: ir.Sec(ir.N(2), ir.Sub(nVar, ir.N(1)), ir.Add(b, ir.N(1)), ir.Add(b, ir.N(1)))})},
			ir.Loop("compute", "j",
				ir.MaxE(ir.N(2), ir.Add(ir.Mul(myid, b), ir.N(1))),
				ir.MinE(nVar, ir.Add(ir.Mul(myid, b), b)),
				ir.Loop("", "i", ir.N(2), ir.Sub(nVar, ir.N(1)),
					ir.SetA("A", ir.IX(ir.S("i"), ir.Sub(ir.S("j"), ir.Mul(myid, b))),
						ir.Mul(ir.Add(ir.At("D", ir.S("i"), ir.Sub(ir.S("j"), ir.Mul(myid, b))),
							ir.At("D", ir.S("i"), ir.Add(ir.Sub(ir.S("j"), ir.Mul(myid, b)), ir.N(1)))), ir.N(0.5))),
				),
			),
		),
	}
}

// interp mirrors DummyBufferName as a local constant (it cannot import
// this package: these in-package tests import interp); this pin breaks
// if the name drifts.
func TestDummyBufferNamePinned(t *testing.T) {
	if DummyBufferName != "dummy_buf" {
		t.Fatalf("DummyBufferName = %q; interp's mirrored constant must be updated in lockstep", DummyBufferName)
	}
}

func TestCompileFigure1(t *testing.T) {
	res, err := Compile(figure1())
	if err != nil {
		t.Fatal(err)
	}
	// Two condensed tasks: prologue + loop nest.
	if len(res.TaskVars) != 2 {
		t.Fatalf("TaskVars = %v", res.TaskVars)
	}
	// b and N must be relevant (they determine comm and loop bounds).
	if !res.Slice.Relevant["b"] || !res.Slice.Relevant["N"] {
		t.Fatalf("relevant = %v", res.Slice.RelevantSorted())
	}
	// A is pure computation: eliminated. D is comm-only: dummy.
	if !res.Slice.DummyArrays["D"] {
		t.Fatalf("D should be dummied: %v", res.Slice.DummyArrays)
	}
	elim := res.Slice.EliminatedArrays(res.Original)
	if len(elim) != 1 || elim[0] != "A" {
		t.Fatalf("eliminated = %v", elim)
	}
	// Simplified program keeps no full-size arrays.
	if res.Simplified.Array("A") != nil || res.Simplified.Array("D") != nil {
		t.Fatalf("simplified kept arrays:\n%s", res.Simplified)
	}
	if res.Simplified.Array(DummyBufferName) == nil {
		t.Fatal("simplified missing dummy buffer")
	}
	// The dummy buffer dims must be evaluable from inputs only.
	scalars := map[string]bool{}
	ir.ScalarsIn(res.Simplified.Array(DummyBufferName).Dims[0], scalars, nil)
	for s := range scalars {
		if s != "N" && s != ir.BuiltinP && s != ir.BuiltinMyID {
			t.Fatalf("dummy dims reference computed scalar %q: %s", s,
				res.Simplified.Array(DummyBufferName).Dims[0])
		}
	}
	// Retained prologue: b = ceil(N/P) must appear in the simplified
	// program (Figure 1c keeps it).
	listing := res.Simplified.String()
	if !strings.Contains(listing, "b = ceildiv(N, P)") {
		t.Fatalf("prologue not retained:\n%s", listing)
	}
	if !strings.Contains(listing, "read_and_broadcast(w_1, w_2)") {
		t.Fatalf("w preamble missing:\n%s", listing)
	}
	if !strings.Contains(listing, "call delay(") {
		t.Fatalf("delay call missing:\n%s", listing)
	}
	// Timer program wraps both tasks.
	tl := res.Timer.String()
	if strings.Count(tl, "start_timer") != 2 {
		t.Fatalf("timer program:\n%s", tl)
	}
	// Summary renders.
	sum := res.Summary()
	for _, want := range []string{"condensed tasks: 2", "dummy buffer elements"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// calibrateAndPredict runs the full Figure-2 workflow: timer run on a
// reference config, then the simplified program with the measured w_i.
func calibrateAndPredict(t *testing.T, res *Result, m *machine.Model,
	calRanks int, calInputs map[string]float64,
	ranks int, inputs map[string]float64) (am, de float64, amRep *mpi.Report) {
	t.Helper()
	cal := interp.NewCalibration()
	_, err := interp.Run(res.Timer, interp.Config{
		Config:      mpi.Config{Ranks: calRanks, Machine: m, Comm: mpi.Detailed},
		Inputs:      calInputs,
		Calibration: cal,
	})
	if err != nil {
		t.Fatalf("timer run: %v", err)
	}
	amRep, err = interp.Run(res.Simplified, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatalf("AM run: %v", err)
	}
	deRep, err := interp.Run(res.Original, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatalf("DE run: %v", err)
	}
	return amRep.Time, deRep.Time, amRep
}

func TestAMMatchesDEAtCalibrationConfig(t *testing.T) {
	// At the calibration configuration the cache factor is identical, so
	// the simplified program's prediction must match direct execution to
	// within the tiny double-count of retained scalar statements and the
	// w-broadcast preamble.
	res, err := Compile(figure1())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.IBMSP()
	inputs := map[string]float64{"N": 64}
	am, de, _ := calibrateAndPredict(t, res, m, 4, inputs, 4, inputs)
	if de <= 0 || am <= 0 {
		t.Fatalf("degenerate times am=%v de=%v", am, de)
	}
	relErr := math.Abs(am-de) / de
	if relErr > 0.02 {
		t.Fatalf("AM=%v DE=%v relative error %.3f > 2%%", am, de, relErr)
	}
}

func TestAMAccuracyAcrossConfigs(t *testing.T) {
	// Calibrate at P=4, predict at P=8 with a different N: errors must
	// stay within the paper's envelope (<17%).
	res, err := Compile(figure1())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.IBMSP()
	am, de, _ := calibrateAndPredict(t, res, m,
		4, map[string]float64{"N": 64},
		8, map[string]float64{"N": 96})
	relErr := math.Abs(am-de) / de
	if relErr > 0.17 {
		t.Fatalf("AM=%v DE=%v relative error %.3f > 17%%", am, de, relErr)
	}
}

func TestMemoryReduction(t *testing.T) {
	// The simplified program must use orders of magnitude less memory
	// (Table 1's effect).
	res, err := Compile(figure1())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.IBMSP()
	inputs := map[string]float64{"N": 256}
	deRep, err := interp.Run(res.Original, interp.Config{
		Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Analytic},
		Inputs: inputs,
	})
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
	amRep, err := interp.Run(res.Simplified, interp.Config{
		Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
		Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	factor := float64(deRep.TotalPeakBytes) / float64(amRep.TotalPeakBytes)
	// Original: 2 arrays of 256x65; simplified: one 254-element buffer.
	if factor < 50 {
		t.Fatalf("memory reduction factor = %.1f (DE=%d AM=%d)",
			factor, deRep.TotalPeakBytes, amRep.TotalPeakBytes)
	}
}

func TestDataDependentBoundsRetained(t *testing.T) {
	// NAS-SP-style: loop bounds come from an array computed at runtime;
	// the slicer must keep that array and its defining loop, and the
	// delay scaling expression must reference it (paper §3.3).
	p := &ir.Program{
		Name:   "spstyle",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{
			{Name: "CELL", Dims: []ir.Expr{ir.N(4)}, Elem: 8},
			{Name: "U", Dims: []ir.Expr{ir.N(64), ir.N(64)}, Elem: 8},
		},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			// cell sizes computed into an array
			ir.Loop("", "c", ir.N(1), ir.N(4),
				ir.SetA("CELL", ir.IX(ir.S("c")), ir.CeilDiv(ir.S("N"), ir.Mul(ir.S("c"), ir.N(1))))),
			// exchange guarded by rank
			&ir.If{Cond: ir.GT(ir.S(ir.BuiltinMyID), ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.Sub(ir.S(ir.BuiltinMyID), ir.N(1)), Tag: 1, Array: "U",
					Section: ir.Sec(ir.N(1), ir.At("CELL", ir.N(1)), ir.N(1), ir.N(1))})},
			&ir.If{Cond: ir.LT(ir.S(ir.BuiltinMyID), ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
				&ir.Recv{Src: ir.Add(ir.S(ir.BuiltinMyID), ir.N(1)), Tag: 1, Array: "U",
					Section: ir.Sec(ir.N(1), ir.At("CELL", ir.N(1)), ir.N(2), ir.N(2))})},
			// compute over bounds from CELL
			ir.Loop("solve", "i", ir.N(1), ir.At("CELL", ir.N(2)),
				ir.Loop("", "j", ir.N(1), ir.N(64),
					ir.SetA("U", ir.IX(ir.MinE(ir.S("i"), ir.N(64)), ir.S("j")),
						ir.Add(ir.At("U", ir.MinE(ir.S("i"), ir.N(64)), ir.S("j")), ir.N(1))))),
		),
	}
	res, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Slice.KeptArrays["CELL"] {
		t.Fatalf("CELL not kept: %s", res.Summary())
	}
	if !res.Slice.DummyArrays["U"] {
		t.Fatalf("U not dummied: %s", res.Summary())
	}
	// The CELL-defining loop must be retained in the simplified program.
	listing := res.Simplified.String()
	if !strings.Contains(listing, "CELL(c) = ") {
		t.Fatalf("CELL definition lost:\n%s", listing)
	}
	// And the simplified program must run correctly end to end.
	cal := interp.NewCalibration()
	m := machine.IBMSP()
	if _, err := interp.Run(res.Timer, interp.Config{
		Config:      mpi.Config{Ranks: 2, Machine: m, Comm: mpi.Detailed},
		Inputs:      map[string]float64{"N": 32},
		Calibration: cal,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(res.Simplified, interp.Config{
		Config: mpi.Config{Ranks: 2, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
		Inputs: map[string]float64{"N": 32},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommInsideRetainedLoop(t *testing.T) {
	// Iterative stencil: loop { shift; compute } — the loop is retained,
	// a delay is emitted per iteration, and the dummy buffer works inside
	// the loop.
	myid := ir.S(ir.BuiltinMyID)
	p := &ir.Program{
		Name:   "iter",
		Params: []string{"N", "STEPS"},
		Arrays: []*ir.ArrayDecl{
			{Name: "D", Dims: []ir.Expr{ir.S("N")}, Elem: 8},
		},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			&ir.ReadInput{Var: "STEPS"},
			ir.Loop("timeloop", "it", ir.N(1), ir.S("STEPS"),
				&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
					&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: 1, Array: "D",
						Section: ir.Sec(ir.N(1), ir.S("N"))})},
				&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
					&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: 1, Array: "D",
						Section: ir.Sec(ir.N(1), ir.S("N"))})},
				ir.Loop("", "i", ir.N(1), ir.S("N"),
					ir.SetA("D", ir.IX(ir.S("i")), ir.Add(ir.At("D", ir.S("i")), ir.N(1)))),
			),
		),
	}
	res, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	listing := res.Simplified.String()
	if !strings.Contains(listing, "do it = 1, STEPS") {
		t.Fatalf("time loop not retained:\n%s", listing)
	}
	// Exactly one delay inside the loop body (prologue has none: the
	// reads define relevant vars and are retained, leaving an empty
	// region... the prologue region is all-retained so its delay is
	// trivial but still emitted).
	if !strings.Contains(listing, "call delay(") {
		t.Fatalf("no delay emitted:\n%s", listing)
	}
	m := machine.IBMSP()
	inputs := map[string]float64{"N": 128, "STEPS": 5}
	am, de, _ := calibrateAndPredict(t, res, m, 4, inputs, 4, inputs)
	relErr := math.Abs(am-de) / de
	if relErr > 0.05 {
		t.Fatalf("iterative AM=%v DE=%v err=%.3f", am, de, relErr)
	}
}

func TestNoCondenseOption(t *testing.T) {
	res, err := CompileOpts(figure1(), Options{NoCondense: true})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf condensation produces at least as many tasks as region
	// condensation (here: prologue, loop nest... the nest is one leaf
	// compute node inside two loops — it stays per-leaf).
	if len(res.TaskVars) < 2 {
		t.Fatalf("TaskVars = %v", res.TaskVars)
	}
	if err := res.Simplified.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSliceOption(t *testing.T) {
	res, err := CompileOpts(figure1(), Options{NoSlice: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without slicing, the prologue's b-assignment is dropped from the
	// simplified program.
	if strings.Contains(res.Simplified.String(), "b = ceildiv(N, P)") {
		t.Fatalf("NoSlice retained statements:\n%s", res.Simplified)
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	p := &ir.Program{Name: "bad", Body: ir.Block(ir.SetS("x", ir.At("Q", ir.N(1))))}
	if _, err := Compile(p); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPureComputationProgram(t *testing.T) {
	// No communication at all: one condensed task, no dummy buffer.
	p := &ir.Program{
		Name:   "pure",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.S("N")}, Elem: 8}},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.Loop("", "i", ir.N(1), ir.S("N"),
				ir.SetA("A", ir.IX(ir.S("i")), ir.S("i"))),
		),
	}
	res, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskVars) != 1 {
		t.Fatalf("TaskVars = %v", res.TaskVars)
	}
	if res.DummyElems != nil {
		t.Fatal("unexpected dummy buffer")
	}
	if res.Simplified.Array("A") != nil {
		t.Fatal("array A should be eliminated")
	}
}

func TestDummyBufferFallbackForDynamicSizes(t *testing.T) {
	// The message size depends on a loop variable, which cannot be
	// resolved at array-declaration time; the compiler must fall back to
	// the conservative bound (the full replaced array) per §3.1's
	// "allocate the buffer statically or dynamically ... depending on
	// when the required message sizes are known".
	myid := ir.S(ir.BuiltinMyID)
	p := &ir.Program{
		Name:   "dynsize",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{{Name: "D", Dims: []ir.Expr{ir.N(64)}, Elem: 8}},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.Loop("rounds", "k", ir.N(1), ir.N(4),
				&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
					// Message length k varies per iteration.
					&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: 1, Array: "D",
						Section: ir.Sec(ir.N(1), ir.S("k"))})},
				&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
					&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: 1, Array: "D",
						Section: ir.Sec(ir.N(1), ir.S("k"))})},
			),
		),
	}
	res, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fallback bound: the whole 64-element array.
	if res.DummyElems == nil || res.DummyElems.String() != "64" {
		t.Fatalf("dummy elems = %v, want conservative 64", res.DummyElems)
	}
	// The simplified program must still run correctly: sections use k,
	// which stays within the conservative buffer.
	cal := interp.NewCalibration()
	m := machine.IBMSP()
	inputs := map[string]float64{"N": 8}
	if _, err := interp.Run(res.Timer, interp.Config{
		Config:      mpi.Config{Ranks: 3, Machine: m, Comm: mpi.Detailed},
		Inputs:      inputs,
		Calibration: cal,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(res.Simplified, interp.Config{
		Config: mpi.Config{Ranks: 3, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
		Inputs: inputs,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryListsEverything(t *testing.T) {
	res, err := Compile(figure1())
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	for _, want := range []string{"STG nodes", "relevant variables", "arrays kept",
		"replaced by dummy buffer", "eliminated"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
