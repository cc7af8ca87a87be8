package interp

import (
	"math"
	"strings"
	"testing"

	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// evalProbe runs a single-rank program that computes expr into scalar
// "out" and asserts it equals want, using the If-panic channel: if the
// value differs, an out-of-bounds access fails the run.
func evalProbe(t *testing.T, expr ir.Expr, want float64) {
	t.Helper()
	fail := ir.SetS("z", ir.At("ZZ", ir.N(99)))
	p := &ir.Program{
		Name:   "probe",
		Arrays: []*ir.ArrayDecl{{Name: "ZZ", Dims: []ir.Expr{ir.N(2)}, Elem: 8}},
		Body: ir.Block(
			ir.SetS("out", expr),
			&ir.If{Cond: ir.GT(ir.Abs(ir.Sub(ir.S("out"), ir.N(want))), ir.N(1e-9)),
				Then: ir.Block(fail)},
		),
	}
	if _, err := Run(p, Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	}); err != nil {
		t.Fatalf("expr %s != %v: %v", expr, want, err)
	}
}

func TestInterpIntrinsics(t *testing.T) {
	cases := []struct {
		expr ir.Expr
		want float64
	}{
		{ir.Sqrt(ir.N(25)), 5},
		{ir.Abs(ir.N(-3.5)), 3.5},
		{ir.Call{Name: "ceil", Arg: ir.N(2.2)}, 3},
		{ir.Call{Name: "floor", Arg: ir.N(2.8)}, 2},
		{ir.Call{Name: "log2", Arg: ir.N(16)}, 4},
		{ir.Call{Name: "exp", Arg: ir.N(0)}, 1},
		{ir.Call{Name: "sin", Arg: ir.N(0)}, 0},
		{ir.Call{Name: "cos", Arg: ir.N(0)}, 1},
		{ir.Mod(ir.N(-3), ir.N(5)), 2},
		{ir.Bin{Op: ir.OpIDiv, L: ir.N(17), R: ir.N(5)}, 3},
		{ir.CeilDiv(ir.N(17), ir.N(5)), 4},
		{ir.MinE(ir.N(2), ir.N(-7)), -7},
		{ir.MaxE(ir.N(2), ir.N(-7)), 2},
		{ir.LE(ir.N(2), ir.N(2)), 1},
		{ir.NE(ir.N(2), ir.N(2)), 0},
	}
	for _, c := range cases {
		evalProbe(t, c.expr, c.want)
	}
}

func TestInterpIfElseBothArms(t *testing.T) {
	// Branch on myid: rank 0 takes then, rank 1 takes else; both record
	// via distinct delay amounts.
	p := &ir.Program{
		Name: "arms",
		Body: ir.Block(
			&ir.If{
				Cond: ir.EQ(ir.S(ir.BuiltinMyID), ir.N(0)),
				Then: ir.Block(&ir.Delay{Seconds: ir.N(1), Task: "then"}),
				Else: ir.Block(&ir.Delay{Seconds: ir.N(2), Task: "else"}),
			},
		),
	}
	rep, err := Run(p, Config{
		Config: mpi.Config{Ranks: 2, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks[0].DelayTime != 1 || rep.Ranks[1].DelayTime != 2 {
		t.Fatalf("arm delays = %v, %v", rep.Ranks[0].DelayTime, rep.Ranks[1].DelayTime)
	}
	if rep.DelayByTask["then"] != 1 || rep.DelayByTask["else"] != 2 {
		t.Fatalf("DelayByTask = %v", rep.DelayByTask)
	}
}

func TestInterpBcastComputedRoot(t *testing.T) {
	// Root expression computed at runtime: P-1.
	fail := ir.SetS("z", ir.At("ZZ", ir.N(99)))
	p := &ir.Program{
		Name:   "computed-root",
		Arrays: []*ir.ArrayDecl{{Name: "ZZ", Dims: []ir.Expr{ir.N(2)}, Elem: 8}},
		Body: ir.Block(
			&ir.If{Cond: ir.EQ(ir.S(ir.BuiltinMyID), ir.Sub(ir.S(ir.BuiltinP), ir.N(1))),
				Then: ir.Block(ir.SetS("v", ir.N(77)))},
			&ir.Bcast{Root: ir.Sub(ir.S(ir.BuiltinP), ir.N(1)), Vars: []string{"v"}},
			&ir.If{Cond: ir.NE(ir.S("v"), ir.N(77)), Then: ir.Block(fail)},
		),
	}
	if _, err := Run(p, Config{
		Config: mpi.Config{Ranks: 5, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpDeepNesting(t *testing.T) {
	// Four nested loops with an If at the bottom; checks op accounting
	// stays consistent between two identical runs (determinism).
	body := ir.SetS("x", ir.Add(ir.S("x"), ir.N(1)))
	p := &ir.Program{
		Name: "deep",
		Body: ir.Block(
			ir.Loop("", "a", ir.N(1), ir.N(3),
				ir.Loop("", "b", ir.N(1), ir.N(3),
					ir.Loop("", "c", ir.N(1), ir.N(3),
						ir.Loop("", "d", ir.N(1), ir.N(3),
							&ir.If{Cond: ir.EQ(ir.Mod(ir.S("d"), ir.N(2)), ir.N(0)),
								Then: ir.Block(body)})))),
		),
	}
	cfg := Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	}
	a, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Time <= 0 {
		t.Fatalf("nondeterministic or zero time: %v vs %v", a.Time, b.Time)
	}
}

func TestInterpDivisionByZeroSurfaces(t *testing.T) {
	p := &ir.Program{
		Name: "divzero",
		Body: ir.Block(ir.SetS("x", ir.Div(ir.N(1), ir.S("zero")))),
	}
	_, err := Run(p, Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division error, got %v", err)
	}
}

func TestInterpWorkingSetSelectsCacheFactor(t *testing.T) {
	// The same op count over a large working set must take longer than
	// over a small one.
	build := func(n int64) *ir.Program {
		return &ir.Program{
			Name:   "ws",
			Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(float64(n))}, Elem: 8}},
			Body: ir.Block(
				ir.Loop("", "i", ir.N(1), ir.N(1000),
					ir.SetA("A", ir.IX(ir.Add(ir.Mod(ir.S("i"), ir.N(64)), ir.N(1))), ir.S("i"))),
			),
		}
	}
	cfg := Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: map[string]float64{},
	}
	small, err := Run(build(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(build(1<<22), cfg) // 32 MB working set
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Time / small.Time
	m := machine.IBMSP()
	if math.Abs(ratio-m.MemFactor) > 0.02*m.MemFactor {
		t.Fatalf("cache factor ratio = %v, want about %v", ratio, m.MemFactor)
	}
}
