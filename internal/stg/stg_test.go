package stg

import (
	"strings"
	"testing"

	"mpisim/internal/ir"
)

// figure1 builds the paper's Figure 1(a) example.
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
			ir.Loop("compute", "j", ir.MaxE(ir.N(2), ir.Add(ir.Mul(myid, b), ir.N(1))),
				ir.MinE(nVar, ir.Add(ir.Mul(myid, b), b)),
				ir.Loop("", "i", ir.N(2), ir.Sub(nVar, ir.N(1)),
					ir.SetA("A", ir.IX(ir.S("i"), ir.S("j")),
						ir.Mul(ir.Add(ir.At("D", ir.S("i"), ir.S("j")),
							ir.At("D", ir.S("i"), ir.Sub(ir.S("j"), ir.N(1)))), ir.N(0.5))),
				),
			),
		),
	}
}

func TestBuildFigure1(t *testing.T) {
	g, err := Build(figure1())
	if err != nil {
		t.Fatal(err)
	}
	// Top level: compute(read+assign), branch(send), branch(recv), loop.
	if len(g.Roots) != 4 {
		t.Fatalf("got %d roots, want 4: %s", len(g.Roots), g)
	}
	if g.Roots[0].Kind != KindCompute {
		t.Fatalf("root 0 kind = %v", g.Roots[0].Kind)
	}
	if g.Roots[1].Kind != KindBranch || g.Roots[2].Kind != KindBranch {
		t.Fatalf("roots 1,2 should be branches")
	}
	if g.Roots[3].Kind != KindLoop {
		t.Fatalf("root 3 kind = %v", g.Roots[3].Kind)
	}
	// The send branch contains a comm node with a shift mapping.
	sendNode := g.Roots[1].Then[0]
	if sendNode.Kind != KindComm {
		t.Fatalf("expected comm node, got %v", sendNode.Kind)
	}
	if !strings.Contains(sendNode.Mapping, "(myid - 1)") {
		t.Fatalf("mapping = %q", sendNode.Mapping)
	}
	// Guard propagation.
	if len(sendNode.Guard) != 1 {
		t.Fatalf("send guard = %v", sendNode.Guard)
	}
}

func TestBuildRejectsCompilerConstructs(t *testing.T) {
	for _, s := range []ir.Stmt{
		&ir.Delay{Seconds: ir.N(1)},
		&ir.Timed{ID: "w_1", Units: ir.N(1)},
		&ir.ReadTaskTimes{Names: []string{"w_1"}},
	} {
		p := &ir.Program{Name: "bad", Body: ir.Block(s)}
		if _, err := Build(p); err == nil {
			t.Errorf("%T: expected error", s)
		}
	}
}

func TestCondenseFigure1(t *testing.T) {
	g, err := Build(figure1())
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Condense()
	tasks := cg.CondensedTasks()
	// Two condensed tasks: the scalar prologue and the loop nest.
	if len(tasks) != 2 {
		t.Fatalf("got %d condensed tasks, want 2:\n%s", len(tasks), cg)
	}
	if tasks[0].TaskVar != "w_1" || tasks[1].TaskVar != "w_2" {
		t.Fatalf("task vars = %s, %s", tasks[0].TaskVar, tasks[1].TaskVar)
	}
	// The loop nest's scaling function must reference the retained
	// variables (N, myid, b) — the paper's Figure 1(c) delay argument.
	scalars := map[string]bool{}
	ir.ScalarsIn(tasks[1].Units, scalars, nil)
	for _, v := range []string{"N", "myid", "b"} {
		if !scalars[v] {
			t.Errorf("scaling function missing %q: %s", v, tasks[1].Units)
		}
	}
	// Comm nodes are retained.
	if len(cg.CommNodes()) != 2 {
		t.Fatalf("comm nodes = %d, want 2", len(cg.CommNodes()))
	}
	// The branches survive (they guard communication).
	if cg.Roots[1].Kind != KindBranch || cg.Roots[2].Kind != KindBranch {
		t.Fatalf("guarding branches not retained:\n%s", cg)
	}
}

func TestCondenseKeepsCommInLoop(t *testing.T) {
	// do it=1,T { SEND; compute; } : loop retained, body has comm + task.
	p := &ir.Program{
		Name:   "loopcomm",
		Arrays: []*ir.ArrayDecl{{Name: "D", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			ir.Loop("outer", "it", ir.N(1), ir.N(10),
				&ir.Send{Dest: ir.N(0), Tag: 1, Array: "D", Section: ir.Pt(ir.N(1))},
				ir.SetA("D", ir.IX(ir.N(2)), ir.S("it")),
			),
		),
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Condense()
	if len(cg.Roots) != 1 || cg.Roots[0].Kind != KindLoop {
		t.Fatalf("outer loop not retained:\n%s", cg)
	}
	kids := cg.Roots[0].Children
	if len(kids) != 2 || kids[0].Kind != KindComm || kids[1].Kind != KindCondensed {
		t.Fatalf("loop body condensation wrong:\n%s", cg)
	}
}

func TestCondenseWholeProgramWithoutComm(t *testing.T) {
	p := &ir.Program{
		Name: "pure",
		Body: ir.Block(
			ir.SetS("a", ir.N(1)),
			ir.Loop("", "i", ir.N(1), ir.N(10), ir.SetS("b", ir.S("i"))),
			ir.SetS("c", ir.N(2)),
		),
	}
	g, _ := Build(p)
	cg := g.Condense()
	if len(cg.Roots) != 1 || cg.Roots[0].Kind != KindCondensed {
		t.Fatalf("pure program should collapse to one task:\n%s", cg)
	}
	if len(cg.TaskVars) != 1 {
		t.Fatalf("TaskVars = %v", cg.TaskVars)
	}
}

func TestUnitsOfMatchesInterpreterAccounting(t *testing.T) {
	// Rectangular nest: do i=1,N { do j=1,M { A(i? no arrays: x = i+j } }
	// interp charges: head(1) + N*(1 + head(1) + M*(1 + (1 store + 1 op)))
	stmts := ir.Block(
		ir.Loop("", "i", ir.N(1), ir.S("N"),
			ir.Loop("", "j", ir.N(1), ir.S("M"),
				ir.SetS("x", ir.Add(ir.S("i"), ir.S("j"))))))
	units := ir.Simplify(UnitsOf(stmts))
	// Evaluate symbolically at N=4, M=5:
	got := mustEval(t, units, map[string]float64{"N": 4, "M": 5})
	want := 1.0 + 4*(1+1+5*(1+2))
	if got != want {
		t.Fatalf("units = %v, want %v (%s)", got, want, units)
	}
	// After Simplify, a rectangular nest's units must be in closed form
	// (no SumE nodes), so Delay evaluation is O(1).
	if containsSum(units) {
		t.Fatalf("rectangular nest not collapsed: %s", units)
	}
}

func containsSum(e ir.Expr) bool {
	switch x := e.(type) {
	case ir.SumE:
		return true
	case ir.Bin:
		return containsSum(x.L) || containsSum(x.R)
	case ir.Call:
		return containsSum(x.Arg)
	}
	return false
}

func mustEval(t *testing.T, e ir.Expr, env map[string]float64) float64 {
	t.Helper()
	v, err := ir.Eval(e, env)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestUnitsOfBranchAveraging(t *testing.T) {
	// if (c) { 3 assigns } else { 1 assign } -> head 1 + (3+1)/2 = 3 units
	stmts := ir.Block(&ir.If{
		Cond: ir.S("c"),
		Then: ir.Block(ir.SetS("x", ir.N(1)), ir.SetS("y", ir.N(2)), ir.SetS("z", ir.N(3))),
		Else: ir.Block(ir.SetS("x", ir.N(4))),
	})
	units := ir.Simplify(UnitsOf(stmts))
	got := mustEval(t, units, nil)
	if got != 3 {
		t.Fatalf("branch units = %v, want 3 (%s)", got, units)
	}
}

func TestTriangularUnitsKeepSum(t *testing.T) {
	// do i=1,N { do j=1,i { x=1 } } : inner trip depends on i.
	stmts := ir.Block(
		ir.Loop("", "i", ir.N(1), ir.S("N"),
			ir.Loop("", "j", ir.N(1), ir.S("i"), ir.SetS("x", ir.N(1)))))
	units := ir.Simplify(UnitsOf(stmts))
	if !containsSum(units) {
		t.Fatalf("triangular nest should keep a Sum: %s", units)
	}
	got := mustEval(t, units, map[string]float64{"N": 3})
	// head 1 + sum_i (1 + head 1 + i*(1+1)) = 1 + 3*(2) + 2*(1+2+3) = 19
	if got != 19 {
		t.Fatalf("triangular units = %v, want 19 (%s)", got, units)
	}
}

func TestGraphCountsAndString(t *testing.T) {
	g, _ := Build(figure1())
	if g.NodeCount() < 7 {
		t.Fatalf("NodeCount = %d", g.NodeCount())
	}
	s := g.String()
	for _, want := range []string{"static task graph", "comm", "loop", "procs="} {
		if !strings.Contains(s, want) {
			t.Errorf("graph dump missing %q", want)
		}
	}
	cg := g.Condense()
	cs := cg.String()
	if !strings.Contains(cs, "units=") || !strings.Contains(cs, "task w_") {
		t.Errorf("condensed dump missing annotations:\n%s", cs)
	}
}

func TestCollectiveNodes(t *testing.T) {
	p := &ir.Program{
		Name: "colls",
		Body: ir.Block(
			ir.SetS("r", ir.N(1)),
			&ir.Allreduce{Op: "sum", Vars: []string{"r"}},
			&ir.Bcast{Root: ir.N(0), Vars: []string{"r"}},
			&ir.Barrier{},
		),
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	comms := g.CommNodes()
	if len(comms) != 3 {
		t.Fatalf("comm nodes = %d, want 3", len(comms))
	}
	if !strings.Contains(comms[0].Label, "allreduce") ||
		!strings.Contains(comms[1].Label, "bcast") ||
		!strings.Contains(comms[2].Label, "barrier") {
		t.Fatalf("labels: %q %q %q", comms[0].Label, comms[1].Label, comms[2].Label)
	}
}

func TestDOTExport(t *testing.T) {
	g, err := Build(figure1())
	if err != nil {
		t.Fatal(err)
	}
	dot := g.Condense().DOT()
	for _, want := range []string{"digraph", "box3d", "ellipse", "->", "units="} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestUnitsOfProfiledWeights(t *testing.T) {
	branch := &ir.If{
		Cond: ir.S("c"),
		Then: ir.Block(ir.SetS("x", ir.N(1)), ir.SetS("y", ir.N(2))), // 2 units
		Else: ir.Block(ir.SetS("x", ir.N(3))),                        // 1 unit
	}
	stmts := []ir.Stmt{branch}
	eval := func(probs map[*ir.If]float64) float64 {
		u := ir.Simplify(UnitsOfProfiled(stmts, probs))
		v, err := ir.Eval(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Default 0.5 folding: 1 + (2+1)/2 = 2.5
	if got := eval(nil); got != 2.5 {
		t.Fatalf("default units = %v", got)
	}
	// Measured 90% taken: 1 + 0.9*2 + 0.1*1 = 2.9
	if got := eval(map[*ir.If]float64{branch: 0.9}); got != 2.9 {
		t.Fatalf("profiled units = %v", got)
	}
	// Never taken: 1 + 0*2 + 1*1 = 2
	if got := eval(map[*ir.If]float64{branch: 0}); got != 2 {
		t.Fatalf("never-taken units = %v", got)
	}
}
