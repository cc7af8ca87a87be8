package check

import (
	"strings"
	"testing"

	"mpisim/internal/ir"
)

// assertClean fails when the result carries warnings or errors (info
// notes are allowed).
func assertClean(t *testing.T, res *Result) {
	t.Helper()
	for _, d := range res.Diags {
		if d.Severity >= Warning {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func edgeRun(t *testing.T, p *ir.Program, inputs map[string]float64) *Result {
	t.Helper()
	res, err := Run(p, Options{Ranks: appRanks, Inputs: inputs})
	if err != nil {
		t.Fatalf("check.Run(%s): %v", p.Name, err)
	}
	return res
}

// A send inside a zero-trip loop is never executed: no unmatched-send
// error and no deadlock report. (The symbolic bounds layer is
// deliberately flow-insensitive — a provably out-of-range section is a
// defect even in dead code — so the section here is in range.)
func TestEdgeZeroTripLoop(t *testing.T) {
	p := &ir.Program{
		Name:   "zerotrip",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			ir.Loop("", "i", ir.N(5), ir.N(4),
				&ir.Send{Dest: ir.N(0), Tag: 1, Array: "A",
					Section: ir.Sec(ir.N(1), ir.N(8))}),
			&ir.Barrier{},
		),
	}
	assertClean(t, edgeRun(t, p, nil))
}

// Communication guarded by a condition no rank satisfies (an empty
// process set) must not be reported as unmatched.
func TestEdgeEmptyProcessSet(t *testing.T) {
	p := &ir.Program{
		Name:   "emptyset",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			&ir.If{Cond: ir.LT(ir.S(ir.BuiltinMyID), ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.N(0), Tag: 1, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
				&ir.Recv{Src: ir.N(0), Tag: 2, Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
			)},
		),
	}
	assertClean(t, edgeRun(t, p, nil))
}

// A program with no communication at all exercises every pass's empty
// case (and the STG builder's comm-free condensation).
func TestEdgeNoCommunication(t *testing.T) {
	p := &ir.Program{
		Name:   "nocomm",
		Params: []string{"N"},
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.S("N")}, Elem: 8}},
		Body: ir.Block(
			&ir.ReadInput{Var: "N"},
			ir.Loop("", "i", ir.N(1), ir.S("N"),
				ir.SetA("A", ir.IX(ir.S("i")), ir.Mul(ir.S("i"), ir.N(2)))),
		),
	}
	assertClean(t, edgeRun(t, p, map[string]float64{"N": 64}))
}

// A collective reached only when received data satisfies a predicate —
// the Sweep3D flux-fixup shape — cannot be proven consistent and must
// surface as a data-dependent-collective warning, not an error.
func TestEdgeDataDependentCollective(t *testing.T) {
	myid, np := ir.S(ir.BuiltinMyID), ir.S(ir.BuiltinP)
	p := &ir.Program{
		Name:   "fixup",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(4)}, Elem: 8}},
		Body: ir.Block(
			&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: 3, Array: "A",
					Section: ir.Sec(ir.N(1), ir.N(4))})},
			&ir.If{Cond: ir.LT(myid, ir.Sub(np, ir.N(1))), Then: ir.Block(
				&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: 3, Array: "A",
					Section: ir.Sec(ir.N(1), ir.N(4))})},
			&ir.If{Cond: ir.LT(ir.At("A", ir.N(1)), ir.N(0)), Then: ir.Block(
				&ir.Allreduce{Op: "sum", Vars: []string{"fix"}})},
		),
	}
	res := edgeRun(t, p, nil)
	if res.HasErrors() {
		t.Fatalf("data-dependent collective must not be an error:\n%s", res.Text(Error))
	}
	if !strings.Contains(res.Text(Warning), "data-dependent condition") {
		t.Errorf("expected a data-dependent collective warning, got:\n%s", res.Text(Info))
	}
}

// A peer or broadcast root that evaluates to NaN or an infinity is as
// data-dependent as an unknown one: clamping passes NaN through and what
// int32(NaN) yields depends on the platform (a valid rank 0 on arm64).
func TestEdgeNonFinitePeerIsDataDependent(t *testing.T) {
	p := ir.MustParse(`program nanpeer
  double precision A(4)
  x = 1
  SEND A(1:4) to sqrt((myid - 2)) tag 1
  RECV A(1:4) from exp((myid + 1000)) tag 2
  BCAST from sqrt((0 - 1)): x
end`)
	_, ctx, err := run(p, Options{Ranks: 4}, classMinRanks)
	if err != nil {
		t.Fatal(err)
	}
	tr := ctx.traces
	for r, want := range []string{"SEND to ? tag 1", "SEND to ? tag 1", "SEND to 0 tag 1", "SEND to 1 tag 1"} {
		ops := tr.ops[tr.win[r]:tr.win[r+1]]
		if len(ops) != 3 {
			t.Fatalf("rank %d: %d operations; want 3", r, len(ops))
		}
		for i, want := range []string{want, "RECV from ? tag 2", "BCAST root=?: x"} {
			if got := ctx.describe(&ops[i]); got != want || ops[i].peer != 0 && i > 0 {
				t.Errorf("rank %d op %d: %s (peer %d); want %s", r, i, got, ops[i].peer, want)
			}
		}
	}
	if !tr.uncertain {
		t.Error("a non-finite peer did not mark the point-to-point analysis uncertain")
	}
}
