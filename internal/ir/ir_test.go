package ir

import (
	"math"
	"strings"
	"testing"
)

// figure1Program builds the paper's Figure 1(a) example MPI code: a shift
// communication followed by a computational loop nest.
func figure1Program() *Program {
	b := S("b")
	myid := S(BuiltinMyID)
	return &Program{
		Name:   "figure1",
		Params: []string{"N"},
		Arrays: []*ArrayDecl{
			{Name: "A", Dims: []Expr{S("N"), Add(N(1), CeilDiv(S("N"), S(BuiltinP)))}, Elem: 8},
			{Name: "D", Dims: []Expr{S("N"), Add(N(1), CeilDiv(S("N"), S(BuiltinP)))}, Elem: 8},
		},
		Body: Block(
			&ReadInput{Var: "N"},
			SetS("b", CeilDiv(S("N"), S(BuiltinP))),
			&If{
				Cond: GT(myid, N(0)),
				Then: Block(&Send{
					Dest: Sub(myid, N(1)), Tag: 1, Array: "D",
					Section: Sec(N(2), Sub(S("N"), N(1)), N(1), N(1)),
				}),
			},
			&If{
				Cond: LT(myid, Sub(S(BuiltinP), N(1))),
				Then: Block(&Recv{
					Src: Add(myid, N(1)), Tag: 1, Array: "D",
					Section: Sec(N(2), Sub(S("N"), N(1)), Add(b, N(1)), Add(b, N(1))),
				}),
			},
			Loop("compute", "j", MaxE(N(2), N(1)), MinE(S("N"), b),
				Loop("", "i", N(2), Sub(S("N"), N(1)),
					SetA("A", IX(S("i"), S("j")),
						Mul(Add(At("D", S("i"), S("j")), At("D", S("i"), Sub(S("j"), N(1)))), N(0.5))),
				),
			),
		),
	}
}

func TestFigure1Validates(t *testing.T) {
	p := figure1Program()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestProgramString(t *testing.T) {
	out := figure1Program().String()
	for _, want := range []string{
		"program figure1", "double precision A", "read(*, N)",
		"do j", "SEND D(", "RECV D(", "enddo", "end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("program listing missing %q:\n%s", want, out)
		}
	}
}

func TestArrayLookup(t *testing.T) {
	p := figure1Program()
	if p.Array("A") == nil || p.Array("D") == nil {
		t.Fatal("declared arrays not found")
	}
	if p.Array("Z") != nil {
		t.Fatal("undeclared array found")
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{N(3), "3"},
		{N(2.5), "2.5"},
		{S("x"), "x"},
		{At("A", S("i"), N(1)), "A(i, 1)"},
		{Add(S("a"), S("b")), "(a + b)"},
		{MinE(S("a"), S("b")), "min(a, b)"},
		{CeilDiv(S("N"), S("P")), "ceildiv(N, P)"},
		{Sqrt(S("x")), "sqrt(x)"},
		{SumE{"i", N(1), S("N"), S("i")}, "sum(i, 1, N, i)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestOpCount(t *testing.T) {
	if OpCount(N(1)) != 0 || OpCount(S("x")) != 0 {
		t.Fatal("leaves must cost 0")
	}
	if OpCount(Add(S("x"), N(1))) != 1 {
		t.Fatal("binary op must cost 1")
	}
	// Mul(1) + Add(1) + D(i,j)=1 + D(i,j-1)=1+Sub(1) = 5.
	e := Mul(Add(At("D", S("i"), S("j")), At("D", S("i"), Sub(S("j"), N(1)))), N(0.5))
	if got := OpCount(e); got != 5 {
		t.Fatalf("OpCount = %v, want 5", got)
	}
}

func TestScalarsInAndArrays(t *testing.T) {
	e := Add(At("A", S("i"), S("j")), Mul(S("x"), SumE{"k", N(1), S("n"), At("B", S("k"))}))
	scalars := map[string]bool{}
	arrays := map[string]bool{}
	ScalarsIn(e, scalars, arrays)
	for _, want := range []string{"i", "j", "x", "n"} {
		if !scalars[want] {
			t.Errorf("missing scalar %q", want)
		}
	}
	if scalars["k"] {
		t.Error("bound index k leaked")
	}
	if !arrays["A"] || !arrays["B"] {
		t.Errorf("arrays = %v", arrays)
	}
	if !HasArrayRef(e) {
		t.Error("HasArrayRef = false")
	}
	if HasArrayRef(Add(S("x"), N(1))) {
		t.Error("HasArrayRef on pure-scalar expr")
	}
}

// TestEval holds the evaluator to every intrinsic, the sums — empty,
// shadowing, with rounded bounds — and each way it fails.
func TestEval(t *testing.T) {
	env := map[string]float64{"N": 100, "myid": 1, "b": 25, "i": 99}
	e := Mul(Sub(S("N"), N(2)), Sub(MinE(S("N"), Add(Mul(S("myid"), S("b")), S("b"))),
		MaxE(N(2), Add(Mul(S("myid"), S("b")), N(1)))))
	ok := func(e Expr, want float64) {
		t.Helper()
		if got, err := Eval(e, env); err != nil || got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Eval(%s) = %v, %v; want %v", e, got, err, want)
		}
	}
	// (100-2) * (min(100, 50) - max(2, 26)) = 98 * 24
	ok(e, 98*24)
	for name, fn := range Intrinsics {
		for _, x := range []float64{-2.5, 0, 0.5, 3} {
			ok(Call{name, N(x)}, fn(x))
		}
	}
	ok(Call{"exp", S("myid")}, math.E)
	ok(SumE{"i", N(1), N(4), Mul(S("i"), S("i"))}, 30)
	ok(SumE{"i", N(5), N(4), S("i")}, 0)               // empty
	ok(SumE{"i", N(1), N(3), Add(S("i"), S("b"))}, 81) // the index shadows i=99
	ok(SumE{"i", N(0.6), N(2.4), S("i")}, 3)           // bounds round: 1..2
	ok(SumE{"j", N(1), N(2), SumE{"i", N(1), S("j"), S("i")}}, 4)
	if env["i"] != 99 || len(env) != 4 {
		t.Errorf("env changed: %v", env)
	}

	for _, c := range []struct {
		e    Expr
		want string
	}{
		{S("unbound"), `ir: unbound variable "unbound"`},
		{At("A", N(1)), "ir: array reference A(1) has no value here"},
		{Call{"nosuch", N(1)}, `ir: unknown function "nosuch"`},
		{Div(N(1), N(0)), "symexpr: division by zero"},
		{Mod(S("N"), Sub(S("b"), N(25))), "symexpr: mod by zero"},
		{SumE{"i", N(0), N(1 << 25), N(1)}, "ir: sum range too large (0..33554432)"},
		{SumE{"i", S("lo"), N(1), N(1)}, `ir: unbound variable "lo"`},
		{SumE{"i", N(1), S("hi"), N(1)}, `ir: unbound variable "hi"`},
		{SumE{"i", N(1), N(2), Div(S("i"), Sub(S("i"), N(2)))}, "symexpr: division by zero"},
		{Add(N(1), Call{"sqrt", S("x")}), `ir: unbound variable "x"`},
	} {
		if _, err := Eval(c.e, env); err == nil || err.Error() != c.want {
			t.Errorf("Eval(%s): error %v, want %q", c.e, err, c.want)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"dup array", &Program{Arrays: []*ArrayDecl{
			{Name: "A", Dims: []Expr{N(2)}, Elem: 8}, {Name: "A", Dims: []Expr{N(2)}, Elem: 8}}}},
		{"no dims", &Program{Arrays: []*ArrayDecl{{Name: "A", Elem: 8}}}},
		{"bad elem", &Program{Arrays: []*ArrayDecl{{Name: "A", Dims: []Expr{N(2)}}}}},
		{"undeclared array", &Program{Body: Block(SetS("x", At("Z", N(1))))}},
		{"wrong subscript count", &Program{
			Arrays: []*ArrayDecl{{Name: "A", Dims: []Expr{N(2), N(2)}, Elem: 8}},
			Body:   Block(SetS("x", At("A", N(1))))}},
		{"bad intrinsic", &Program{Body: Block(SetS("x", Call{"tanhh", N(1)}))}},
		{"empty loop var", &Program{Body: Block(&For{Lo: N(1), Hi: N(2)})}},
		{"bad allreduce op", &Program{Body: Block(&Allreduce{Op: "prod", Vars: []string{"x"}})}},
		{"empty allreduce", &Program{Body: Block(&Allreduce{Op: "sum"})}},
		{"empty bcast", &Program{Body: Block(&Bcast{Root: N(0)})}},
		{"bad section", &Program{
			Arrays: []*ArrayDecl{{Name: "A", Dims: []Expr{N(2), N(2)}, Elem: 8}},
			Body:   Block(&Send{Dest: N(0), Array: "A", Section: Sec(N(1), N(2))})}},
		{"comm undeclared array", &Program{
			Body: Block(&Send{Dest: N(0), Array: "Q", Section: Sec(N(1), N(2))})}},
		{"array dim uses array", &Program{Arrays: []*ArrayDecl{
			{Name: "A", Dims: []Expr{N(4)}, Elem: 8},
			{Name: "B", Dims: []Expr{At("A", N(1))}, Elem: 8}}}},
		{"assign empty name", &Program{Body: Block(&Assign{RHS: N(1)})}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestStmtDefUse(t *testing.T) {
	// scalar assign
	du := StmtDefUse(SetS("x", Add(S("a"), At("A", S("i")))))
	if !du.Defs["x"] || !du.Uses["a"] || !du.Uses["A"] || !du.Uses["i"] {
		t.Fatalf("assign defuse wrong: %+v", du)
	}
	if du.Uses["x"] {
		t.Fatal("scalar assign must not use its target")
	}
	// array element assign: def+use of the array
	du = StmtDefUse(SetA("A", IX(S("i")), S("v")))
	if !du.Defs["A"] || !du.Uses["A"] || !du.Uses["i"] || !du.Uses["v"] {
		t.Fatalf("array assign defuse wrong: %+v", du)
	}
	// for header
	du = StmtDefUse(&For{Var: "i", Lo: S("lo"), Hi: S("hi")})
	if !du.Defs["i"] || !du.Uses["lo"] || !du.Uses["hi"] {
		t.Fatalf("for defuse wrong: %+v", du)
	}
	// send
	du = StmtDefUse(&Send{Dest: Sub(S("myid"), N(1)), Tag: 1, Array: "D",
		Section: Sec(N(2), S("N"), S("c"), S("c"))})
	if !du.Uses["myid"] || !du.Uses["D"] || !du.Uses["N"] || !du.Uses["c"] {
		t.Fatalf("send defuse wrong: %+v", du)
	}
	// recv: def+use of array
	du = StmtDefUse(&Recv{Src: N(0), Tag: 1, Array: "D", Section: Sec(N(1), N(2))})
	if !du.Defs["D"] || !du.Uses["D"] {
		t.Fatalf("recv defuse wrong: %+v", du)
	}
	// allreduce
	du = StmtDefUse(&Allreduce{Op: "sum", Vars: []string{"r"}})
	if !du.Defs["r"] || !du.Uses["r"] {
		t.Fatalf("allreduce defuse wrong: %+v", du)
	}
	// read input
	du = StmtDefUse(&ReadInput{Var: "N"})
	if !du.Defs["N"] {
		t.Fatalf("readinput defuse wrong: %+v", du)
	}
	// read task times
	du = StmtDefUse(&ReadTaskTimes{Names: []string{"w_1", "w_2"}})
	if !du.Defs["w_1"] || !du.Defs["w_2"] {
		t.Fatalf("readtasktimes defuse wrong: %+v", du)
	}
	// delay uses
	du = StmtDefUse(&Delay{Seconds: Mul(S("w_1"), S("n"))})
	if !du.Uses["w_1"] || !du.Uses["n"] {
		t.Fatalf("delay defuse wrong: %+v", du)
	}
}

func TestWalkAndHasComm(t *testing.T) {
	p := figure1Program()
	var loops, sends int
	Walk(p.Body, func(s Stmt) bool {
		switch s.(type) {
		case *For:
			loops++
		case *Send:
			sends++
		}
		return true
	})
	if loops != 2 || sends != 1 {
		t.Fatalf("walk found %d loops, %d sends", loops, sends)
	}
	if !HasComm(p.Body) {
		t.Fatal("HasComm(figure1) = false")
	}
	// The compute nest alone has no comm.
	nest := p.Body[len(p.Body)-1].(*For)
	if HasComm([]Stmt{nest}) {
		t.Fatal("compute nest reported as having comm")
	}
	// Walk with early cutoff must not descend.
	count := 0
	Walk(p.Body, func(s Stmt) bool { count++; return false })
	if count != len(p.Body) {
		t.Fatalf("cutoff walk visited %d, want %d", count, len(p.Body))
	}
}

func TestArraysUsed(t *testing.T) {
	p := figure1Program()
	used := ArraysUsed(p)
	if !used["A"] || !used["D"] {
		t.Fatalf("ArraysUsed = %v", used)
	}
	// Add an unused array; it must not appear.
	p.Arrays = append(p.Arrays, &ArrayDecl{Name: "UNUSED", Dims: []Expr{N(10)}, Elem: 8})
	used = ArraysUsed(p)
	if used["UNUSED"] {
		t.Fatal("unused array reported as used")
	}
}

func TestSimplifyIR(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Add(S("x"), N(0)), "x"},
		{Mul(N(1), S("x")), "x"},
		{Mul(S("x"), N(0)), "0"},
		{Add(N(2), N(3)), "5"},
		{Call{"ceil", N(1.5)}, "2"},
		{SumE{"i", N(1), S("n"), N(3)}, "(3 * max(0, n))"},
		{Div(S("x"), N(1)), "x"},
	}
	for _, c := range cases {
		got := Simplify(c.in).String()
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	// Nested sums with index-independent bodies collapse fully.
	nest := SumE{"j", N(1), S("M"), SumE{"i", N(1), S("N"), N(2)}}
	s := Simplify(nest)
	if _, isSum := s.(SumE); isSum {
		t.Fatalf("nested sum did not collapse: %s", s)
	}
	// Index-dependent sums must be preserved.
	tri := SumE{"i", N(1), S("n"), S("i")}
	if _, isSum := Simplify(tri).(SumE); !isSum {
		t.Fatal("index-dependent sum wrongly collapsed")
	}
}

func TestSimplifyPreservesIdxSubtrees(t *testing.T) {
	e := At("A", Add(S("i"), N(0)))
	got := Simplify(e).String()
	if got != "A(i)" {
		t.Fatalf("Simplify = %s, want A(i)", got)
	}
}

func TestSubstScalar(t *testing.T) {
	e := Add(S("x"), At("A", S("x")))
	got := SubstScalar(e, "x", N(7)).String()
	if got != "(7 + A(7))" {
		t.Fatalf("SubstScalar = %s", got)
	}
	// Bound sum index is not substituted in the body.
	sum := SumE{"i", S("i"), S("n"), S("i")}
	got = SubstScalar(sum, "i", N(3)).String()
	if got != "sum(i, 3, n, i)" {
		t.Fatalf("SubstScalar sum = %s", got)
	}
}

func TestSecAndPtHelpers(t *testing.T) {
	sec := Sec(N(1), N(5), N(2), N(2))
	if len(sec) != 2 || sec[0].Lo.String() != "1" || sec[1].Hi.String() != "2" {
		t.Fatalf("Sec = %+v", sec)
	}
	pt := Pt(S("i"), S("j"))
	if len(pt) != 2 || pt[0].Lo.String() != "i" || pt[0].Hi.String() != "i" {
		t.Fatalf("Pt = %+v", pt)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sec with odd bounds must panic")
		}
	}()
	Sec(N(1))
}

func TestAddNMulN(t *testing.T) {
	if AddN(N(1), N(2), N(3)).String() != "((1 + 2) + 3)" {
		t.Fatal("AddN wrong")
	}
	if MulN(S("a"), S("b")).String() != "(a * b)" {
		t.Fatal("MulN wrong")
	}
}

func TestTimedAndDelayPrint(t *testing.T) {
	var sb strings.Builder
	(&Timed{ID: "t1", Units: S("c"), Body: Block(SetS("x", N(1)))}).write(&sb, 0)
	out := sb.String()
	if !strings.Contains(out, "start_timer") || !strings.Contains(out, "stop_timer") {
		t.Fatalf("timed print: %s", out)
	}
	sb.Reset()
	(&Delay{Seconds: Mul(S("w_1"), S("c")), Task: "t1"}).write(&sb, 0)
	if !strings.Contains(sb.String(), "call delay((w_1 * c)) ! task t1") {
		t.Fatalf("delay print: %s", sb.String())
	}
}

// TestCompileSpan holds the interval rules: a scalar reads a register as
// one value or ranges over an interval, + − * min max combine bounds, a
// product takes the extremes of its corners, mod by a whole literal stays
// below it for an integral operand and needs a finite one, and anything
// else, or a scalar the leaf refuses, does not compile.
func TestCompileSpan(t *testing.T) {
	regs := []float64{3, math.Inf(1)}
	vars := []Interval{{-2, 5}}
	leaf := func(name string) (Span, bool) {
		switch name {
		case "k":
			return SpanVar(0), true
		case "n":
			return SpanReg(0), true
		case "inf":
			return SpanReg(1), true
		}
		return nil, false
	}
	integral := func(Expr) bool { return true }
	for _, tc := range []struct {
		e      Expr
		lo, hi float64
		ok     bool
	}{
		{Add(S("k"), S("n")), 1, 8, true},
		{Sub(S("n"), S("k")), -2, 5, true},
		{Mul(S("k"), N(-2)), -10, 4, true},
		{MinE(S("k"), N(4)), -2, 4, true},
		{MaxE(S("k"), S("n")), 3, 5, true},
		{Mod(S("k"), N(4)), 0, 3, true},
		{Mod(S("k"), N(2.5)), 0, 2.5, true},
		{Mod(S("inf"), N(4)), 0, 3, false},
	} {
		s, ok := CompileSpan(tc.e, leaf, integral)
		if !ok {
			t.Fatalf("%s does not compile", tc.e)
		}
		v, ok := s(regs, vars)
		if v != (Interval{tc.lo, tc.hi}) || ok != tc.ok {
			t.Errorf("%s: %v %v, want [%g, %g] %v", tc.e, v, ok, tc.lo, tc.hi, tc.ok)
		}
	}
	for _, e := range []Expr{Div(S("k"), N(2)), Mod(S("k"), S("n")), Mod(S("k"), N(0)), At("A", S("k")), Add(S("k"), S("m"))} {
		if _, ok := CompileSpan(e, leaf, integral); ok {
			t.Errorf("%s compiles", e)
		}
	}
}
