package symexpr_test

// The expression language over this package's operators is ir.Expr:
// ir.Eval, ir.SubstScalar, ir.FoldEnv, ir.Simplify and ir.ParseExpr.
// Its tests sit beside the operator tests so that a change to an
// operator's arithmetic runs them too.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mpisim/internal/ir"
)

func evalOK(t *testing.T, e ir.Expr, env map[string]float64) float64 {
	t.Helper()
	v, err := ir.Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%s) failed: %v", e, err)
	}
	return v
}

func TestConstEval(t *testing.T) {
	if got := evalOK(t, ir.N(3.5), nil); got != 3.5 {
		t.Fatalf("got %v, want 3.5", got)
	}
	if got := evalOK(t, ir.N(-7), nil); got != -7 {
		t.Fatalf("got %v, want -7", got)
	}
}

func TestVarEval(t *testing.T) {
	env := map[string]float64{"N": 100}
	if got := evalOK(t, ir.S("N"), env); got != 100 {
		t.Fatalf("got %v, want 100", got)
	}
	if _, err := ir.Eval(ir.S("missing"), env); err == nil {
		t.Fatal("expected unbound variable error")
	}
	if _, err := ir.Eval(ir.S("x"), nil); err == nil {
		t.Fatal("expected error for nil env")
	}
}

func TestFuncEval(t *testing.T) {
	cases := map[string]struct {
		e    ir.Expr
		want float64
	}{
		"ceil":  {ir.Call{Name: "ceil", Arg: ir.N(2.1)}, 3},
		"floor": {ir.Call{Name: "floor", Arg: ir.N(2.9)}, 2},
		"sqrt":  {ir.Sqrt(ir.N(16)), 4},
		"abs":   {ir.Abs(ir.N(-3)), 3},
		"log2":  {ir.Call{Name: "log2", Arg: ir.N(8)}, 3},
	}
	for name, c := range cases {
		if got := evalOK(t, c.e, nil); got != c.want {
			t.Errorf("%s: got %v, want %v", name, got, c.want)
		}
	}
	if _, err := ir.Eval(ir.Call{Name: "nosuch", Arg: ir.N(1)}, nil); err == nil {
		t.Fatal("expected unknown function error")
	}
}

// A conditional is a comparison's 0/1 value weighting each arm.
func cond(test, then, els ir.Expr) ir.Expr {
	return ir.Add(ir.Mul(test, then), ir.Mul(ir.EQ(test, ir.N(0)), els))
}

func TestCondEval(t *testing.T) {
	e := cond(ir.GT(ir.S("p"), ir.N(0)), ir.N(10), ir.N(20))
	if got := evalOK(t, e, map[string]float64{"p": 3}); got != 10 {
		t.Fatalf("then branch: got %v", got)
	}
	if got := evalOK(t, e, map[string]float64{"p": 0}); got != 20 {
		t.Fatalf("else branch: got %v", got)
	}
}

func TestCondErrorPropagation(t *testing.T) {
	for _, e := range []ir.Expr{
		cond(ir.S("unbound"), ir.N(1), ir.N(2)),
		cond(ir.N(1), ir.S("unbound"), ir.N(2)),
		cond(ir.N(0), ir.N(1), ir.S("unbound")),
	} {
		if _, err := ir.Eval(e, map[string]float64{}); err == nil {
			t.Errorf("%s: expected unbound variable error", e)
		}
	}
}

func TestSubstOnCond(t *testing.T) {
	x := ir.S("x")
	e := cond(ir.GT(x, ir.N(0)), x, ir.Sub(ir.N(0), x))
	s := ir.SubstScalar(e, "x", ir.N(-4))
	if got := evalOK(t, s, nil); got != 4 {
		t.Fatalf("|x| at -4 = %v", got)
	}
}

func TestSumEval(t *testing.T) {
	i := ir.S("i")
	// sum_{i=1..4} i = 10
	if got := evalOK(t, ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.N(4), Body: i}, nil); got != 10 {
		t.Fatalf("got %v, want 10", got)
	}
	// empty range sums to 0
	if got := evalOK(t, ir.SumE{Index: "i", Lo: ir.N(5), Hi: ir.N(4), Body: i}, nil); got != 0 {
		t.Fatalf("empty sum: got %v, want 0", got)
	}
	// index shadows env binding and does not leak
	env := map[string]float64{"i": 99, "N": 3}
	if got := evalOK(t, ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.S("N"), Body: i}, env); got != 6 {
		t.Fatalf("got %v, want 6", got)
	}
	if env["i"] != 99 {
		t.Fatalf("env mutated: i=%v", env["i"])
	}
}

func TestSumRangeGuard(t *testing.T) {
	s := ir.SumE{Index: "i", Lo: ir.N(0), Hi: ir.N(1e9), Body: ir.N(1)}
	if _, err := ir.Eval(s, nil); err == nil {
		t.Fatal("expected sum range error")
	}
}

func TestSumEvalErrorPropagation(t *testing.T) {
	u := ir.S("unbound")
	for _, s := range []ir.SumE{
		{Index: "i", Lo: u, Hi: ir.N(3), Body: ir.N(1)},
		{Index: "i", Lo: ir.N(1), Hi: u, Body: ir.N(1)},
		{Index: "i", Lo: ir.N(1), Hi: ir.N(3), Body: u},
	} {
		if _, err := ir.Eval(s, map[string]float64{}); err == nil {
			t.Errorf("%s: expected unbound variable error", s)
		}
	}
}

// A sum's bounds round to the nearest integer, as a count does.
func TestEvalInt(t *testing.T) {
	s := ir.SumE{Index: "i", Lo: ir.Div(ir.S("N"), ir.N(4)), Hi: ir.Div(ir.S("N"), ir.N(3)), Body: ir.S("i")}
	// N=10: i runs 3 (2.5 rounded) .. 3 (3.33 rounded).
	if got := evalOK(t, s, map[string]float64{"N": 10}); got != 3 {
		t.Fatalf("got %v, want 3", got)
	}
}

// Eval binds a sum's index in a copy of the caller's env.
func TestEnvClone(t *testing.T) {
	env := map[string]float64{"x": 1}
	s := ir.SumE{Index: "x", Lo: ir.N(2), Hi: ir.N(3), Body: ir.S("x")}
	if got := evalOK(t, s, env); got != 5 {
		t.Fatalf("got %v, want 5", got)
	}
	if len(env) != 1 || env["x"] != 1 {
		t.Fatalf("env changed: %v", env)
	}
}

func freeScalars(e ir.Expr) []string {
	set := map[string]bool{}
	ir.ScalarsIn(e, set, nil)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestVarsCollection(t *testing.T) {
	e := ir.Add(ir.Mul(ir.S("N"), ir.S("P")),
		ir.SumE{Index: "i", Lo: ir.S("lo"), Hi: ir.S("hi"), Body: ir.Mul(ir.S("i"), ir.S("w_1"))})
	want := []string{"N", "P", "hi", "lo", "w_1"}
	if got := freeScalars(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("free scalars = %v, want %v", got, want)
	}
}

func TestSubst(t *testing.T) {
	e := ir.Add(ir.S("N"), ir.Mul(ir.S("P"), ir.S("N")))
	s := ir.SubstScalar(e, "N", ir.N(8))
	if got := evalOK(t, s, map[string]float64{"P": 2}); got != 24 {
		t.Fatalf("got %v, want 24", got)
	}
	// substitution does not capture bound sum indices
	sum := ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.N(3), Body: ir.S("i")}
	if got := evalOK(t, ir.SubstScalar(sum, "i", ir.N(100)), nil); got != 6 {
		t.Fatalf("bound index substituted: got %v, want 6", got)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	x := ir.S("x")
	cases := []struct {
		in   ir.Expr
		want string
	}{
		{ir.Add(x, ir.N(0)), "x"},
		{ir.Add(ir.N(0), x), "x"},
		{ir.Sub(x, ir.N(0)), "x"},
		{ir.Sub(x, x), "0"},
		{ir.Mul(x, ir.N(1)), "x"},
		{ir.Mul(ir.N(1), x), "x"},
		{ir.Mul(x, ir.N(0)), "0"},
		{ir.Mul(ir.N(0), x), "0"},
		{ir.Div(x, ir.N(1)), "x"},
		{ir.Add(ir.N(2), ir.N(3)), "5"},
		{ir.Add(ir.Sub(x, ir.N(1)), ir.N(1)), "x"},
		{ir.Call{Name: "ceil", Arg: ir.N(1.2)}, "2"},
		{ir.Div(ir.N(1), ir.N(0)), "(1 / 0)"},
	}
	for _, c := range cases {
		if got := ir.Simplify(c.in).String(); got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

// Simplify's x - x rule compares operands as printed: equal trees fold,
// unequal ones stay.
func TestEqualStructural(t *testing.T) {
	a := ir.Add(ir.S("x"), ir.N(1))
	if got := ir.Simplify(ir.Sub(a, ir.Add(ir.S("x"), ir.N(1)))); got.String() != "0" {
		t.Fatalf("identical operands: %s", got)
	}
	if got := ir.Simplify(ir.Sub(a, ir.Add(ir.S("x"), ir.N(2)))); got.String() == "0" {
		t.Fatal("different operands folded to 0")
	}
}

func TestSimplifySumIndependentBody(t *testing.T) {
	// sum_{i=1..N} c  ->  c*max(0, N)
	s := ir.Simplify(ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.S("N"), Body: ir.S("c")})
	if _, isSum := s.(ir.SumE); isSum {
		t.Fatalf("expected sum collapse, got %s", s)
	}
	if got := evalOK(t, s, map[string]float64{"N": 7, "c": 3}); got != 21 {
		t.Fatalf("got %v, want 21", got)
	}
	// empty-range behaviour must be preserved by the collapse
	if got := evalOK(t, s, map[string]float64{"N": 0, "c": 3}); got != 0 {
		t.Fatalf("empty range after collapse: got %v, want 0", got)
	}
	// A NaN bound makes no trips, as the loop does: folded and unfolded.
	nan := ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.Call{Name: "sqrt", Arg: ir.N(-1)}, Body: ir.S("c")}
	if got := evalOK(t, ir.Simplify(nan), map[string]float64{"c": 3}); got != 0 {
		t.Fatalf("NaN-bounded sum after collapse: got %v, want 0", got)
	}
	nan.Body = ir.S("i")
	if got := evalOK(t, nan, nil); got != 0 {
		t.Fatalf("NaN-bounded sum: got %v, want 0", got)
	}
}

func TestFoldEnv(t *testing.T) {
	e := ir.MustParseExpr("(N - 2) * (min(N, myid*b + b) - max(2, myid*b + 1)) * w_1")
	folded := ir.FoldEnv(e, map[string]float64{"w_1": 2e-8})
	if strings.Contains(folded.String(), "w_1") {
		t.Fatalf("w_1 not folded: %s", folded)
	}
	full := map[string]float64{"N": 100, "myid": 1, "b": 25, "w_1": 2e-8}
	want := evalOK(t, e, full)
	if got := evalOK(t, folded, full); math.Abs(want-got) > 1e-18 {
		t.Fatalf("fold changed value: %v vs %v", got, want)
	}
}

func TestFoldEnvSkipsNaN(t *testing.T) {
	folded := ir.FoldEnv(ir.Add(ir.S("a"), ir.S("b")), map[string]float64{"a": 1, "b": math.NaN()})
	if got := freeScalars(folded); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("free scalars after fold = %v", got)
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		env  map[string]float64
		want float64
	}{
		{"1 + 2 * 3", nil, 7},
		{"(1 + 2) * 3", nil, 9},
		{"10 // 3", nil, 3},
		{"10 % 3", nil, 1},
		{"-4 + 1", nil, -3},
		{"2 < 3", nil, 1},
		{"min(4, 9)", nil, 4},
		{"max(4, 9)", nil, 9},
		{"ceildiv(7, 2)", nil, 4},
		{"ceil(N / P)", map[string]float64{"N": 10, "P": 4}, 3},
		{"sqrt(P)", map[string]float64{"P": 16}, 4},
		{"(p > 0) * 1 + (p <= 0) * 2", map[string]float64{"p": 5}, 1},
		{"(p > 0) * 1 + (p <= 0) * 2", map[string]float64{"p": 0}, 2},
		{"sum(i, 1, 4, i*i)", nil, 30},
		{"1e-6 * 2", nil, 2e-6},
		{"1e+2", nil, 100},
		{"w_1 * 3", map[string]float64{"w_1": 2}, 6},
	}
	for _, c := range cases {
		e, err := ir.ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q) failed: %v", c.src, err)
			continue
		}
		if got := evalOK(t, e, c.env); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "min(1)", "1 2", "sum(1,2,3,4)",
		"sum(i,1,2)", "a ? b", "ceil(1,2)", "@", "min(1,2,3)",
	}
	for _, src := range bad {
		if _, err := ir.ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q): expected error", src)
		}
	}
}

// An unknown function name parses as an array reference, which has no
// value in a scaling function.
func TestMustEvalPanics(t *testing.T) {
	e := ir.MustParseExpr("nosuch(3)")
	if _, err := ir.Eval(e, nil); err == nil {
		t.Fatalf("Eval(%s): expected array reference error", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ir.MustParseExpr("1 +")
}

func TestStringParseRoundTrip(t *testing.T) {
	exprs := []ir.Expr{
		ir.Add(ir.Mul(ir.S("N"), ir.S("P")), ir.N(3)),
		ir.CeilDiv(ir.S("N"), ir.S("P")),
		cond(ir.GT(ir.S("myid"), ir.N(0)), ir.S("a"), ir.S("b")),
		ir.SumE{Index: "i", Lo: ir.N(1), Hi: ir.S("N"), Body: ir.Mul(ir.S("i"), ir.S("w_2"))},
		ir.MinE(ir.S("x"), ir.MaxE(ir.S("y"), ir.N(2))),
		ir.Mod(ir.S("n"), ir.N(4)),
		ir.Bin{Op: ir.OpIDiv, L: ir.S("n"), R: ir.N(4)},
	}
	env := map[string]float64{"N": 12, "P": 4, "myid": 1, "a": 5, "b": 6, "w_2": 0.5,
		"x": 3, "y": 9, "n": 13}
	for _, e := range exprs {
		back, err := ir.ParseExpr(e.String())
		if err != nil {
			t.Errorf("round-trip parse of %q failed: %v", e.String(), err)
			continue
		}
		if evalOK(t, e, env) != evalOK(t, back, env) {
			t.Errorf("round trip changed semantics for %s", e)
		}
	}
}

// randomExpr builds a random expression tree over the given variables.
func randomExpr(r *rand.Rand, depth int, vars []string) ir.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return ir.N(float64(r.Intn(21) - 10))
		}
		return ir.S(vars[r.Intn(len(vars))])
	}
	l, rt := randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars)
	switch r.Intn(6) {
	case 0:
		return ir.Add(l, rt)
	case 1:
		return ir.Sub(l, rt)
	case 2:
		return ir.Mul(l, rt)
	case 3:
		return ir.MinE(l, rt)
	case 4:
		return ir.MaxE(l, rt)
	default:
		return cond(ir.GT(l, ir.N(0)), rt, randomExpr(r, depth-1, vars))
	}
}

// Property: Simplify never changes the value of an expression.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vars := []string{"N", "P", "myid"}
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(r, 4, vars)
		env := map[string]float64{"N": float64(r.Intn(100) + 1), "P": float64(r.Intn(16) + 1),
			"myid": float64(r.Intn(16))}
		want, err1 := ir.Eval(e, env)
		got, err2 := ir.Eval(ir.Simplify(e), env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error behaviour changed for %s: %v vs %v", e, err1, err2)
		}
		if err1 == nil && math.Abs(want-got) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("Simplify changed %s: %v -> %v (env %v)", e, want, got, env)
		}
	}
}

// Property: String/ParseExpr round trip preserves value.
func TestParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(r, 4, vars)
		back, err := ir.ParseExpr(e.String())
		if err != nil {
			t.Fatalf("ParseExpr(%q) failed: %v", e.String(), err)
		}
		env := map[string]float64{"a": float64(r.Intn(20) - 10), "b": float64(r.Intn(20) - 10)}
		want, err1 := ir.Eval(e, env)
		got, err2 := ir.Eval(back, env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error behaviour changed for %q", e.String())
		}
		if err1 == nil && want != got {
			t.Fatalf("round trip changed %q: %v -> %v", e.String(), want, got)
		}
	}
}
