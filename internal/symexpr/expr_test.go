package symexpr

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, e Expr, env Env) float64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%s) failed: %v", e, err)
	}
	return v
}

func TestConstEval(t *testing.T) {
	if got := evalOK(t, C(3.5), nil); got != 3.5 {
		t.Fatalf("got %v, want 3.5", got)
	}
	if got := evalOK(t, CI(-7), nil); got != -7 {
		t.Fatalf("got %v, want -7", got)
	}
}

func TestVarEval(t *testing.T) {
	env := Env{"N": 100}
	if got := evalOK(t, V("N"), env); got != 100 {
		t.Fatalf("got %v, want 100", got)
	}
	if _, err := V("missing").Eval(env); err == nil {
		t.Fatal("expected unbound variable error")
	}
	if _, err := V("x").Eval(nil); err == nil {
		t.Fatal("expected error for nil env")
	}
}

func TestBinaryArith(t *testing.T) {
	env := Env{"a": 7, "b": 2}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Add(V("a"), V("b")), 9},
		{Sub(V("a"), V("b")), 5},
		{Mul(V("a"), V("b")), 14},
		{Div(V("a"), V("b")), 3.5},
		{Binary{OpIDiv, V("a"), V("b")}, 3},
		{CeilDiv(V("a"), V("b")), 4},
		{Binary{OpMod, V("a"), V("b")}, 1},
		{Min(V("a"), V("b")), 2},
		{Max(V("a"), V("b")), 7},
		{Binary{OpLT, V("a"), V("b")}, 0},
		{Binary{OpGT, V("a"), V("b")}, 1},
		{Binary{OpLE, V("b"), V("b")}, 1},
		{Binary{OpGE, V("b"), V("a")}, 0},
		{Binary{OpEQ, V("a"), V("a")}, 1},
		{Binary{OpNE, V("a"), V("b")}, 1},
	}
	for _, c := range cases {
		if got := evalOK(t, c.e, env); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, op := range []Op{OpDiv, OpIDiv, OpCeilDiv, OpMod} {
		if _, err := (Binary{op, C(1), C(0)}).Eval(nil); err == nil {
			t.Errorf("op %v: expected division-by-zero error", op)
		}
	}
}

func TestModNonNegative(t *testing.T) {
	// Euclidean remainder: (-3) mod 5 == 2.
	got := evalOK(t, Binary{OpMod, C(-3), C(5)}, nil)
	if got != 2 {
		t.Fatalf("(-3) mod 5 = %v, want 2", got)
	}
}

func TestFuncEval(t *testing.T) {
	cases := map[string]struct {
		e    Expr
		want float64
	}{
		"ceil":  {Ceil(C(2.1)), 3},
		"floor": {Floor(C(2.9)), 2},
		"sqrt":  {Sqrt(C(16)), 4},
		"abs":   {Func{"abs", C(-3)}, 3},
		"log2":  {Func{"log2", C(8)}, 3},
	}
	for name, c := range cases {
		if got := evalOK(t, c.e, nil); got != c.want {
			t.Errorf("%s: got %v, want %v", name, got, c.want)
		}
	}
	if _, err := (Func{"nosuch", C(1)}).Eval(nil); err == nil {
		t.Fatal("expected unknown function error")
	}
}

func TestCondEval(t *testing.T) {
	e := If(Binary{OpGT, V("p"), C(0)}, C(10), C(20))
	if got := evalOK(t, e, Env{"p": 3}); got != 10 {
		t.Fatalf("then branch: got %v", got)
	}
	if got := evalOK(t, e, Env{"p": 0}); got != 20 {
		t.Fatalf("else branch: got %v", got)
	}
}

func TestSumEval(t *testing.T) {
	// sum_{i=1..4} i = 10
	s := SumOf("i", C(1), C(4), V("i"))
	if got := evalOK(t, s, Env{}); got != 10 {
		t.Fatalf("got %v, want 10", got)
	}
	// empty range sums to 0
	s = SumOf("i", C(5), C(4), V("i"))
	if got := evalOK(t, s, Env{}); got != 0 {
		t.Fatalf("empty sum: got %v, want 0", got)
	}
	// index shadows env binding and does not leak
	env := Env{"i": 99, "N": 3}
	s = SumOf("i", C(1), V("N"), V("i"))
	if got := evalOK(t, s, env); got != 6 {
		t.Fatalf("got %v, want 6", got)
	}
	if env["i"] != 99 {
		t.Fatalf("env mutated: i=%v", env["i"])
	}
}

func TestSumRangeGuard(t *testing.T) {
	s := SumOf("i", C(0), C(1e9), C(1))
	if _, err := s.Eval(Env{}); err == nil {
		t.Fatal("expected sum range error")
	}
}

func TestVarsCollection(t *testing.T) {
	e := Add(Mul(V("N"), V("P")), SumOf("i", V("lo"), V("hi"), Mul(V("i"), V("w_1"))))
	got := Vars(e)
	want := []string{"N", "P", "hi", "lo", "w_1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
}

func TestSubst(t *testing.T) {
	e := Add(V("N"), Mul(V("P"), V("N")))
	s := Subst(e, "N", C(8))
	if got := evalOK(t, s, Env{"P": 2}); got != 24 {
		t.Fatalf("got %v, want 24", got)
	}
	// substitution does not capture bound sum indices
	sum := SumOf("i", C(1), C(3), V("i"))
	s2 := Subst(sum, "i", C(100))
	if got := evalOK(t, s2, Env{}); got != 6 {
		t.Fatalf("bound index substituted: got %v, want 6", got)
	}
}

func TestEvalInt(t *testing.T) {
	v, err := EvalInt(Div(V("N"), C(3)), Env{"N": 10})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("got %d, want 3", v)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Add(V("x"), C(0)), "x"},
		{Add(C(0), V("x")), "x"},
		{Sub(V("x"), C(0)), "x"},
		{Sub(V("x"), V("x")), "0"},
		{Mul(V("x"), C(1)), "x"},
		{Mul(C(1), V("x")), "x"},
		{Mul(V("x"), C(0)), "0"},
		{Mul(C(0), V("x")), "0"},
		{Div(V("x"), C(1)), "x"},
		{Add(C(2), C(3)), "5"},
		{Min(V("x"), V("x")), "x"},
		{If(C(1), V("a"), V("b")), "a"},
		{If(C(0), V("a"), V("b")), "b"},
		{Ceil(C(1.2)), "2"},
	}
	for _, c := range cases {
		got := Simplify(c.in).String()
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifySumIndependentBody(t *testing.T) {
	// sum_{i=1..N} c  ->  c*N
	s := Simplify(SumOf("i", C(1), V("N"), V("c")))
	if _, isSum := s.(Sum); isSum {
		t.Fatalf("expected sum collapse, got %s", s)
	}
	got := evalOK(t, s, Env{"N": 7, "c": 3})
	if got != 21 {
		t.Fatalf("got %v, want 21", got)
	}
	// empty-range behaviour must be preserved by the collapse
	got = evalOK(t, s, Env{"N": 0, "c": 3})
	if got != 0 {
		t.Fatalf("empty range after collapse: got %v, want 0", got)
	}
}

func TestFoldEnv(t *testing.T) {
	e := MustParse("(N - 2) * (min(N, myid*b + b) - max(2, myid*b + 1)) * w_1")
	folded := FoldEnv(e, Env{"w_1": 2e-8})
	if strings.Contains(folded.String(), "w_1") {
		t.Fatalf("w_1 not folded: %s", folded)
	}
	full := Env{"N": 100, "myid": 1, "b": 25, "w_1": 2e-8}
	want := evalOK(t, e, full)
	got := evalOK(t, folded, full)
	if math.Abs(want-got) > 1e-18 {
		t.Fatalf("fold changed value: %v vs %v", got, want)
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
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
		{"ceil(N / P)", Env{"N": 10, "P": 4}, 3},
		{"sqrt(P)", Env{"P": 16}, 4},
		{"p > 0 ? 1 : 2", Env{"p": 5}, 1},
		{"p > 0 ? 1 : 2", Env{"p": 0}, 2},
		{"sum(i, 1, 4, i*i)", Env{}, 30},
		{"1e-6 * 2", nil, 2e-6},
		{"1e+2", nil, 100},
		{"w_1 * 3", Env{"w_1": 2}, 6},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", c.src, err)
			continue
		}
		got := evalOK(t, e, c.env)
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "min(1)", "nosuch(3)", "1 2", "sum(1,2,3,4)",
		"sum(i,1,2)", "a ? b", "ceil(1,2)", "@", "min(1,2,3)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	exprs := []Expr{
		Add(Mul(V("N"), V("P")), C(3)),
		CeilDiv(V("N"), V("P")),
		If(Binary{OpGT, V("myid"), C(0)}, V("a"), V("b")),
		SumOf("i", C(1), V("N"), Mul(V("i"), V("w_2"))),
		Min(V("x"), Max(V("y"), C(2))),
		Binary{OpMod, V("n"), C(4)},
		Binary{OpIDiv, V("n"), C(4)},
	}
	env := Env{"N": 12, "P": 4, "myid": 1, "a": 5, "b": 6, "w_2": 0.5,
		"x": 3, "y": 9, "n": 13}
	for _, e := range exprs {
		back, err := Parse(e.String())
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
func randomExpr(r *rand.Rand, depth int, vars []string) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return C(float64(r.Intn(21) - 10))
		}
		return V(vars[r.Intn(len(vars))])
	}
	switch r.Intn(6) {
	case 0:
		return Add(randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	case 1:
		return Sub(randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	case 2:
		return Mul(randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	case 3:
		return Min(randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	case 4:
		return Max(randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	default:
		return If(Binary{OpGT, randomExpr(r, depth-1, vars), C(0)},
			randomExpr(r, depth-1, vars), randomExpr(r, depth-1, vars))
	}
}

// Property: Simplify never changes the value of an expression.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vars := []string{"N", "P", "myid"}
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(r, 4, vars)
		env := Env{"N": float64(r.Intn(100) + 1), "P": float64(r.Intn(16) + 1),
			"myid": float64(r.Intn(16))}
		want, err1 := e.Eval(env)
		got, err2 := Simplify(e).Eval(env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error behaviour changed for %s: %v vs %v", e, err1, err2)
		}
		if err1 == nil && math.Abs(want-got) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("Simplify changed %s: %v -> %v (env %v)", e, want, got, env)
		}
	}
}

// Property: String/Parse round trip preserves value.
func TestParseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(r, 4, vars)
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(%q) failed: %v", e.String(), err)
		}
		env := Env{"a": float64(r.Intn(20) - 10), "b": float64(r.Intn(20) - 10)}
		want, err1 := e.Eval(env)
		got, err2 := back.Eval(env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error behaviour changed for %q", e.String())
		}
		if err1 == nil && want != got {
			t.Fatalf("round trip changed %q: %v -> %v", e.String(), want, got)
		}
	}
}

// Property (testing/quick): CeilDiv(a,b) == ceil(a/b) for positive ints.
func TestCeilDivQuick(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		bb := int64(b%1000) + 1
		aa := int64(a)
		got, err := CeilDiv(CI(aa), CI(bb)).Eval(nil)
		if err != nil {
			return false
		}
		want := (aa + bb - 1) / bb
		return int64(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): Mod result is always in [0, |m|).
func TestModRangeQuick(t *testing.T) {
	f := func(a int16, m uint8) bool {
		mm := int64(m) + 1
		got, err := (Binary{OpMod, CI(int64(a)), CI(mm)}).Eval(nil)
		if err != nil {
			return false
		}
		return got >= 0 && got < float64(mm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvClone(t *testing.T) {
	e := Env{"x": 1}
	c := e.Clone()
	c["x"] = 2
	if e["x"] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestEqualStructural(t *testing.T) {
	a := Add(V("x"), C(1))
	b := Add(V("x"), C(1))
	if !Equal(a, b) {
		t.Fatal("identical expressions not Equal")
	}
	if Equal(a, Add(V("x"), C(2))) {
		t.Fatal("different expressions Equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Fatal("nil handling wrong")
	}
}

func TestMustEvalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustEval(V("unbound"), nil)
}

func TestSumEvalErrorPropagation(t *testing.T) {
	// Errors in bounds and body surface.
	if _, err := SumOf("i", V("unbound"), C(3), C(1)).Eval(Env{}); err == nil {
		t.Fatal("expected lo error")
	}
	if _, err := SumOf("i", C(1), V("unbound"), C(1)).Eval(Env{}); err == nil {
		t.Fatal("expected hi error")
	}
	if _, err := SumOf("i", C(1), C(3), V("unbound")).Eval(Env{}); err == nil {
		t.Fatal("expected body error")
	}
}

func TestCondErrorPropagation(t *testing.T) {
	if _, err := If(V("unbound"), C(1), C(2)).Eval(Env{}); err == nil {
		t.Fatal("expected test error")
	}
	if _, err := If(C(1), V("unbound"), C(2)).Eval(Env{}); err == nil {
		t.Fatal("expected then error")
	}
	if _, err := If(C(0), C(1), V("unbound")).Eval(Env{}); err == nil {
		t.Fatal("expected else error")
	}
}

func TestApplyOpExported(t *testing.T) {
	v, err := ApplyOp(OpAdd, 2, 3)
	if err != nil || v != 5 {
		t.Fatalf("ApplyOp = %v, %v", v, err)
	}
	if _, err := ApplyOp(Op(99), 1, 1); err == nil {
		t.Fatal("expected unknown operator error")
	}
}

func TestSubstOnCond(t *testing.T) {
	e := If(Binary{OpGT, V("x"), C(0)}, V("x"), Binary{OpSub, C(0), V("x")})
	s := Subst(e, "x", C(-4))
	if got := MustEval(s, Env{}); got != 4 {
		t.Fatalf("|x| at -4 = %v", got)
	}
}

func TestFoldEnvSkipsNaN(t *testing.T) {
	e := Add(V("a"), V("b"))
	folded := FoldEnv(e, Env{"a": 1, "b": math.NaN()})
	vars := Vars(folded)
	if len(vars) != 1 || vars[0] != "b" {
		t.Fatalf("Vars after fold = %v", vars)
	}
}

// TestModIntegerPathExact holds mod's integer path to the float path it
// shortcuts, math.Mod plus the non-negative fixup, bit for bit: random
// integers within ±2^53 of every magnitude, the ±(2^53-1) and ±2^53
// boundaries, ±0, NaN, ±Inf and non-integral operands. Returning
// float64(m) for a zero remainder, dropping the dividend's sign, fails
// it: mod(-0, 1) and mod(-4, 2) are -0.
func TestModIntegerPathExact(t *testing.T) {
	want := func(l, r float64) float64 {
		m := math.Mod(l, r)
		if m < 0 {
			m += math.Abs(r)
		}
		return m
	}
	const lim = 1 << 53
	special := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -4, 7, -7, 512, -512,
		lim - 1, -(lim - 1), lim, -lim, lim + 2, -(lim + 2), 1 << 62, -(1 << 63),
		0.5, -0.5, 2.5, -7.25, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	operand := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Int63n(2*lim+1) - lim)
		case 2:
			return float64(rng.Int63n(1<<uint(rng.Intn(54))+1)) * float64(1-2*rng.Intn(2))
		}
		return float64(rng.Intn(2049) - 1024)
	}
	check := func(l, r float64) {
		got, err := ApplyOp(OpMod, l, r)
		if r == 0 {
			if err == nil {
				t.Fatalf("mod(%v, %v): no error", l, r)
			}
			return
		}
		if w := want(l, r); err != nil || math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("mod(%v, %v) = %v (%#x), %v; want %v (%#x)", l, r, got, math.Float64bits(got), err, w, math.Float64bits(w))
		}
	}
	for _, l := range special {
		for _, r := range special {
			check(l, r)
		}
	}
	n := 2000000
	if testing.Short() {
		n = 200000
	}
	for i := 0; i < n; i++ {
		check(operand(), operand())
	}
}
