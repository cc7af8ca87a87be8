package ir

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseExprBasics(t *testing.T) {
	cases := []string{
		"3",
		"2.5",
		"x",
		"(a + b)",
		"(a - (b * c))",
		"min(a, b)",
		"max(2, ((myid * b) + 1))",
		"ceildiv(N, P)",
		"sqrt(x)",
		"abs((x - y))",
		"A(i, j)",
		"A((i + 1), (j - 1))",
		"sum(i, 1, N, (i * w_1))",
		"(x % 4)",
		"(x // 4)",
		"(myid > 0)",
		"(a <= b)",
		"(a != b)",
		"-3",
		"1e-06",
	}
	for _, src := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		// Round trip: re-parsing the printed form yields the same print.
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Errorf("re-parse of %q (%q): %v", src, e.String(), err)
			continue
		}
		if back.String() != e.String() {
			t.Errorf("round trip %q -> %q -> %q", src, e.String(), back.String())
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{
		"", "(", "a +", "min(1)", "min(1,2,3)", "sqrt(1,2)",
		"sum(1,2,3,4)", "sum(i,1,2)", "a @ b", "1..2",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q): expected error", src)
		}
	}
}

// TestParseDepthBounds holds both parsers to their nesting bounds, at
// the bound and one past it: operator chains, parentheses, unary minuses,
// calls and sums for expressions, do/if/timed blocks for programs.
func TestParseDepthBounds(t *testing.T) {
	n := MaxExprDepth
	wrap := func(k int, open, inner, close string) string {
		return strings.Repeat(open, k) + inner + strings.Repeat(close, k)
	}
	for _, c := range []struct {
		name     string
		ok, deep string
	}{
		{"chain", "1" + strings.Repeat(" + 1", n-1), "1" + strings.Repeat(" + 1", n)},
		{"product", "x" + strings.Repeat("*x", n-1), "x" + strings.Repeat("*x", n)},
		{"right chain", wrap(n-1, "(1 + ", "1", ")"), wrap(n, "(1 + ", "1", ")")},
		{"parentheses", wrap(n, "(", "x", ")"), wrap(n+1, "(", "x", ")")},
		{"minus", strings.Repeat("-", n-1) + "x", strings.Repeat("-", n) + "x"},
		{"calls", wrap(n-1, "sqrt(", "x", ")"), wrap(n, "sqrt(", "x", ")")},
		{"sums", wrap(n-1, "sum(i, 1, 2, ", "i", ")"), wrap(n, "sum(i, 1, 2, ", "i", ")")},
		{"arrays", wrap(n-1, "A(1, ", "2", ")"), wrap(n, "A(1, ", "2", ")")},
	} {
		if _, err := ParseExpr(c.ok); err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		}
		if _, err := ParseExpr(c.deep); err == nil || !strings.Contains(err.Error(), "nests deeper than 1000") {
			t.Errorf("%s past the bound: %v", c.name, err)
		}
	}

	prog := func(k int, open, close string) string {
		return "program p\n" + strings.Repeat(open, k) + "x = 1\n" + strings.Repeat(close, k) + "end\n"
	}
	for _, c := range []struct{ name, open, close string }{
		{"do", "do i = 1, 2\n", "enddo\n"},
		{"if", "if (x) then\n", "endif\n"},
		{"timed", "call start_timer(\"t\")\n", "call stop_timer(\"t\", units=1)\n"},
	} {
		if _, err := Parse(prog(MaxBlockDepth, c.open, c.close)); err != nil {
			t.Errorf("%s blocks at the bound: %v", c.name, err)
		}
		_, err := Parse(prog(MaxBlockDepth+1, c.open, c.close))
		if want := fmt.Sprintf("line %d: ", MaxBlockDepth+2); err == nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "blocks nest deeper than 1000") {
			t.Errorf("%s blocks past the bound: %v", c.name, err)
		}
	}
	// An expression error inside a program names its line.
	if _, err := Parse(prog(1, "do i = 1, "+wrap(n+1, "(", "2", ")")+"\n", "enddo\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2: ") {
		t.Errorf("deep do bound: %.200v", err)
	}
}

// FuzzParseExpr: ParseExpr never panics, and what it accepts prints to
// text it parses back to the same print.
func FuzzParseExpr(f *testing.F) {
	for _, src := range []string{
		"3", "-2.5e-3", "x", "(a - (b * c))", "max(2, ((myid * b) + 1))", "ceildiv(N, P)",
		"exp(N) + cos(x) - sin(y)", "A((i + 1), (j - 1))", "sum(i, 1, N, (i * w_1))",
		"(x % 4) // 2", "(myid > 0)", "a != b", "- -x", "1e+20", "((((1))))", "min(1)", "sum(1,2,3,4)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExpr(src)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("ParseExpr(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("ParseExpr(%q) printed %q, which prints back as %q", src, printed, again)
		}
	})
}

func TestMustParseExprPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseExpr("(")
}

// roundTrip asserts print -> parse -> print is the identity.
func roundTrip(t *testing.T, p *Program) {
	t.Helper()
	text := p.String()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse failed: %v\n%s", err, text)
	}
	if got := back.String(); got != text {
		t.Fatalf("round trip changed program:\n--- original ---\n%s\n--- reparsed ---\n%s", text, got)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("reparsed program invalid: %v", err)
	}
}

func TestParseProgramRoundTripFigure1(t *testing.T) {
	roundTrip(t, figure1Program())
}

func TestParseProgramAllStatementKinds(t *testing.T) {
	p := &Program{
		Name:   "kinds",
		Params: []string{"N", "STEPS"},
		Arrays: []*ArrayDecl{
			{Name: "A", Dims: []Expr{S("N"), Add(CeilDiv(S("N"), S(BuiltinP)), N(2))}, Elem: 8},
			{Name: "B", Dims: []Expr{N(64)}, Elem: 8},
		},
		Body: Block(
			&ReadInput{Var: "N"},
			&ReadInput{Var: "STEPS"},
			SetS("b", CeilDiv(S("N"), S(BuiltinP))),
			SetA("B", IX(N(1)), N(0)),
			ir2If(),
			Loop("outer", "t", N(1), S("STEPS"),
				Loop("", "i", N(2), Sub(S("N"), N(1)),
					SetA("A", IX(S("i"), N(1)),
						Mul(Add(At("A", S("i"), N(1)), At("A", Sub(S("i"), N(1)), N(1))), N(0.5))),
				),
				&Allreduce{Op: "max", Vars: []string{"rmax", "rmin"}},
			),
			&Bcast{Root: N(0), Vars: []string{"v"}},
			&Barrier{},
			&ReadTaskTimes{Names: []string{"w_1", "w_2"}},
			&Delay{Seconds: Mul(S("w_1"), S("b")), Task: "w_1"},
			&Timed{ID: "w_2", Units: Mul(S("b"), N(3)), Body: Block(
				SetS("x", N(1)),
			)},
		),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, p)
}

// ir2If builds nested guarded communication for the round-trip test.
func ir2If() Stmt {
	myid := S(BuiltinMyID)
	return &If{
		Cond: GT(myid, N(0)),
		Then: Block(
			&Send{Dest: Sub(myid, N(1)), Tag: 3, Array: "B",
				Section: Sec(N(1), N(32))},
		),
		Else: Block(
			&If{Cond: LT(myid, Sub(S(BuiltinP), N(1))), Then: Block(
				&Recv{Src: Add(myid, N(1)), Tag: 3, Array: "B",
					Section: Sec(N(33), N(64))},
			)},
		),
	}
}

func TestParseErrorsProgram(t *testing.T) {
	bad := []string{
		"",                                // no program header
		"do i = 1, 2",                     // header alone
		"program p\nif (x) then\nend",     // unterminated if
		"program p\ndo i = 1, 2\nend",     // unterminated do
		"program p\nFROB x\nend",          // unknown statement
		"program p\nSEND A(1:2) tag\nend", // malformed comm
		"program p\ncall start_timer(\"a\")\ncall stop_timer(\"b\", units=1)\nend", // id mismatch
		"program p\nALLREDUCE[sum] x\nend",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseIgnoresIndentationAndBlankLines(t *testing.T) {
	src := `
program tiny

      read(*, N)
   x = (N + 1)
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tiny" || len(p.Body) != 2 {
		t.Fatalf("parsed %q with %d statements", p.Name, len(p.Body))
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("not a program")
}
