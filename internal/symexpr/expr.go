// Package symexpr provides the symbolic expression algebra used throughout
// the simulator: scaling functions of condensed tasks, symbolic process
// sets and communication mappings of the static task graph, and symbolic
// array dimensions of the program IR are all represented as Exprs.
//
// Expressions are evaluated under an Env that binds program variables
// (problem size N, processor count P, rank myid, task-time coefficients
// w_i, ...) to numeric values. The package also provides simplification
// (constant folding and algebraic identities) and a small parser so that
// scaling functions can be written, stored and read back as text.
package symexpr

import (
	"fmt"
	"math"
	"sort"
)

// Env binds variable names to numeric values during evaluation.
type Env map[string]float64

// Lookup returns the value bound to name.
func (e Env) Lookup(name string) (float64, bool) {
	v, ok := e[name]
	return v, ok
}

// Clone returns a copy of the environment that can be mutated
// independently.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Expr is a symbolic arithmetic expression over named variables.
//
// Implementations are immutable; Simplify and substitution return new
// expressions.
type Expr interface {
	// Eval evaluates the expression under env. It fails if a variable is
	// unbound or an arithmetic error (division by zero) occurs.
	Eval(env Env) (float64, error)
	// addVars adds every free variable of the expression to set.
	addVars(set map[string]bool)
	// String renders the expression in the syntax accepted by Parse.
	String() string
}

// Vars returns the sorted free variables of e.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	e.addVars(set)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EvalInt evaluates e and rounds the result to the nearest integer. It is
// used where the expression denotes a count (trip counts, message sizes,
// process identifiers).
func EvalInt(e Expr, env Env) (int64, error) {
	v, err := e.Eval(env)
	if err != nil {
		return 0, err
	}
	return int64(math.Round(v)), nil
}

// Const is a numeric literal.
type Const struct{ Value float64 }

// C returns a constant expression.
func C(v float64) Const { return Const{Value: v} }

// CI returns an integer constant expression.
func CI(v int64) Const { return Const{Value: float64(v)} }

// Eval implements Expr.
func (c Const) Eval(Env) (float64, error) { return c.Value, nil }

func (c Const) addVars(map[string]bool) {}

func (c Const) String() string {
	if c.Value == math.Trunc(c.Value) && math.Abs(c.Value) < 1e15 {
		return fmt.Sprintf("%d", int64(c.Value))
	}
	return fmt.Sprintf("%g", c.Value)
}

// Var is a reference to a named variable bound by the evaluation Env.
type Var struct{ Name string }

// V returns a variable reference expression.
func V(name string) Var { return Var{Name: name} }

// Eval implements Expr.
func (v Var) Eval(env Env) (float64, error) {
	if env != nil {
		if val, ok := env.Lookup(v.Name); ok {
			return val, nil
		}
	}
	return 0, fmt.Errorf("symexpr: unbound variable %q", v.Name)
}

func (v Var) addVars(set map[string]bool) { set[v.Name] = true }

func (v Var) String() string { return v.Name }

// Op identifies a binary operator.
type Op int

// Binary operators. IDiv is truncating integer division; CeilDiv is the
// ceiling division that appears in block-distribution bounds
// (b = ceil(N/P)); Mod is the Euclidean remainder.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpCeilDiv
	OpMod
	OpMin
	OpMax
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpIDiv: "//", OpCeilDiv: "ceildiv", OpMod: "%",
	OpMin: "min", OpMax: "max",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
}

// String returns the operator's surface syntax.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a 0/1 truth value.
func (o Op) IsComparison() bool { return o >= OpLT }

// Binary applies Op to two operands. Comparison operators evaluate to 1
// (true) or 0 (false), so they compose with arithmetic (e.g. statistical
// branch folding multiplies a body cost by a probability expression).
type Binary struct {
	Op   Op
	L, R Expr
}

// Add returns l+r.
func Add(l, r Expr) Expr { return Binary{OpAdd, l, r} }

// Sub returns l-r.
func Sub(l, r Expr) Expr { return Binary{OpSub, l, r} }

// Mul returns l*r.
func Mul(l, r Expr) Expr { return Binary{OpMul, l, r} }

// Div returns l/r (real division).
func Div(l, r Expr) Expr { return Binary{OpDiv, l, r} }

// CeilDiv returns ceil(l/r), the block size of a BLOCK distribution.
func CeilDiv(l, r Expr) Expr { return Binary{OpCeilDiv, l, r} }

// Min returns min(l,r).
func Min(l, r Expr) Expr { return Binary{OpMin, l, r} }

// Max returns max(l,r).
func Max(l, r Expr) Expr { return Binary{OpMax, l, r} }

// Eval implements Expr.
func (b Binary) Eval(env Env) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	return applyOp(b.Op, l, r)
}

// ApplyOp applies a binary operator to two values. It is shared with the
// program IR, which reuses this package's operator set.
func ApplyOp(op Op, l, r float64) (float64, error) { return applyOp(op, l, r) }

func applyOp(op Op, l, r float64) (float64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("symexpr: division by zero")
		}
		return l / r, nil
	case OpIDiv:
		if r == 0 {
			return 0, fmt.Errorf("symexpr: integer division by zero")
		}
		return math.Trunc(l / r), nil
	case OpCeilDiv:
		if r == 0 {
			return 0, fmt.Errorf("symexpr: ceildiv by zero")
		}
		return math.Ceil(l / r), nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("symexpr: mod by zero")
		}
		const lim = 1 << 53 // every integer below it in magnitude is a float64
		if li, ri := int64(l), int64(r); -lim < min(l, r) && max(l, r) < lim && float64(li) == l && float64(ri) == r {
			// Exact, as math.Mod is: the remainder takes the dividend's
			// sign, a zero one included.
			switch m := li % ri; {
			case m == 0:
				return math.Copysign(0, l), nil
			case m < 0:
				return float64(m + max(ri, -ri)), nil
			default:
				return float64(m), nil
			}
		}
		m := math.Mod(l, r)
		if m < 0 {
			m += math.Abs(r)
		}
		return m, nil
	case OpMin:
		return math.Min(l, r), nil
	case OpMax:
		return math.Max(l, r), nil
	case OpLT:
		return truth(l < r), nil
	case OpLE:
		return truth(l <= r), nil
	case OpGT:
		return truth(l > r), nil
	case OpGE:
		return truth(l >= r), nil
	case OpEQ:
		return truth(l == r), nil
	case OpNE:
		return truth(l != r), nil
	}
	return 0, fmt.Errorf("symexpr: unknown operator %d", int(op))
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (b Binary) addVars(set map[string]bool) {
	b.L.addVars(set)
	b.R.addVars(set)
}

func (b Binary) String() string {
	switch b.Op {
	case OpMin, OpMax, OpCeilDiv:
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.L, b.R)
	default:
		return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
	}
}

// Func is a unary intrinsic application (ceil, floor, abs, sqrt, log2).
type Func struct {
	Name string
	Arg  Expr
}

var unaryFuncs = map[string]func(float64) float64{
	"ceil":  math.Ceil,
	"floor": math.Floor,
	"abs":   math.Abs,
	"sqrt":  math.Sqrt,
	"log2":  math.Log2,
}

// Ceil returns ceil(e).
func Ceil(e Expr) Expr { return Func{"ceil", e} }

// Floor returns floor(e).
func Floor(e Expr) Expr { return Func{"floor", e} }

// Sqrt returns sqrt(e).
func Sqrt(e Expr) Expr { return Func{"sqrt", e} }

// Eval implements Expr.
func (f Func) Eval(env Env) (float64, error) {
	fn, ok := unaryFuncs[f.Name]
	if !ok {
		return 0, fmt.Errorf("symexpr: unknown function %q", f.Name)
	}
	v, err := f.Arg.Eval(env)
	if err != nil {
		return 0, err
	}
	return fn(v), nil
}

func (f Func) addVars(set map[string]bool) { f.Arg.addVars(set) }

func (f Func) String() string { return fmt.Sprintf("%s(%s)", f.Name, f.Arg) }

// Cond is a ternary conditional: if Test != 0 then Then else Else.
type Cond struct {
	Test, Then, Else Expr
}

// If returns the conditional expression test ? then : else.
func If(test, then, els Expr) Expr { return Cond{test, then, els} }

// Eval implements Expr.
func (c Cond) Eval(env Env) (float64, error) {
	t, err := c.Test.Eval(env)
	if err != nil {
		return 0, err
	}
	if t != 0 {
		return c.Then.Eval(env)
	}
	return c.Else.Eval(env)
}

func (c Cond) addVars(set map[string]bool) {
	c.Test.addVars(set)
	c.Then.addVars(set)
	c.Else.addVars(set)
}

func (c Cond) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", c.Test, c.Then, c.Else)
}

// Sum is a symbolic summation of Body over Index running from Lo to Hi
// inclusive. It expresses scaling functions of loops whose trip counts
// depend on the surrounding loop's index (triangular nests, wavefronts).
type Sum struct {
	Index  string
	Lo, Hi Expr
	Body   Expr
}

// SumOf returns sum_{index=lo..hi} body.
func SumOf(index string, lo, hi, body Expr) Expr {
	return Sum{Index: index, Lo: lo, Hi: hi, Body: body}
}

// Eval implements Expr.
func (s Sum) Eval(env Env) (float64, error) {
	lo, err := s.Lo.Eval(env)
	if err != nil {
		return 0, err
	}
	hi, err := s.Hi.Eval(env)
	if err != nil {
		return 0, err
	}
	loI, hiI := int64(math.Round(lo)), int64(math.Round(hi))
	if hiI < loI {
		return 0, nil
	}
	// Guard against accidental unbounded sums from malformed inputs.
	if hiI-loI > 1<<24 {
		return 0, fmt.Errorf("symexpr: sum range too large (%d..%d)", loI, hiI)
	}
	inner := env.Clone()
	var total float64
	for i := loI; i <= hiI; i++ {
		inner[s.Index] = float64(i)
		v, err := s.Body.Eval(inner)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func (s Sum) addVars(set map[string]bool) {
	s.Lo.addVars(set)
	s.Hi.addVars(set)
	body := make(map[string]bool)
	s.Body.addVars(body)
	delete(body, s.Index)
	for n := range body {
		set[n] = true
	}
}

func (s Sum) String() string {
	return fmt.Sprintf("sum(%s, %s, %s, %s)", s.Index, s.Lo, s.Hi, s.Body)
}

// Subst returns e with every free occurrence of name replaced by repl.
func Subst(e Expr, name string, repl Expr) Expr {
	switch x := e.(type) {
	case Const:
		return x
	case Var:
		if x.Name == name {
			return repl
		}
		return x
	case Binary:
		return Binary{x.Op, Subst(x.L, name, repl), Subst(x.R, name, repl)}
	case Func:
		return Func{x.Name, Subst(x.Arg, name, repl)}
	case Cond:
		return Cond{Subst(x.Test, name, repl), Subst(x.Then, name, repl), Subst(x.Else, name, repl)}
	case Sum:
		if x.Index == name {
			// The index shadows the substituted name inside the body.
			return Sum{x.Index, Subst(x.Lo, name, repl), Subst(x.Hi, name, repl), x.Body}
		}
		return Sum{x.Index, Subst(x.Lo, name, repl), Subst(x.Hi, name, repl), Subst(x.Body, name, repl)}
	}
	return e
}

// MustEval evaluates e and panics on error. For use in tests and in
// contexts where the environment is known to be complete by construction.
func MustEval(e Expr, env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// Equal reports whether two expressions are structurally identical.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}
