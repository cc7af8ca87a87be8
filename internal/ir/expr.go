// Package ir defines the program representation that stands in for the
// Fortran/HPF + MPI source programs of the paper. The dhpf analyses the
// paper relies on — static task graph synthesis, condensation, program
// slicing, symbolic scaling functions — operate on compiler IR rather
// than on surface syntax, so this package carries exactly the information
// those analyses consume: declarations with symbolic dimensions,
// structured control flow, explicit message-passing statements, and full
// definition/use information.
//
// Programs are per-rank SPMD: every rank executes the same body with the
// built-in scalars P (number of ranks) and myid (own rank) bound, exactly
// like the example MPI code of the paper's Figure 1.
package ir

import (
	"fmt"
	"maps"
	"math"
	"strings"

	"mpisim/internal/symexpr"
)

// Op re-exports symexpr's operator set; symexpr.ApplyOp is its one
// arithmetic, shared by Eval, Simplify, the interpreter and the verifier.
type Op = symexpr.Op

// Re-exported operators for readability in program definitions.
const (
	OpAdd     = symexpr.OpAdd
	OpSub     = symexpr.OpSub
	OpMul     = symexpr.OpMul
	OpDiv     = symexpr.OpDiv
	OpIDiv    = symexpr.OpIDiv
	OpCeilDiv = symexpr.OpCeilDiv
	OpMod     = symexpr.OpMod
	OpMin     = symexpr.OpMin
	OpMax     = symexpr.OpMax
	OpLT      = symexpr.OpLT
	OpLE      = symexpr.OpLE
	OpGT      = symexpr.OpGT
	OpGE      = symexpr.OpGE
	OpEQ      = symexpr.OpEQ
	OpNE      = symexpr.OpNE
)

// Expr is a runtime expression: scalar arithmetic plus array element
// references and bounded summations.
type Expr interface {
	exprNode()
	String() string
}

// Num is a numeric literal.
type Num struct{ Value float64 }

func (Num) exprNode() {}

// String implements Expr.
func (n Num) String() string {
	if n.Value == math.Trunc(n.Value) && math.Abs(n.Value) < 1e15 {
		return fmt.Sprintf("%d", int64(n.Value))
	}
	return fmt.Sprintf("%g", n.Value)
}

// Scalar references a scalar variable (program input, induction variable,
// computed scalar, or a w_i task-time parameter).
type Scalar struct{ Name string }

func (Scalar) exprNode() {}

// String implements Expr.
func (s Scalar) String() string { return s.Name }

// Idx references an array element: Array[Index0][Index1]... Indexing is
// 1-based in each dimension, following the Fortran heritage of the
// benchmarks.
type Idx struct {
	Array string
	Index []Expr
}

func (Idx) exprNode() {}

// String implements Expr.
func (x Idx) String() string {
	parts := make([]string, len(x.Index))
	for i, e := range x.Index {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(%s)", x.Array, strings.Join(parts, ", "))
}

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
}

func (Bin) exprNode() {}

// String implements Expr.
func (b Bin) String() string {
	switch b.Op {
	case OpMin, OpMax, OpCeilDiv:
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.L, b.R)
	default:
		return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
	}
}

// Call applies a unary intrinsic: ceil, floor, abs, sqrt, log2, exp, sin.
type Call struct {
	Name string
	Arg  Expr
}

func (Call) exprNode() {}

// String implements Expr.
func (c Call) String() string { return fmt.Sprintf("%s(%s)", c.Name, c.Arg) }

// Intrinsics maps intrinsic names to implementations.
var Intrinsics = map[string]func(float64) float64{
	"ceil":  math.Ceil,
	"floor": math.Floor,
	"abs":   math.Abs,
	"sqrt":  math.Sqrt,
	"log2":  math.Log2,
	"exp":   math.Exp,
	"sin":   math.Sin,
	"cos":   math.Cos,
}

// SumE is a bounded summation sum_{Index=Lo..Hi} Body. It appears in
// compiler-synthesized scaling functions (triangular iteration spaces)
// and is simplified to closed form when the body is index-independent.
type SumE struct {
	Index  string
	Lo, Hi Expr
	Body   Expr
}

func (SumE) exprNode() {}

// String implements Expr.
func (s SumE) String() string {
	return fmt.Sprintf("sum(%s, %s, %s, %s)", s.Index, s.Lo, s.Hi, s.Body)
}

// Convenience constructors, used heavily by the benchmark definitions.

// N returns a numeric literal.
func N(v float64) Num { return Num{v} }

// S returns a scalar reference.
func S(name string) Scalar { return Scalar{name} }

// At returns an array element reference.
func At(array string, idx ...Expr) Idx { return Idx{array, idx} }

// Add returns l+r.
func Add(l, r Expr) Expr { return Bin{OpAdd, l, r} }

// AddN sums all terms left to right (at least one).
func AddN(terms ...Expr) Expr {
	e := terms[0]
	for _, t := range terms[1:] {
		e = Add(e, t)
	}
	return e
}

// Sub returns l-r.
func Sub(l, r Expr) Expr { return Bin{OpSub, l, r} }

// Mul returns l*r.
func Mul(l, r Expr) Expr { return Bin{OpMul, l, r} }

// MulN multiplies all factors left to right (at least one).
func MulN(factors ...Expr) Expr {
	e := factors[0]
	for _, f := range factors[1:] {
		e = Mul(e, f)
	}
	return e
}

// Div returns l/r.
func Div(l, r Expr) Expr { return Bin{OpDiv, l, r} }

// CeilDiv returns ceil(l/r).
func CeilDiv(l, r Expr) Expr { return Bin{OpCeilDiv, l, r} }

// Mod returns l mod r (Euclidean).
func Mod(l, r Expr) Expr { return Bin{OpMod, l, r} }

// MinE returns min(l,r).
func MinE(l, r Expr) Expr { return Bin{OpMin, l, r} }

// MaxE returns max(l,r).
func MaxE(l, r Expr) Expr { return Bin{OpMax, l, r} }

// LT returns the 0/1 truth value of l<r.
func LT(l, r Expr) Expr { return Bin{OpLT, l, r} }

// LE returns the 0/1 truth value of l<=r.
func LE(l, r Expr) Expr { return Bin{OpLE, l, r} }

// GT returns the 0/1 truth value of l>r.
func GT(l, r Expr) Expr { return Bin{OpGT, l, r} }

// GE returns the 0/1 truth value of l>=r.
func GE(l, r Expr) Expr { return Bin{OpGE, l, r} }

// EQ returns the 0/1 truth value of l==r.
func EQ(l, r Expr) Expr { return Bin{OpEQ, l, r} }

// NE returns the 0/1 truth value of l!=r.
func NE(l, r Expr) Expr { return Bin{OpNE, l, r} }

// Sqrt returns sqrt(e).
func Sqrt(e Expr) Expr { return Call{"sqrt", e} }

// Abs returns abs(e).
func Abs(e Expr) Expr { return Call{"abs", e} }

// OpCount returns the abstract operation count charged for one
// evaluation of e: the unit in which machine.Model.OpTime is expressed.
// Array references cost an extra unit (address computation + load).
func OpCount(e Expr) float64 {
	switch x := e.(type) {
	case Num, Scalar:
		return 0
	case Idx:
		c := 1.0
		for _, i := range x.Index {
			c += OpCount(i)
		}
		return c
	case Bin:
		return 1 + OpCount(x.L) + OpCount(x.R)
	case Call:
		return 2 + OpCount(x.Arg)
	case SumE:
		// Charged dynamically when evaluated; static cost is the bounds.
		return 1 + OpCount(x.Lo) + OpCount(x.Hi)
	}
	return 0
}

// Inspect calls fn on e and, while fn returns true, on its operands in
// evaluation order: an element's subscripts, a call's argument, a sum's
// bounds and body.
func Inspect(e Expr, fn func(Expr) bool) {
	if !fn(e) {
		return
	}
	switch x := e.(type) {
	case Idx:
		for _, i := range x.Index {
			Inspect(i, fn)
		}
	case Bin:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case Call:
		Inspect(x.Arg, fn)
	case SumE:
		Inspect(x.Lo, fn)
		Inspect(x.Hi, fn)
		Inspect(x.Body, fn)
	}
}

// ScalarsIn adds every scalar name referenced by e to set, and every
// array name to arrays (either may be nil).
func ScalarsIn(e Expr, set map[string]bool, arrays map[string]bool) {
	switch x := e.(type) {
	case Num:
	case Scalar:
		if set != nil {
			set[x.Name] = true
		}
	case Idx:
		if arrays != nil {
			arrays[x.Array] = true
		}
		for _, i := range x.Index {
			ScalarsIn(i, set, arrays)
		}
	case Bin:
		ScalarsIn(x.L, set, arrays)
		ScalarsIn(x.R, set, arrays)
	case Call:
		ScalarsIn(x.Arg, set, arrays)
	case SumE:
		ScalarsIn(x.Lo, set, arrays)
		ScalarsIn(x.Hi, set, arrays)
		inner := map[string]bool{}
		ScalarsIn(x.Body, inner, arrays)
		delete(inner, x.Index)
		if set != nil {
			for n := range inner {
				set[n] = true
			}
		}
	}
}

// HasArrayRef reports whether e references any array element.
func HasArrayRef(e Expr) bool {
	arrays := map[string]bool{}
	ScalarsIn(e, nil, arrays)
	return len(arrays) > 0
}

// Eval evaluates a scalar expression under env, which binds the free
// scalars (inputs, P, myid, w_i). Operators are symexpr.ApplyOp's,
// intrinsics the Intrinsics table's. A sum binds its index, rounded
// bounds apart, in a copy of env and is 0 when empty. Eval fails on an
// unbound scalar, an array reference, an unknown intrinsic, an
// operator's fault or a sum of more than 2^24 terms.
func Eval(e Expr, env map[string]float64) (float64, error) {
	switch x := e.(type) {
	case Num:
		return x.Value, nil
	case Scalar:
		if v, ok := env[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("ir: unbound variable %q", x.Name)
	case Bin:
		l, err := Eval(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return 0, err
		}
		return symexpr.ApplyOp(x.Op, l, r)
	case Call:
		fn, ok := Intrinsics[x.Name]
		if !ok {
			return 0, fmt.Errorf("ir: unknown function %q", x.Name)
		}
		v, err := Eval(x.Arg, env)
		if err != nil {
			return 0, err
		}
		return fn(v), nil
	case SumE:
		lo, err := Eval(x.Lo, env)
		if err != nil {
			return 0, err
		}
		hi, err := Eval(x.Hi, env)
		if err != nil {
			return 0, err
		}
		loI, hiI := int64(math.Round(lo)), int64(math.Round(hi))
		if math.IsNaN(lo) || math.IsNaN(hi) || hiI < loI {
			return 0, nil
		}
		if hiI-loI > 1<<24 {
			return 0, fmt.Errorf("ir: sum range too large (%d..%d)", loI, hiI)
		}
		inner := make(map[string]float64, len(env)+1)
		maps.Copy(inner, env)
		var total float64
		for i := loI; i <= hiI; i++ {
			inner[x.Index] = float64(i)
			v, err := Eval(x.Body, inner)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	case Idx:
		return 0, fmt.Errorf("ir: array reference %s has no value here", x)
	}
	return 0, fmt.Errorf("ir: unknown expression %T", e)
}
