// Package symexpr is the operator set of the simulator's expression
// language: the binary operators of ir.Expr (the compiler's scaling
// functions, the programs' arithmetic) and ApplyOp, the one arithmetic
// the interpreter, the static verifier and ir's evaluator and simplifier
// share. Its fault texts ("symexpr: division by zero", ...) are the
// interpreter's.
package symexpr

import (
	"fmt"
	"math"
)

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

// ApplyOp applies a binary operator to two values. Comparison operators
// yield 1 (true) or 0 (false), so they compose with arithmetic (statistical
// branch folding multiplies a body cost by a probability expression).
func ApplyOp(op Op, l, r float64) (float64, error) {
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
		return Mod(l, r), nil
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

// Mod is mod(l, r) for a nonzero r: l's remainder by |r|, in [0, |r|),
// a zero one taking l's sign (mod(-4, 2) is -0), bit for bit math.Mod's
// with the non-negative fixup. Integers below 2^52 in magnitude take a
// float path that needs neither math.Mod (a software frexp/ldexp loop)
// nor a 64-bit integer division: l/|r| lies at least 1/|r| from an
// integer it is not, and rounding moves it by at most |l/r|·2^-53, less,
// so q = floor(l/|r|) is exact, and q·|r| and l − q·|r| are integers
// below 2^53.
func Mod(l, r float64) float64 {
	const lim = 1 << 52
	if a := math.Abs(r); math.Abs(l) < lim && a < lim && l == math.Trunc(l) && r == math.Trunc(r) {
		m := l - math.Floor(l/a)*a
		if m == 0 {
			return math.Copysign(0, l)
		}
		return m
	}
	m := math.Mod(l, r)
	if m < 0 {
		m += math.Abs(r)
	}
	return m
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
