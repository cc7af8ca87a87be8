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

// IsComparison reports whether the operator yields a 0/1 truth value.
func (o Op) IsComparison() bool { return o >= OpLT }

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
