package ir

import "math"

// An Interval is the closed range of values [Lo, Hi].
type Interval struct{ Lo, Hi float64 }

// A Span is an expression compiled to bound the values it takes while
// each register r holds regs[r] and each scalar of interval v ranges over
// vars[v]; ok is false when a mod's operand is not finite below 2^53.
// Rounding is monotone, so the bounds also hold for the values computed
// in floating point.
type Span func(regs []float64, vars []Interval) (v Interval, ok bool)

// SpanReg is the Span of a scalar held in register r.
func SpanReg(r int32) Span {
	return func(regs []float64, _ []Interval) (Interval, bool) { return Interval{regs[r], regs[r]}, true }
}

// SpanVar is the Span of a scalar ranging over the interval v.
func SpanVar(v int32) Span {
	return func(_ []float64, vars []Interval) (Interval, bool) { return vars[v], true }
}

// CompileSpan compiles e, literals and scalars under + - *, min, max and
// mod by a positive literal, leaf giving each scalar's Span (false: it
// cannot be bounded) and integral whether every value of an expression is
// an integer (mod by a whole m then stays below m).
func CompileSpan(e Expr, leaf func(name string) (Span, bool), integral func(Expr) bool) (Span, bool) {
	switch x := e.(type) {
	case Num:
		return func([]float64, []Interval) (Interval, bool) { return Interval{x.Value, x.Value}, true }, true
	case Scalar:
		return leaf(x.Name)
	case Bin:
		l, lok := CompileSpan(x.L, leaf, integral)
		r, rok := CompileSpan(x.R, leaf, integral)
		if !lok || !rok {
			return nil, false
		}
		var op func(a, b Interval) Interval
		switch x.Op {
		case OpAdd:
			op = func(a, b Interval) Interval { return Interval{a.Lo + b.Lo, a.Hi + b.Hi} }
		case OpSub:
			op = func(a, b Interval) Interval { return Interval{a.Lo - b.Hi, a.Hi - b.Lo} }
		case OpMul:
			op = func(a, b Interval) Interval {
				p, q, r, s := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
				return Interval{min(p, q, r, s), max(p, q, r, s)}
			}
		case OpMin:
			op = func(a, b Interval) Interval { return Interval{min(a.Lo, b.Lo), min(a.Hi, b.Hi)} }
		case OpMax:
			op = func(a, b Interval) Interval { return Interval{max(a.Lo, b.Lo), max(a.Hi, b.Hi)} }
		case OpMod: // [0, m] of a finite operand, [0, m-1] of an integer by a whole m
			m, lit := x.R.(Num)
			if !lit || !(m.Value > 0) {
				return nil, false
			}
			top := m.Value
			if top == math.Trunc(top) && integral(x.L) {
				top--
			}
			return func(regs []float64, vars []Interval) (Interval, bool) {
				a, ok := l(regs, vars)
				return Interval{0, top}, ok && -(1<<53) < a.Lo && a.Hi < 1<<53
			}, true
		default:
			return nil, false
		}
		return func(regs []float64, vars []Interval) (Interval, bool) {
			a, aok := l(regs, vars)
			b, bok := r(regs, vars)
			return op(a, b), aok && bok
		}, true
	}
	return nil, false
}
