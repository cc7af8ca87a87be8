package ir

import (
	"math"

	"mpisim/internal/symexpr"
)

// Simplify folds constants and applies algebraic identities to a runtime
// expression, including collapsing index-independent summations to closed
// form. The compiler applies it to every synthesized scaling function so
// that evaluating a Delay argument is O(depth) instead of O(iterations).
func Simplify(e Expr) Expr {
	switch x := e.(type) {
	case Num, Scalar:
		return e
	case Idx:
		idx := make([]Expr, len(x.Index))
		for i, sub := range x.Index {
			idx[i] = Simplify(sub)
		}
		return Idx{x.Array, idx}
	case Bin:
		return simplifyBin(Bin{x.Op, Simplify(x.L), Simplify(x.R)})
	case Call:
		arg := Simplify(x.Arg)
		if c, ok := arg.(Num); ok {
			if fn, known := Intrinsics[x.Name]; known {
				return Num{fn(c.Value)}
			}
		}
		return Call{x.Name, arg}
	case SumE:
		lo, hi, body := Simplify(x.Lo), Simplify(x.Hi), Simplify(x.Body)
		free := map[string]bool{}
		ScalarsIn(body, free, free)
		if !free[x.Index] {
			// sum_{i=lo..hi} c  ->  c * max(0, hi-lo+1); a NaN bound
			// makes no trips, as the loop it counts.
			count := Simplify(MaxE(N(0), Add(Sub(hi, lo), N(1))))
			if c, ok := count.(Num); ok && math.IsNaN(c.Value) {
				count = N(0)
			}
			return simplifyBin(Bin{OpMul, body, count})
		}
		return SumE{x.Index, lo, hi, body}
	}
	return e
}

func simplifyBin(b Bin) Expr {
	lc, lIsC := b.L.(Num)
	rc, rIsC := b.R.(Num)
	if lIsC && rIsC {
		if v, err := symexpr.ApplyOp(b.Op, lc.Value, rc.Value); err == nil {
			return Num{v}
		}
		return b
	}
	switch b.Op {
	case OpAdd:
		if lIsC && lc.Value == 0 {
			return b.R
		}
		if rIsC && rc.Value == 0 {
			return b.L
		}
		// Reassociate (x - c1) + c2 and (x + c1) + c2 so trip-count
		// expressions like (n-1)+1 fold away.
		if rIsC {
			if lb, ok := b.L.(Bin); ok {
				if inner, ok := lb.R.(Num); ok {
					switch lb.Op {
					case OpSub:
						return simplifyBin(Bin{OpAdd, lb.L, Num{rc.Value - inner.Value}})
					case OpAdd:
						return simplifyBin(Bin{OpAdd, lb.L, Num{rc.Value + inner.Value}})
					}
				}
			}
		}
	case OpSub:
		if rIsC && rc.Value == 0 {
			return b.L
		}
		if b.L.String() == b.R.String() {
			return Num{0}
		}
	case OpMul:
		if lIsC {
			if lc.Value == 0 {
				return Num{0}
			}
			if lc.Value == 1 {
				return b.R
			}
		}
		if rIsC {
			if rc.Value == 0 {
				return Num{0}
			}
			if rc.Value == 1 {
				return b.L
			}
		}
	case OpDiv, OpIDiv, OpCeilDiv:
		if rIsC && rc.Value == 1 {
			return b.L
		}
	}
	return b
}

// SubstScalar replaces every free occurrence of a scalar by repl.
func SubstScalar(e Expr, name string, repl Expr) Expr {
	switch x := e.(type) {
	case Num:
		return x
	case Scalar:
		if x.Name == name {
			return repl
		}
		return x
	case Idx:
		idx := make([]Expr, len(x.Index))
		for i, sub := range x.Index {
			idx[i] = SubstScalar(sub, name, repl)
		}
		return Idx{x.Array, idx}
	case Bin:
		return Bin{x.Op, SubstScalar(x.L, name, repl), SubstScalar(x.R, name, repl)}
	case Call:
		return Call{x.Name, SubstScalar(x.Arg, name, repl)}
	case SumE:
		lo := SubstScalar(x.Lo, name, repl)
		hi := SubstScalar(x.Hi, name, repl)
		body := x.Body
		if x.Index != name {
			body = SubstScalar(body, name, repl)
		}
		return SumE{x.Index, lo, hi, body}
	}
	return e
}

// FoldEnv partially evaluates e: each scalar that env binds to a number
// is replaced by it (a NaN binding leaves the scalar free), then the
// result is simplified.
// What env does not bind stays symbolic — a scaling function over
// (N, P, myid, w_1) specialized to a configuration, symbolic in myid.
func FoldEnv(e Expr, env map[string]float64) Expr {
	for name, v := range env {
		if !math.IsNaN(v) {
			e = SubstScalar(e, name, Num{v})
		}
	}
	return Simplify(e)
}
