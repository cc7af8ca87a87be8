package check

import (
	"sort"

	"mpisim/internal/ir"
)

// passBounds checks that communication sections and array subscripts
// stay inside declared dimensions, and that messages the compiler routes
// through the shared dummy buffer actually fit it (the static analogue
// of the slicer's §3.1 buffer sizing).
//
// Two layers cooperate:
//
//   - a symbolic layer forward-substitutes uniquely-defined scalars
//     (b -> ceil(N/P), as the compiler's startup resolution does),
//     folds section-vs-dimension margins under the checked
//     configuration (ir.FoldEnv), and decides violations for all ranks at
//     once when the fold reaches a constant;
//   - a concrete layer harvests the violations the trace evaluator
//     observed while abstractly executing each rank (subscripts in
//     unrolled loops, per-rank section bounds, dummy-buffer overflow).
//
// Violations observed on a definite path are errors; those on "may"
// paths, warnings. Inconclusive symbolic margins are silent — the
// concrete layer has already checked every definite operation.
func passBounds(ctx *Context) []Diagnostic {
	var diags []Diagnostic

	// Concrete layer: per-rank observations.
	for _, h := range ctx.traces.hits {
		sev := Error
		if h.may {
			sev = Warning
		}
		d := ctx.diag("bounds", sev, ctx.plan.stmts[h.stmt], "%s", h.msg)
		d.Ranks = []int{int(h.rank)}
		diags = append(diags, d)
	}

	// Symbolic layer.
	pr := newProver(ctx)
	ir.Walk(ctx.Program.Body, func(s ir.Stmt) bool {
		var array string
		var sec []ir.Range
		switch x := s.(type) {
		case *ir.Send:
			array, sec = x.Array, x.Section
		case *ir.Recv:
			array, sec = x.Array, x.Section
		default:
			return true
		}
		decl := ctx.Program.Array(array)
		if decl == nil || len(decl.Dims) != len(sec) {
			return true // Validate already rejected this shape
		}
		for d := range sec {
			// lo >= 1
			if bad, ranks := pr.disproveNonNeg(ir.Sub(sec[d].Lo, ir.N(1))); bad {
				dg := ctx.diag("bounds", Error, s,
					"section lower bound %s of %s dimension %d is provably below 1",
					sec[d].Lo, array, d+1)
				dg.Ranks = ranks
				diags = append(diags, dg)
			}
			// hi <= dim
			if bad, ranks := pr.disproveNonNeg(ir.Sub(decl.Dims[d], sec[d].Hi)); bad {
				dg := ctx.diag("bounds", Error, s,
					"section upper bound %s of %s dimension %d provably exceeds the declared size %s",
					sec[d].Hi, array, d+1, decl.Dims[d])
				dg.Ranks = ranks
				diags = append(diags, dg)
			}
		}
		return true
	})

	// Dummy-buffer fit: every replaced message must fit the buffer the
	// compiler allocated for the simplified program.
	if ctx.Compiled != nil && ctx.Compiled.DummyElems != nil {
		stmts := make([]ir.Stmt, 0, len(ctx.Compiled.Slice.MsgElems))
		for s := range ctx.Compiled.Slice.MsgElems {
			stmts = append(stmts, s)
		}
		sort.Slice(stmts, func(i, j int) bool { return ctx.Lines[stmts[i]] < ctx.Lines[stmts[j]] })
		for _, s := range stmts {
			elems := ctx.Compiled.Slice.MsgElems[s]
			if bad, ranks := pr.disproveNonNeg(ir.Sub(ctx.Compiled.DummyElems, elems)); bad {
				dg := ctx.diag("bounds", Error, s,
					"replaced message of %s elems provably exceeds the dummy buffer (%s elems)",
					elems, ctx.Compiled.DummyElems)
				dg.Ranks = ranks
				diags = append(diags, dg)
			}
		}
	}
	return diags
}

// prover decides margin expressions under the checked configuration by
// forward substitution plus symbolic folding.
type prover struct {
	ctx  *Context
	defs map[string]ir.Expr // uniquely-defined top-level scalars
	env  map[string]float64 // inputs + P (myid is bound per query)
}

func newProver(ctx *Context) *prover {
	defs := map[string]ir.Expr{}
	multi := map[string]bool{}
	ir.Walk(ctx.Program.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.Assign); ok && !a.LHS.IsArray() {
			if _, seen := defs[a.LHS.Name]; seen {
				multi[a.LHS.Name] = true
			}
			defs[a.LHS.Name] = a.RHS
		}
		return true
	})
	for name := range multi {
		delete(defs, name)
	}
	env := map[string]float64{ir.BuiltinP: float64(ctx.Ranks)}
	for k, v := range ctx.Opts.Inputs {
		env[k] = v
	}
	return &prover{ctx: ctx, defs: defs, env: env}
}

// resolve forward-substitutes uniquely-defined scalars, mirroring the
// compiler's startup resolution.
func (pr *prover) resolve(e ir.Expr) ir.Expr {
	cur := e
	for depth := 0; depth < 10; depth++ {
		names := map[string]bool{}
		ir.ScalarsIn(cur, names, nil)
		progress := false
		for name := range names {
			if name == ir.BuiltinP || name == ir.BuiltinMyID {
				continue
			}
			if _, bound := pr.env[name]; bound {
				continue
			}
			if rhs, ok := pr.defs[name]; ok && !ir.HasArrayRef(rhs) {
				cur = ir.SubstScalar(cur, name, rhs)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return cur
}

// disproveNonNeg reports whether the margin expression is provably
// negative for at least one rank under the checked configuration, with
// the violating ranks as witnesses. Inconclusive folds report false: the
// symbolic layer never flags what it cannot decide.
func (pr *prover) disproveNonNeg(margin ir.Expr) (bool, []int) {
	m := pr.resolve(ir.Simplify(margin))
	if ir.HasArrayRef(m) {
		return false, nil
	}
	// Fold the configuration in once; only myid is left to bind per rank.
	m = ir.FoldEnv(m, pr.env)
	if c, ok := m.(ir.Num); ok {
		if c.Value < 0 {
			return true, nil // violated independently of the rank
		}
		return false, nil
	}
	// Rank-dependent: decide per rank, by evaluation when myid is the only
	// variable left; the fold (a tree rebuilt per rank) otherwise.
	var witnesses []int
	env := map[string]float64{}
	free := map[string]bool{}
	ir.ScalarsIn(m, free, nil)
	onlyMyID := len(free) == 1 && free[ir.BuiltinMyID]
	for r := 0; r < pr.ctx.Ranks; r++ {
		env[ir.BuiltinMyID] = float64(r)
		v, err := ir.Eval(m, env)
		if !onlyMyID || err != nil {
			c, ok := ir.FoldEnv(m, env).(ir.Num)
			if !ok {
				return false, nil // inconclusive for some rank: stay silent
			}
			v = c.Value
		}
		if v < 0 {
			witnesses = append(witnesses, r)
			if len(witnesses) >= 4 {
				break
			}
		}
	}
	return len(witnesses) > 0, witnesses
}
