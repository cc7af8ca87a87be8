package check

import (
	"slices"
	"strings"

	"mpisim/internal/ir"
	"mpisim/internal/symexpr"
)

// The plan is everything the trace evaluator needs that depends on the
// program text alone, compiled by one walk of the IR per Run: every
// scalar resolved to an environment slot and every array to an id, every
// statement numbered, and per control node the facts the evaluator used
// to re-derive on each visit of each rank — whether the body
// communicates, whether it defines a structure-relevant variable, and
// what skipping it invalidates. The per-rank path then touches no name,
// no map and no ir.Walk.
type plan struct {
	// stmts is the statement table: op.stmt and boundsHit.stmt index it.
	// Entry 0 is nil, "no statement".
	stmts  []ir.Stmt
	arrays []*ir.ArrayDecl
	dims   [][]*pexpr
	body   []pstmt
	// keys are the interned collective keys; op.key of a collective
	// indexes it, so equal keys are equal ids.
	keys   []string
	keyIDs map[string]int32
	// tags are the interned message tags op.key of a send or receive
	// indexes.
	tags []int
	// init is the start environment (P and the bound inputs; myid is set
	// per rank), unbound the parameters it lacks.
	init    []val
	unbound []string
	myid    int32
	// dummy is the compiler's dummy-buffer size (nil without one).
	dummy *pexpr
}

type exprKind uint8

const (
	eUnknown exprKind = iota
	eNum
	eScalar
	eIdx
	eBin
	eCall
	eSum
)

// pexpr is a compiled ir.Expr. slot is the scalar's (eScalar) or the
// summation index's (eSum) environment slot, or the array id (eIdx);
// l and r hold the operands of eBin, the argument of eCall (l) and the
// bounds of eSum.
type pexpr struct {
	kind exprKind
	// sum: the expression holds a summation.
	sum   bool
	op    symexpr.Op
	slot  int32
	v     float64
	fn    func(float64) float64
	l, r  *pexpr
	body  *pexpr
	index []*pexpr
}

type stmtKind uint8

const (
	sNop  stmtKind = iota
	sColl          // Allreduce, Barrier, ReadTaskTimes: vars become unknown, key is emitted
	sAssign
	sStore
	sReadInput
	sFor
	sIf
	sSend
	sRecv
	sBcast
	sDelay
	sTimed
)

type prange struct{ lo, hi *pexpr }

// pstmt is a compiled statement. slot is a scalar slot (sAssign, sFor,
// sReadInput) or an array id (sStore, sSend, sRecv); e and e2 hold the
// statement's expressions (RHS; loop bounds; condition; peer; root;
// seconds).
type pstmt struct {
	kind  stmtKind
	id    int32
	slot  int32
	e, e2 *pexpr
	index []*pexpr
	sec   []prange
	body  []pstmt
	els   []pstmt
	// vars are the scalar slots a collective overwrites.
	vars []int32
	// key is the interned collective key, or a send's or receive's
	// interned tag; bcast keys depend on the root and are interned as
	// they are met, from suffix.
	key    int32
	suffix string
	// input is what a ReadInput binds.
	input val
	// replaced marks a message the slicer routes through the dummy buffer.
	replaced bool
	// taskTimes marks a ReadTaskTimes.
	taskTimes bool
	// Static facts of a For or If: the body communicates; the statement
	// or its body defines a structure-relevant variable; the scalars and
	// arrays that skipping (or approximating) it invalidates.
	hasComm, structural bool
	killScalars         []int32
	killArrays          []int32
}

type planner struct {
	*plan
	ctx        *Context
	slots      map[string]int32
	arrayIDs   map[string]int32
	structural map[string]bool
	tagIDs     map[int]int32
}

func compilePlan(ctx *Context) *plan {
	c := &planner{
		plan:       &plan{stmts: []ir.Stmt{nil}, arrays: ctx.Program.Arrays, keyIDs: map[string]int32{}},
		ctx:        ctx,
		slots:      map[string]int32{},
		arrayIDs:   map[string]int32{},
		structural: structuralVars(ctx.Program, ctx.Graph),
		tagIDs:     map[int]int32{},
	}
	p := c.slot(ir.BuiltinP)
	c.myid = c.slot(ir.BuiltinMyID)
	for _, par := range ctx.Program.Params {
		c.slot(par)
	}
	for i, d := range c.arrays {
		c.arrayIDs[d.Name] = int32(i)
	}
	for _, d := range c.arrays {
		c.dims = append(c.dims, mapSlice(d.Dims, c.expr))
	}
	if ctx.Compiled != nil && ctx.Compiled.DummyElems != nil {
		c.dummy = c.expr(ctx.Compiled.DummyElems)
	}
	c.body = c.block(ctx.Program.Body)
	c.init = make([]val, len(c.slots))
	c.init[p] = known(float64(ctx.Ranks), true)
	for _, par := range ctx.Program.Params {
		if v, ok := ctx.Opts.Inputs[par]; ok {
			c.init[c.slot(par)] = known(v, true)
		} else {
			c.unbound = append(c.unbound, par)
		}
	}
	return c.plan
}

func (c *planner) slot(name string) int32 {
	s, ok := c.slots[name]
	if !ok {
		s = int32(len(c.slots))
		c.slots[name] = s
	}
	return s
}

// mapSlice compiles a slice element by element.
func mapSlice[T, U any](in []T, f func(T) U) []U {
	out := make([]U, len(in))
	for i, x := range in {
		out[i] = f(x)
	}
	return out
}

func (pl *plan) internKey(key string) int32 {
	id, ok := pl.keyIDs[key]
	if !ok {
		id = int32(len(pl.keys))
		pl.keys = append(pl.keys, key)
		pl.keyIDs[key] = id
	}
	return id
}

func (c *planner) expr(e ir.Expr) *pexpr {
	p := c.node(e)
	p.sum = p.kind == eSum || p.l != nil && p.l.sum || p.r != nil && p.r.sum ||
		slices.ContainsFunc(p.index, func(i *pexpr) bool { return i.sum })
	return p
}

func (c *planner) node(e ir.Expr) *pexpr {
	switch x := e.(type) {
	case ir.Num:
		return &pexpr{kind: eNum, v: x.Value}
	case ir.Scalar:
		return &pexpr{kind: eScalar, slot: c.slot(x.Name)}
	case ir.Idx:
		return &pexpr{kind: eIdx, slot: c.arrayIDs[x.Array], index: mapSlice(x.Index, c.expr)}
	case ir.Bin:
		return &pexpr{kind: eBin, op: x.Op, l: c.expr(x.L), r: c.expr(x.R)}
	case ir.Call:
		return &pexpr{kind: eCall, fn: ir.Intrinsics[x.Name], l: c.expr(x.Arg)}
	case ir.SumE:
		return &pexpr{kind: eSum, slot: c.slot(x.Index), l: c.expr(x.Lo), r: c.expr(x.Hi), body: c.expr(x.Body)}
	}
	return &pexpr{kind: eUnknown}
}

func (c *planner) block(body []ir.Stmt) []pstmt { return mapSlice(body, c.stmt) }

func (c *planner) stmt(s ir.Stmt) pstmt {
	ps := pstmt{id: int32(len(c.stmts)), key: -1}
	c.stmts = append(c.stmts, s)
	switch x := s.(type) {
	case *ir.Assign:
		ps.e = c.expr(x.RHS)
		if x.LHS.IsArray() {
			ps.kind, ps.slot, ps.index = sStore, c.arrayIDs[x.LHS.Name], mapSlice(x.LHS.Index, c.expr)
		} else {
			ps.kind, ps.slot = sAssign, c.slot(x.LHS.Name)
		}
	case *ir.ReadInput:
		ps.kind, ps.slot = sReadInput, c.slot(x.Var)
		if v, ok := c.ctx.Opts.Inputs[x.Var]; ok {
			ps.input = known(v, true)
		}
	case *ir.For:
		ps.kind, ps.slot, ps.e, ps.e2 = sFor, c.slot(x.Var), c.expr(x.Lo), c.expr(x.Hi)
		ps.hasComm = ir.HasComm(x.Body)
		c.facts(&ps, s)
		ps.body = c.block(x.Body)
	case *ir.If:
		ps.kind, ps.e = sIf, c.expr(x.Cond)
		c.facts(&ps, s)
		ps.body, ps.els = c.block(x.Then), c.block(x.Else)
	case *ir.Send:
		ps.kind, ps.e = sSend, c.expr(x.Dest)
		c.comm(&ps, s, x.Tag, x.Array, x.Section)
	case *ir.Recv:
		ps.kind, ps.e = sRecv, c.expr(x.Src)
		c.comm(&ps, s, x.Tag, x.Array, x.Section)
	case *ir.Allreduce:
		ps.kind, ps.vars = sColl, mapSlice(x.Vars, c.slot)
		ps.key = c.internKey("ALLREDUCE(" + x.Op + ") " + strings.Join(x.Vars, ", "))
	case *ir.Bcast:
		ps.kind, ps.e, ps.vars = sBcast, c.expr(x.Root), mapSlice(x.Vars, c.slot)
		ps.suffix = ": " + strings.Join(x.Vars, ", ")
	case *ir.Barrier:
		ps.kind, ps.key = sColl, c.internKey("BARRIER")
	case *ir.Delay:
		ps.kind, ps.e = sDelay, c.expr(x.Seconds)
	case *ir.Timed:
		ps.kind, ps.body = sTimed, c.block(x.Body)
	case *ir.ReadTaskTimes:
		// Runtime preamble: rank 0 reads the calibration table and
		// broadcasts. Values are external, hence unknown; the operation
		// itself synchronizes like a collective.
		ps.kind, ps.vars, ps.taskTimes = sColl, mapSlice(x.Names, c.slot), true
		ps.key = c.internKey("READ_TASK_TIMES " + strings.Join(x.Names, ", "))
	}
	return ps
}

func (c *planner) comm(ps *pstmt, s ir.Stmt, tag int, array string, sec []ir.Range) {
	id, ok := c.tagIDs[tag]
	if !ok {
		id = int32(len(c.tags))
		c.tags = append(c.tags, tag)
		c.tagIDs[tag] = id
	}
	ps.key, ps.slot = id, c.arrayIDs[array]
	ps.sec = mapSlice(sec, func(rg ir.Range) prange { return prange{c.expr(rg.Lo), c.expr(rg.Hi)} })
	if c.ctx.Compiled != nil {
		_, ps.replaced = c.ctx.Compiled.Slice.MsgElems[s]
	}
}

// facts records what a For or If (including nested bodies) defines: the
// kill list, and whether any definition is structure-relevant.
func (c *planner) facts(ps *pstmt, s ir.Stmt) {
	seen := map[string]bool{}
	ir.Walk([]ir.Stmt{s}, func(st ir.Stmt) bool {
		for d := range ir.StmtDefUse(st).Defs {
			if seen[d] {
				continue
			}
			seen[d] = true
			if c.structural[d] {
				ps.structural = true
			}
			if id, isArray := c.arrayIDs[d]; isArray {
				ps.killArrays = append(ps.killArrays, id)
			} else {
				ps.killScalars = append(ps.killScalars, c.slot(d))
			}
		}
		return true
	})
}
