// Package slicer implements the program slicing of paper §3.2: given the
// condensed static task graph, it isolates the subset of the computation
// and data that can affect the program's parallel behaviour — retained
// control flow, communication arguments, and the scaling functions of
// condensed tasks — so that everything else can be abstracted away.
//
// The slice is conservative and operates at variable-name granularity
// (arrays as wholes), matching the paper's setting of limited
// interprocedural precision: "the subset has to be conservative, limited
// by the precision of static program analysis, and therefore may not be
// minimal".
package slicer

import (
	"sort"

	"mpisim/internal/ir"
	"mpisim/internal/stg"
)

// Slice is the result of slicing a program against its condensed graph.
type Slice struct {
	// Relevant is the set of variable names (scalars and arrays) whose
	// values can affect parallel behaviour.
	Relevant map[string]bool
	// Retained marks original statements that must be executed by the
	// simplified program because they (transitively) define relevant
	// variables. Control statements are marked when any descendant is.
	Retained map[ir.Stmt]bool
	// DummyArrays are arrays that appear only as communication payloads
	// and may be replaced by the shared dummy buffer.
	DummyArrays map[string]bool
	// KeptArrays are declared arrays the simplified program must keep
	// (they are relevant, e.g. the NAS SP grid-size arrays used in loop
	// bounds).
	KeptArrays map[string]bool
	// MsgElems maps each communication statement whose array is replaced
	// by the dummy buffer to the element-count expression of its section.
	MsgElems map[ir.Stmt]ir.Expr
}

// Run computes the slice of p with respect to its condensed graph cg.
func Run(p *ir.Program, cg *stg.Graph) (*Slice, error) {
	s := &Slice{
		Relevant:    map[string]bool{},
		Retained:    map[ir.Stmt]bool{},
		DummyArrays: map[string]bool{},
		KeptArrays:  map[string]bool{},
		MsgElems:    map[ir.Stmt]ir.Expr{},
	}
	s.seed(cg)
	s.fixpoint(p)
	s.classifyArrays(p, cg)
	return s, nil
}

// addExpr adds every scalar and array referenced by e to the relevant
// set.
func (s *Slice) addExpr(e ir.Expr) {
	if e == nil {
		return
	}
	ir.ScalarsIn(e, s.Relevant, s.Relevant)
}

// seed initializes the relevant set from the condensed graph: retained
// control flow, communication arguments, and scaling functions.
func (s *Slice) seed(cg *stg.Graph) {
	var rec func(ns []*stg.Node)
	rec = func(ns []*stg.Node) {
		for _, n := range ns {
			switch n.Kind {
			case stg.KindLoop:
				f := n.Stmts[0].(*ir.For)
				s.addExpr(f.Lo)
				s.addExpr(f.Hi)
				rec(n.Children)
			case stg.KindBranch:
				br := n.Stmts[0].(*ir.If)
				s.addExpr(br.Cond)
				rec(n.Then)
				rec(n.Else)
			case stg.KindComm:
				s.commArgs(n.Stmts[0])
			case stg.KindCondensed:
				// Scaling-function variables must be computable at
				// simulation time (w_i parameters are bound separately).
				s.addExpr(n.Units)
			}
		}
	}
	rec(cg.Roots)
}

// Observed returns the names a run of p can observe through its clocks,
// branches, messages and faults, at the slice's granularity: every loop
// bound and branch condition, every communication argument, every timed
// region's units and delay's seconds, every subscript (a subscript can
// fault), and the reads and the target of an assignment that may fault: one
// holding a division, idiv, ceildiv or mod whose right operand is not a
// nonzero literal, or a sum. Closed like the slice. An assignment to a
// name outside the set changes nothing such a run can see, so a
// calibration run need not compute it, only charge it and check its
// subscripts.
func Observed(p *ir.Program) map[string]bool {
	s := &Slice{Relevant: map[string]bool{}, Retained: map[ir.Stmt]bool{}}
	ir.Walk(p.Body, func(st ir.Stmt) bool {
		switch x := st.(type) {
		case *ir.Assign:
			faults := false
			for _, i := range x.LHS.Index {
				s.addExpr(i)
			}
			ir.Inspect(x.RHS, func(e ir.Expr) bool {
				switch y := e.(type) {
				case ir.Idx: // its subscripts' own faults are checked anyway
					for _, i := range y.Index {
						s.addExpr(i)
					}
					return false
				case ir.Bin:
					n, lit := y.R.(ir.Num)
					faults = faults || (y.Op == ir.OpDiv || y.Op == ir.OpIDiv || y.Op == ir.OpCeilDiv || y.Op == ir.OpMod) && (!lit || n.Value == 0)
				case ir.SumE:
					faults = true
				}
				return true
			})
			if faults {
				s.Relevant[x.LHS.Name] = true
				s.addExpr(x.RHS)
			}
		case *ir.Timed:
			s.addExpr(x.Units)
		case *ir.For, *ir.If, *ir.Delay:
			for u := range ir.StmtDefUse(x).Uses {
				s.Relevant[u] = true
			}
		default:
			s.commArgs(st)
		}
		return true
	})
	s.fixpoint(p)
	return s.Relevant
}

// commArgs adds the arguments of a communication statement: the peer or
// root and the section bounds, not the payload.
func (s *Slice) commArgs(st ir.Stmt) {
	var sec []ir.Range
	switch c := st.(type) {
	case *ir.Send:
		s.addExpr(c.Dest)
		sec = c.Section
	case *ir.Recv:
		s.addExpr(c.Src)
		sec = c.Section
	case *ir.Bcast:
		s.addExpr(c.Root)
	}
	for _, rg := range sec {
		s.addExpr(rg.Lo)
		s.addExpr(rg.Hi)
	}
}

// fixpoint performs the backward closure: statements defining relevant
// variables are retained and their uses become relevant; control
// statements enclosing retained statements contribute their header uses.
// A received array that is relevant makes every sent array relevant: the
// payload flows from the send to the receive, whatever the names. Iterates
// to a fixed point to handle loop-carried chains.
func (s *Slice) fixpoint(p *ir.Program) {
	payload := false // a received array is relevant
	for {
		changed := false
		var visit func(body []ir.Stmt) bool // returns "contains retained"
		visit = func(body []ir.Stmt) bool {
			any := false
			for _, st := range body {
				inner := false
				switch x := st.(type) {
				case *ir.For:
					inner = visit(x.Body)
				case *ir.If:
					inner = visit(x.Then) || visit(x.Else)
				case *ir.Timed:
					inner = visit(x.Body)
				}
				switch c := st.(type) {
				case *ir.Recv:
					if s.Relevant[c.Array] && !payload {
						payload, changed = true, true // every send is visited again
					}
				case *ir.Send:
					if payload && !s.Relevant[c.Array] {
						s.Relevant[c.Array], changed = true, true
					}
				}
				du := ir.StmtDefUse(st)
				retain := inner
				for d := range du.Defs {
					if s.Relevant[d] {
						retain = true
						break
					}
				}
				if retain {
					if !s.Retained[st] {
						s.Retained[st] = true
						changed = true
					}
					// Header/statement uses become relevant. For control
					// statements, du covers only the headers; bodies were
					// handled recursively.
					for u := range du.Uses {
						if !s.Relevant[u] {
							s.Relevant[u] = true
							changed = true
						}
					}
					// Loops executing retained statements also make the
					// induction variable relevant (already in Defs) and
					// their trip counts part of the slice.
					any = true
				}
			}
			return any
		}
		visit(p.Body)
		if !changed {
			return
		}
	}
}

// sectionElemsExpr builds the element-count expression of a section:
// prod_d max(0, hi_d - lo_d + 1).
func sectionElemsExpr(sec []ir.Range) ir.Expr {
	var total ir.Expr = ir.N(1)
	for _, rg := range sec {
		n := ir.MaxE(ir.N(0), ir.Add(ir.Sub(rg.Hi, rg.Lo), ir.N(1)))
		total = ir.Mul(total, n)
	}
	return ir.Simplify(total)
}

// classifyArrays decides, for every declared array, whether the
// simplified program keeps it (relevant) or routes its communication
// through the dummy buffer (paper §3.1: "If a program array that is
// otherwise unused is referenced in any communication call, we replace
// that array reference with a reference to a single dummy buffer").
func (s *Slice) classifyArrays(p *ir.Program, cg *stg.Graph) {
	commArrays := map[string]bool{}
	var rec func(ns []*stg.Node)
	rec = func(ns []*stg.Node) {
		for _, n := range ns {
			if n.Kind == stg.KindComm {
				switch c := n.Stmts[0].(type) {
				case *ir.Send:
					commArrays[c.Array] = true
					if !s.Relevant[c.Array] {
						s.MsgElems[n.Stmts[0]] = sectionElemsExpr(c.Section)
					}
				case *ir.Recv:
					commArrays[c.Array] = true
					if !s.Relevant[c.Array] {
						s.MsgElems[n.Stmts[0]] = sectionElemsExpr(c.Section)
					}
				}
			}
			rec(n.Children)
			rec(n.Then)
			rec(n.Else)
		}
	}
	rec(cg.Roots)
	for _, d := range p.Arrays {
		if s.Relevant[d.Name] {
			s.KeptArrays[d.Name] = true
		} else if commArrays[d.Name] {
			s.DummyArrays[d.Name] = true
		}
		// Arrays that are neither relevant nor communicated are simply
		// eliminated.
	}
}

// RelevantSorted returns the relevant variable names in sorted order.
func (s *Slice) RelevantSorted() []string {
	out := make([]string, 0, len(s.Relevant))
	for v := range s.Relevant {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// EliminatedArrays returns declared arrays dropped entirely (neither kept
// nor dummied), sorted.
func (s *Slice) EliminatedArrays(p *ir.Program) []string {
	var out []string
	for _, d := range p.Arrays {
		if !s.KeptArrays[d.Name] && !s.DummyArrays[d.Name] {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
