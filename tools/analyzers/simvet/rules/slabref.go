package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"mpisim/tools/analyzers/simvet/vetcore"
)

// slabref guards the kernel's plain-value event redesign: events live
// in per-worker slabs (the queue's backing array and the outbox
// []event), which grow, shrink and get merged in place. A pointer or
// subslice into a slab is only valid until the next operation that can
// move it; storing one into a variable and reading it after such an
// operation is the aliasing bug the value representation makes
// possible (the classic append-invalidates-pointer class, but inside
// the hottest loop of the simulator).
//
// Tracked aliases (assigned to local variables):
//   - *event values: queue.peek() results, &slab[i];
//   - []event values aliasing an existing slab: subslices, plain
//     aliases, append results.
//
// Invalidators: any call to the slab-mutating kernel operations
// (slabMutators below — the queue's push/pop/grow family and the
// worker/kernel routines that push or merge on behalf of a process),
// plus any append whose first argument is a []event. An invalidator
// consumes every tracked alias in the function: the engine's kill
// analysis (including the loop back-edge path) then decides which later
// reads are actually stale. The rule only fires inside a package named
// "sim" — the slabs are kernel-private.
var slabMutators = map[string]bool{
	// eventQueue mutators (event.go).
	"push": true, "pop": true, "grow": true, "bucketFor": true,
	// Worker/kernel operations that push, pop or merge events on behalf
	// of the caller (kernel.go, cont.go).
	"sendOut": true, "mergeOutboxes": true, "processWindow": true,
	"runLoop": true, "runCont": true, "invokeCont": true,
	"batchSameTime": true, "clearOutbox": true,
}

// SlabRef returns the event-slab aliasing analyzer.
func SlabRef() vetcore.Analyzer {
	return vetcore.Analyzer{
		Name:  "slabref",
		Doc:   "no pointer or subslice into the per-worker event slabs may survive a call that can grow or merge the slab",
		Rules: []string{"slabref"},
		Run:   runSlabRef,
	}
}

func runSlabRef(pass *vetcore.Pass) []vetcore.Diagnostic {
	if pass.Pkg.Name() != "sim" {
		return nil
	}
	var out []vetcore.Diagnostic
	funcDecls(pass, func(_ *ast.File, fn *ast.FuncDecl) {
		out = append(out, slabRefFunc(pass, fn.Body)...)
	})
	return out
}

func slabRefFunc(pass *vetcore.Pass, body *ast.BlockStmt) []vetcore.Diagnostic {
	// First sweep: which local variables hold slab aliases, and where do
	// the invalidating calls sit?
	tracked := map[types.Object]bool{}
	type mutation struct {
		pos    token.Pos
		label  string
		exempt types.Object // the var holding this append's own result — it is the fresh, valid reference
	}
	var muts []mutation
	// Appends whose result is directly assigned to an ident: the target
	// variable is re-validated by the very call that invalidates every
	// other alias (the canonical `a := append(h.a, e); ...; h.a = a`
	// heap-grow pattern must stay clean).
	appendTarget := map[*ast.CallExpr]types.Object{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				break // tuple assignments don't produce slab aliases
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rhs := x.Rhs[i]
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				v, ok := obj.(*types.Var)
				if !ok || v.Parent() == nil || v.Parent() == pass.Pkg.Scope() {
					continue // only locals can be audited intraprocedurally
				}
				if call, isCall := rhs.(*ast.CallExpr); isCall && isAppend(call) {
					appendTarget[call] = v
				}
				if aliasesSlab(pass.Info, rhs) {
					tracked[v] = true
				}
			}
		case *ast.CallExpr:
			name := calleeName(x)
			if slabMutators[name] && calleeInSim(pass.Info, x) {
				muts = append(muts, mutation{pos: x.End(), label: name})
			} else if isAppend(x) && len(x.Args) > 0 && simSliceOf(pass.Info.TypeOf(x.Args[0]), "event") {
				muts = append(muts, mutation{pos: x.End(), label: "append", exempt: appendTarget[x]})
			}
		}
		return true
	})
	if len(tracked) == 0 || len(muts) == 0 {
		return nil
	}
	var consumed []vetcore.Consumption
	for obj := range tracked {
		for _, m := range muts {
			if m.exempt == obj {
				continue
			}
			consumed = append(consumed, vetcore.Consumption{Obj: obj, Pos: m.pos, Label: m.label})
		}
	}
	var out []vetcore.Diagnostic
	for _, f := range vetcore.FindUsesAfter(body, pass.Info, consumed) {
		out = append(out, pass.Diag(f.Use.Pos(), "slabref",
			"%s aliases a per-worker event slab and is read after %s may have grown or merged it%s; re-derive the reference instead",
			f.Use.Name, f.Consumption.Label, loopNote(f)))
	}
	return out
}

// aliasesSlab reports whether the expression produces a reference into
// an existing event slab: a *event value (peek results, &slab[i]) or a
// []event deriving from one (subslice, alias, append) — as opposed to
// fresh storage (make, composite literal) or a plain event value copy.
func aliasesSlab(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if simPtrTo(t, "event") {
		return true
	}
	if !simSliceOf(t, "event") {
		return false
	}
	switch x := e.(type) {
	case *ast.CompositeLit:
		return false // fresh backing array
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && info.Uses[id] == nil {
			return false // fresh backing array
		}
		return true // append result or a call returning a slab view
	default:
		return true // ident/selector/index/slice of an existing slab
	}
}

// calleeInSim reports whether the call resolves to a function or method
// declared in the sim package (guarding against same-named methods of
// unrelated types).
func calleeInSim(info *types.Info, c *ast.CallExpr) bool {
	fn := calleeFunc(info, c)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "sim"
}

// isAppend reports whether the call is the append builtin.
func isAppend(c *ast.CallExpr) bool {
	id, ok := c.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}
