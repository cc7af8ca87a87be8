package rules

import (
	"go/ast"
	"go/types"

	"mpisim/tools/analyzers/simvet/vetcore"
)

// contsafe checks continuation handlers — functions and closures with
// the sim.Cont signature `func(*Proc, *Message) Cont` — against the
// scheduler's run-to-completion contract (cont.go):
//
//   - contarm: a handler returning a non-nil next continuation must arm
//     exactly one wait (WaitRecv/WaitSleep) on every path to
//     that return; arming and then returning nil silently discards the
//     arm and is reported too.
//   - contblock: handlers run inline on the worker's event-loop
//     goroutine and must never call the blocking *Proc primitives
//     (RecvSrcTag, Sleep) — the runtime panics, this reports it at
//     build time.
//   - contspawn: no goroutine may be spawned from a handler; worker
//     state (slabs, free lists, slots) is single-token-owned.
//   - contretain: the *Message argument is only valid during the
//     handler invocation; capturing it in a nested closure or storing
//     it into memory that outlives the call (field, global, element)
//     retains it past return, after which the pool may recycle it.
//
// The arm analysis is a small abstract interpreter over the handler
// body tracking the (min, max) number of waits armed on the paths
// reaching each statement: if/else branches merge, loops widen max
// (their body may run many times) while keeping min (it may run zero
// times), and each return is judged against the state reaching it.

// waitCalls are the arming primitives.
var waitCalls = map[string]bool{"WaitRecv": true, "WaitSleep": true}

// blockingCalls are the blocking primitives (body.go) a handler must not
// invoke.
var blockingCalls = map[string]bool{"RecvSrcTag": true, "Sleep": true}

// ContSafe returns the continuation-handler analyzer.
func ContSafe() vetcore.Analyzer {
	return vetcore.Analyzer{
		Name:  "contsafe",
		Doc:   "continuation handlers must arm exactly one wait per return path, never block, spawn or retain the message",
		Rules: []string{"contarm", "contblock", "contspawn", "contretain"},
		Run:   runContSafe,
	}
}

func runContSafe(pass *vetcore.Pass) []vetcore.Diagnostic {
	var out []vetcore.Diagnostic
	funcDecls(pass, func(_ *ast.File, fn *ast.FuncDecl) {
		// Handler-typed declarations (methods used as continuations).
		if isHandlerSig(pass.Info.TypeOf(fn.Name)) {
			out = append(out, checkHandler(pass, fn.Type, fn.Body)...)
		}
		// Handler-typed closures anywhere inside (the common shape:
		// fabricCont's self-referencing onClaim).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && isHandlerSig(pass.Info.TypeOf(lit)) {
				out = append(out, checkHandler(pass, lit.Type, lit.Body)...)
				return false // nested handlers inside are checked by their own visit
			}
			return true
		})
	})
	return out
}

// isHandlerSig reports whether t is the continuation handler shape:
// func(*sim.Proc, *sim.Message) sim.Cont. Matching the full signature
// (not just the Cont result) keeps non-handler helpers that merely
// produce continuations (a func() Cont, say) out of scope.
func isHandlerSig(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	params, results := sig.Params(), sig.Results()
	return params.Len() == 2 && results.Len() == 1 &&
		simPtrTo(params.At(0).Type(), "Proc") &&
		simPtrTo(params.At(1).Type(), "Message") &&
		simNamed(results.At(0).Type(), "Cont")
}

// checkHandler runs the four contsafe checks over one handler body.
func checkHandler(pass *vetcore.Pass, ftyp *ast.FuncType, body *ast.BlockStmt) []vetcore.Diagnostic {
	var out []vetcore.Diagnostic

	// contblock / contspawn: anywhere in the handler, including nested
	// non-handler closures (they run inline unless spawned — and
	// spawning is reported anyway). Nested handler closures are their
	// own subjects; skip them here.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if isHandlerSig(pass.Info.TypeOf(x)) {
				return false
			}
		case *ast.GoStmt:
			out = append(out, pass.Diag(x.Pos(), "contspawn",
				"goroutine spawned inside a continuation handler; worker-owned state is single-token and handlers must run to completion"))
		case *ast.CallExpr:
			if name := calleeName(x); blockingCalls[name] && isProcMethod(pass.Info, x) {
				out = append(out, pass.Diag(x.Pos(), "contblock",
					"blocking call %s inside a continuation handler; arm WaitRecv/WaitSleep and return the next handler instead", name))
			}
		}
		return true
	})

	// contretain: the *Message parameter escaping the invocation.
	if msg := messageParam(pass.Info, ftyp); msg != nil {
		out = append(out, checkRetention(pass, body, msg)...)
	}

	// contarm: judge every return against the arm state reaching it.
	st, _ := scanArms(pass, body.List, armState{0, 0}, &out)
	_ = st
	return out
}

// isProcMethod reports whether the call's receiver is a *sim.Proc.
func isProcMethod(info *types.Info, c *ast.CallExpr) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return simPtrTo(info.TypeOf(sel.X), "Proc")
}

// messageParam resolves the handler's *Message parameter object (nil
// when it is anonymous or blank).
func messageParam(info *types.Info, ftyp *ast.FuncType) types.Object {
	if ftyp.Params == nil || len(ftyp.Params.List) == 0 {
		return nil
	}
	last := ftyp.Params.List[len(ftyp.Params.List)-1]
	if len(last.Names) == 0 {
		return nil
	}
	name := last.Names[len(last.Names)-1]
	if name.Name == "_" {
		return nil
	}
	obj := info.Defs[name]
	if obj == nil || !simPtrTo(obj.Type(), "Message") {
		return nil
	}
	return obj
}

// checkRetention reports the *Message parameter escaping the handler:
// captured by a nested closure (which outlives the invocation — the
// returned continuation is the canonical case) or stored through a
// selector/index/star expression (memory the handler does not own).
func checkRetention(pass *vetcore.Pass, body *ast.BlockStmt, msg types.Object) []vetcore.Diagnostic {
	var out []vetcore.Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if refersTo(pass.Info, x.Body, msg) {
				out = append(out, pass.Diag(x.Pos(), "contretain",
					"%s (the handler's *Message argument) is captured by a closure and would outlive the handler; copy the fields you need instead", msg.Name()))
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					// Locals die with the invocation; package-level variables
					// do not.
					v, isVar := pass.Info.Uses[id].(*types.Var)
					if !isVar || v.Parent() != pass.Pkg.Scope() {
						continue
					}
				}
				for _, rhs := range x.Rhs {
					if refersTo(pass.Info, rhs, msg) {
						out = append(out, pass.Diag(x.Pos(), "contretain",
							"%s (the handler's *Message argument) is stored into memory that outlives the handler; the pool may recycle it after return", msg.Name()))
					}
				}
			}
		}
		return true
	})
	return out
}

// armState tracks how many waits have been armed on the paths reaching
// a program point: min over all paths, max over all paths. unbounded is
// the widened max for loops that arm.
const unbounded = 1 << 20

type armState struct{ min, max int }

func (a armState) add(n int) armState {
	if n == 0 {
		return a
	}
	return armState{a.min + n, a.max + n}
}

func mergeArm(a, b armState) armState {
	return armState{min(a.min, b.min), max(a.max, b.max)}
}

// scanArms walks a statement list, judging returns and threading the
// arm state through. The second result reports whether every path
// through the list terminates (returns), so unreachable fallthrough
// state is not merged.
func scanArms(pass *vetcore.Pass, stmts []ast.Stmt, in armState, out *[]vetcore.Diagnostic) (armState, bool) {
	st := in
	for _, s := range stmts {
		var terminated bool
		st, terminated = scanArmStmt(pass, s, st, out)
		if terminated {
			return st, true
		}
	}
	return st, false
}

// scanArmStmt evaluates one statement's effect on the arm state.
func scanArmStmt(pass *vetcore.Pass, s ast.Stmt, in armState, out *[]vetcore.Diagnostic) (armState, bool) {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		st := in.add(countArms(pass.Info, x))
		judgeReturn(pass, x, st, out)
		return st, true
	case *ast.BlockStmt:
		return scanArms(pass, x.List, in, out)
	case *ast.IfStmt:
		st := in.add(countArmsShallow(pass.Info, x.Init)).add(countArmsExpr(pass.Info, x.Cond))
		thenSt, thenTerm := scanArms(pass, x.Body.List, st, out)
		elseSt, elseTerm := st, false
		if x.Else != nil {
			elseSt, elseTerm = scanArmStmt(pass, x.Else, st, out)
		}
		switch {
		case thenTerm && elseTerm:
			return thenSt, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeArm(thenSt, elseSt), false
		}
	case *ast.ForStmt, *ast.RangeStmt:
		// The body may run zero or many times: keep min, widen max if the
		// body can arm. Returns inside are judged with first-iteration
		// state — good enough for handlers, which do not loop over arms.
		var bodyList []ast.Stmt
		if f, ok := x.(*ast.ForStmt); ok {
			bodyList = f.Body.List
		} else {
			bodyList = x.(*ast.RangeStmt).Body.List
		}
		bodySt, _ := scanArms(pass, bodyList, in, out)
		st := in
		if bodySt.max > in.max {
			st.max = unbounded
		}
		return st, false
	case *ast.SwitchStmt:
		return scanArmCases(pass, x.Body, in, out, hasDefaultCase(x.Body))
	case *ast.TypeSwitchStmt:
		return scanArmCases(pass, x.Body, in, out, hasDefaultCase(x.Body))
	default:
		// Plain statements: count any arming calls syntactically inside
		// (assignments, expression statements, ...), excluding nested
		// function literals.
		return in.add(countArmsShallow(pass.Info, s)), false
	}
}

// scanArmCases merges the arm states of a switch's case bodies. Without
// a default, the fall-past path keeps the incoming state.
func scanArmCases(pass *vetcore.Pass, body *ast.BlockStmt, in armState, out *[]vetcore.Diagnostic, hasDefault bool) (armState, bool) {
	merged := armState{-1, -1}
	allTerm := true
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		st, term := scanArms(pass, clause.Body, in, out)
		if !term {
			allTerm = false
			if merged.min < 0 {
				merged = st
			} else {
				merged = mergeArm(merged, st)
			}
		}
	}
	if !hasDefault {
		if merged.min < 0 {
			merged = in
		} else {
			merged = mergeArm(merged, in)
		}
		allTerm = false
	}
	if merged.min < 0 {
		merged = in
	}
	return merged, allTerm && hasDefault
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cc := range body.List {
		if clause, ok := cc.(*ast.CaseClause); ok && clause.List == nil {
			return true
		}
	}
	return false
}

// judgeReturn reports contarm violations at one return site.
func judgeReturn(pass *vetcore.Pass, ret *ast.ReturnStmt, st armState, out *[]vetcore.Diagnostic) {
	if len(ret.Results) != 1 {
		return // malformed; the compiler reports it
	}
	if isNilIdent(ret.Results[0]) {
		if st.min > 0 {
			*out = append(*out, pass.Diag(ret.Pos(), "contarm",
				"handler arms a wait but returns nil; the arm is silently discarded (return the next handler, or do not arm)"))
		}
		return
	}
	switch {
	case st.max == 0:
		*out = append(*out, pass.Diag(ret.Pos(), "contarm",
			"handler returns a continuation without arming a wait (arm exactly one WaitRecv/WaitSleep before returning)"))
	case st.min == 0:
		*out = append(*out, pass.Diag(ret.Pos(), "contarm",
			"handler may return a continuation without arming a wait on some path (arm exactly one wait on every non-nil return path)"))
	case st.min >= 2:
		*out = append(*out, pass.Diag(ret.Pos(), "contarm",
			"handler arms %d waits before returning; a handler arms exactly one", st.min))
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// countArms counts Wait* calls syntactically within node, excluding
// nested function literals.
func countArms(info *types.Info, node ast.Node) int {
	n := 0
	ast.Inspect(node, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if waitCalls[calleeName(c)] && isProcMethod(info, c) {
				n++
			}
		}
		return true
	})
	return n
}

// countArmsShallow is countArms tolerating a nil statement (absent if
// inits) and stopping at nested blocks handled elsewhere.
func countArmsShallow(info *types.Info, s ast.Stmt) int {
	if s == nil {
		return 0
	}
	return countArms(info, s)
}

// countArmsExpr counts arms in an expression (if conditions).
func countArmsExpr(info *types.Info, e ast.Expr) int {
	if e == nil {
		return 0
	}
	return countArms(info, e)
}
