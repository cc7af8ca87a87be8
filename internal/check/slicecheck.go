package check

import (
	"fmt"
	"strings"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/stg"
)

// passSlice audits the compiler's program slice. The simplification of
// §3.2 is only sound if the relevant set — the variables whose values
// can affect parallel behaviour — is closed under def/use dependencies;
// a slicer bug that drops a feeding variable produces a simplified
// program that silently mispredicts. Two independent checks:
//
//   - re-derive the required set from the condensed graph (retained
//     control headers, communication arguments, scaling functions) with
//     a separately-implemented fixpoint, and require the slicer's
//     relevant set to contain it;
//   - scan the emitted simplified program for scalar uses that no
//     earlier statement defines (a retained expression whose defining
//     computation was sliced away).
func passSlice(ctx *Context) []Diagnostic {
	if ctx.Compiled == nil {
		return []Diagnostic{ctx.diag("slice", Info, nil,
			"no compilation result (compiler-emitted or graph-rejected program); slice audit skipped")}
	}
	var diags []Diagnostic
	for _, name := range AuditSlice(ctx.Compiled) {
		diags = append(diags, ctx.diag("slice", Error, nil,
			"slicer dropped variable %q, which parallel structure depends on", name))
	}
	for _, msg := range undefinedUses(ctx.Compiled.Simplified) {
		diags = append(diags, ctx.diag("slice", Error, nil, "%s", msg))
	}
	return diags
}

// AuditSlice re-derives the set of variables the parallel structure
// depends on and returns, sorted, every name the compiler's slice is
// missing. An empty result means the slice is closed.
func AuditSlice(res *compiler.Result) []string {
	required := map[string]bool{}
	add := func(e ir.Expr) {
		if e != nil {
			ir.ScalarsIn(e, required, required)
		}
	}
	// Seed exactly what the simplified program must evaluate: control
	// headers and communication arguments of the condensed graph, and the
	// scaling function of every condensed task.
	var rec func(ns []*stg.Node)
	rec = func(ns []*stg.Node) {
		for _, n := range ns {
			switch n.Kind {
			case stg.KindLoop:
				f := n.Stmts[0].(*ir.For)
				add(f.Lo)
				add(f.Hi)
			case stg.KindBranch:
				br := n.Stmts[0].(*ir.If)
				add(br.Cond)
			case stg.KindComm:
				commArgs(n.Stmts[0], add)
			case stg.KindCondensed:
				add(n.Units)
			}
			rec(n.Children)
			rec(n.Then)
			rec(n.Else)
		}
	}
	rec(res.Graph.Roots)
	// Closure under def/use at name granularity, independently of the
	// slicer's own fixpoint, and under the payload: a received array that
	// is required makes every sent array required, whatever the names.
	for grew := true; grew; {
		closeUnderDefUse(res.Original.Body, required)
		var sent []string
		received := false
		ir.Walk(res.Original.Body, func(s ir.Stmt) bool {
			if x, ok := s.(*ir.Send); ok && !required[x.Array] {
				sent = append(sent, x.Array)
			} else if x, ok := s.(*ir.Recv); ok {
				received = received || required[x.Array]
			}
			return true
		})
		if grew = received && len(sent) > 0; grew {
			for _, a := range sent {
				required[a] = true
			}
		}
	}
	missing := map[string]bool{}
	for name := range required {
		if name == ir.BuiltinP || name == ir.BuiltinMyID {
			continue
		}
		if !res.Slice.Relevant[name] {
			missing[name] = true
		}
	}
	return sortedNames(missing)
}

// undefinedUses scans a simplified program in statement order for scalar
// uses with no preceding definition anywhere in the program.
func undefinedUses(p *ir.Program) []string {
	if p == nil {
		return nil
	}
	defined := map[string]bool{ir.BuiltinP: true, ir.BuiltinMyID: true}
	for _, par := range p.Params {
		defined[par] = true
	}
	arrays := map[string]bool{}
	for _, d := range p.Arrays {
		arrays[d.Name] = true
	}
	lines := p.StmtLines()
	seen := map[string]bool{}
	var out []string
	report := func(s ir.Stmt, name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		out = append(out, fmt.Sprintf(
			"simplified program uses %q before any definition (line %d: %s); its computation may have been sliced away",
			name, lines[s], strings.TrimSpace(ir.StmtHead(s))))
	}
	ir.Walk(p.Body, func(s ir.Stmt) bool {
		du := ir.StmtDefUse(s)
		switch s.(type) {
		case *ir.Allreduce, *ir.Bcast, *ir.ReadTaskTimes:
			// Collective payload values are deliberately abstracted by
			// the slice (the synchronization is what matters); an
			// undefined reduced variable is not a dropped dependency.
		default:
			for u := range du.Uses {
				if !defined[u] && !arrays[u] {
					report(s, u)
				}
			}
		}
		for d := range du.Defs {
			defined[d] = true
		}
		return true
	})
	return out
}
