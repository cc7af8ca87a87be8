package check

import "mpisim/internal/ir"

// passCollective verifies that every rank reaches the same collective
// operations in the same order. The per-rank traces resolve the
// process-set guards exactly, so a collective skipped (or reordered) on
// a subset of ranks — the branch-divergent Barrier/Allreduce defect —
// shows up as diverging definite sequences and is an error. Collectives
// under data-dependent conditions cannot be sequenced definitely and are
// reported as warnings instead.
//
// Two scans of the arena: the pass is linear in the total number of
// operations.
func passCollective(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	tr, pl := ctx.traces, ctx.plan

	// Data-dependent collectives (warned once per statement) and bcast
	// root sanity (roots are carried on collective ops).
	warned := make([]bool, len(pl.stmts))
	for r := 0; r < ctx.Ranks; r++ {
		for i := tr.win[r]; i < tr.win[r+1]; i++ {
			o := &tr.ops[i]
			if o.kind != opColl {
				continue
			}
			s := pl.stmts[o.stmt]
			if o.has(fMay) && !warned[o.stmt] {
				warned[o.stmt] = true
				diags = append(diags, ctx.diag("collective", Warning, s,
					"%s executes under a data-dependent condition; ranks may diverge", pl.keys[o.ch]))
			}
			if _, bcast := s.(*ir.Bcast); !bcast {
				continue
			}
			if o.has(fPeerKnown) && (o.peer < 0 || int(o.peer) >= ctx.Ranks) {
				d := ctx.diag("collective", Error, s,
					"bcast root %d is outside the process set 0..%d", o.peer, ctx.Ranks-1)
				d.Ranks = []int{r}
				diags = append(diags, d)
			}
			if !o.has(fPeerKnown) && !o.has(fMay) {
				diags = append(diags, ctx.diag("collective", Warning, s,
					"bcast root is data-dependent; ranks may disagree on the root"))
			}
		}
	}

	if ctx.Truncated() {
		diags = append(diags, ctx.diag("collective", Warning, nil,
			"trace truncated by the analysis budget; collective-consistency analysis is incomplete"))
		return diags
	}

	// Definite sequence comparison against rank 0.
	definite := func(r int, seq []*op) []*op {
		for i := tr.win[r]; i < tr.win[r+1]; i++ {
			if o := &tr.ops[i]; o.kind == opColl && !o.has(fMay) {
				seq = append(seq, o)
			}
		}
		return seq
	}
	base := definite(0, nil)
	var cur []*op
	for r := 1; r < ctx.Ranks; r++ {
		cur = definite(r, cur[:0])
		limit := min(len(base), len(cur))
		diverged := false
		for i := 0; i < limit && !diverged; i++ {
			if base[i].ch != cur[i].ch {
				d := ctx.diag("collective", Error, pl.stmts[cur[i].stmt],
					"collective sequence diverges at position %d: rank 0 reaches %s (line %d), rank %d reaches %s",
					i+1, pl.keys[base[i].ch], ctx.Lines[pl.stmts[base[i].stmt]], r, pl.keys[cur[i].ch])
				d.Ranks = []int{0, r}
				diags = append(diags, d)
				diverged = true
			}
		}
		if diverged || len(cur) == len(base) {
			continue
		}
		longer, shorter, seq := 0, r, base
		if len(cur) > len(base) {
			longer, shorter, seq = r, 0, cur
		}
		extra := seq[limit]
		d := ctx.diag("collective", Error, pl.stmts[extra.stmt],
			"rank %d reaches %d collectives but rank %d reaches %d; first unmatched: %s",
			longer, len(seq), shorter, limit, pl.keys[extra.ch])
		d.Ranks = []int{0, r}
		diags = append(diags, d)
	}
	return diags
}
