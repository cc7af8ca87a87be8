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
// A rank's collectives are its window's, whose roots no member shifts:
// each window is scanned once, and its sequence compared with rank 0's
// once, a finding then stated for every member that has it.
func passCollective(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	tr, pl := ctx.traces, ctx.plan

	// Data-dependent collectives (warned once per statement) and bcast
	// root sanity (roots are carried on collective ops), per window at
	// its first member, which is the first rank the finding holds at.
	warned := make([]bool, len(pl.stmts))
	next := int32(0)
	for r, w := range tr.of {
		if w != next {
			continue
		}
		next++
		for i := tr.win[w]; i < tr.win[w+1]; i++ {
			o := &tr.ops[i]
			if o.kind != opColl {
				continue
			}
			s := pl.stmts[o.stmt]
			if o.has(fMay) && !warned[o.stmt] {
				warned[o.stmt] = true
				diags = append(diags, ctx.diag("collective", Warning, s,
					"%s executes under a data-dependent condition; ranks may diverge", pl.keys[o.key]))
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

	// Definite sequence comparison against rank 0, once per window: at is
	// the first position that differs (-1: none), and the members of a
	// window whose sequence is rank 0's have nothing to report.
	definite := func(w int32) (seq []*op) {
		for i := tr.win[w]; i < tr.win[w+1]; i++ {
			if o := &tr.ops[i]; o.kind == opColl && !o.has(fMay) {
				seq = append(seq, o)
			}
		}
		return seq
	}
	type outcome struct {
		seq  []*op
		at   int
		done bool
	}
	base := definite(tr.of[0])
	cmp := make([]outcome, len(tr.win)-1)
	for r := 1; r < ctx.Ranks; r++ {
		w := tr.of[r]
		if w == tr.of[0] {
			continue
		}
		c := &cmp[w]
		if !c.done {
			c.seq, c.at, c.done = definite(w), -1, true
			for i := 0; i < min(len(base), len(c.seq)) && c.at < 0; i++ {
				if base[i].key != c.seq[i].key {
					c.at = i
				}
			}
		}
		if cur, i := c.seq, c.at; i >= 0 {
			d := ctx.diag("collective", Error, pl.stmts[cur[i].stmt],
				"collective sequence diverges at position %d: rank 0 reaches %s (line %d), rank %d reaches %s",
				i+1, pl.keys[base[i].key], ctx.Lines[pl.stmts[base[i].stmt]], r, pl.keys[cur[i].key])
			d.Ranks = []int{0, r}
			diags = append(diags, d)
			continue
		}
		limit := min(len(base), len(c.seq))
		if len(c.seq) == len(base) {
			continue
		}
		longer, shorter, seq := 0, r, base
		if len(c.seq) > len(base) {
			longer, shorter, seq = r, 0, c.seq
		}
		extra := seq[limit]
		d := ctx.diag("collective", Error, pl.stmts[extra.stmt],
			"rank %d reaches %d collectives but rank %d reaches %d; first unmatched: %s",
			longer, len(seq), shorter, limit, pl.keys[extra.key])
		d.Ranks = []int{0, r}
		diags = append(diags, d)
	}
	return diags
}
