package check

import "sort"

// passSendRecv matches point-to-point operations across the resolved
// per-rank traces. Every definite (non-"may") send must have a matching
// receive on its destination rank with the same tag, and vice versa;
// resolved peers must lie on the process grid; sizes are compared along
// each (src, dst, tag) channel in FIFO order.
//
// One counting sort over the arena groups the definite operations by
// channel (sends and receives apart, each in trace order, which is FIFO
// order since a channel has one sender and one receiver); the pass is
// linear in the total number of operations.
func passSendRecv(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	tr := ctx.traces
	nch := len(tr.chans)

	// Bucket 2*ch holds channel ch's sends, 2*ch+1 its receives; bucket b
	// ends up as idx[start[b]:start[b+1]].
	bucket := func(o *op) int32 { return 2*o.ch + int32(o.kind) }
	start := make([]int32, 2*nch+2)
	for r := 0; r < ctx.Ranks; r++ {
		for i := tr.win[r]; i < tr.win[r+1]; i++ {
			o := &tr.ops[i]
			switch {
			case o.kind == opColl:
			case o.ch >= 0:
				if o.kind == opSend && int(o.peer) == r {
					d := ctx.diag("sendrecv", Warning, ctx.plan.stmts[o.stmt],
						"rank %d sends to itself; blocking self-sends deadlock under synchronous semantics", r)
					d.Ranks = []int{r}
					diags = append(diags, d)
				}
				start[bucket(o)+2]++
			case !o.has(fMay) && o.has(fPeerKnown):
				word := "send to"
				if o.kind == opRecv {
					word = "receive from"
				}
				d := ctx.diag("sendrecv", Error, ctx.plan.stmts[o.stmt],
					"%s rank %d is outside the process set 0..%d", word, o.peer, ctx.Ranks-1)
				d.Ranks = []int{r}
				diags = append(diags, d)
			}
		}
	}
	for b := 2; b < len(start); b++ {
		start[b] += start[b-1]
	}
	idx := make([]int32, start[len(start)-1])
	for i := range tr.ops {
		if o := &tr.ops[i]; o.kind != opColl && o.ch >= 0 {
			b := bucket(o) + 1
			idx[start[b]] = int32(i)
			start[b]++
		}
	}

	// With a data-dependent peer, a conditional operation or a truncated
	// trace anywhere, unmatched counts are only warnings.
	unmatchedSev, qualifier := Error, ""
	if tr.uncertain || ctx.Truncated() {
		unmatchedSev = Warning
		qualifier = " (analysis is approximate: data-dependent communication present)"
	}

	// Findings are collected in channel-table order and reported in
	// (src, dst, tag) order.
	type finding struct {
		k chanKey
		d Diagnostic
	}
	var found []finding
	var k chanKey
	report := func(sev Severity, at int32, format string, args ...interface{}) {
		d := ctx.diag("sendrecv", sev, ctx.plan.stmts[tr.ops[at].stmt], format, args...)
		d.Ranks = []int{int(k.from), int(k.to)}
		found = append(found, finding{k, d})
	}
	for ch := range tr.chans {
		k = tr.chans[ch]
		sends, recvs := idx[start[2*ch]:start[2*ch+1]], idx[start[2*ch+1]:start[2*ch+2]]
		ns, nr := len(sends), len(recvs)
		if ns > nr {
			report(unmatchedSev, sends[nr],
				"send to rank %d tag %d has no matching receive (%d sends, %d receives from rank %d)%s",
				k.to, k.tag, ns, nr, k.from, qualifier)
		} else if nr > ns {
			report(unmatchedSev, recvs[ns],
				"receive from rank %d tag %d has no matching send (%d receives, %d sends to rank %d)%s",
				k.from, k.tag, nr, ns, k.to, qualifier)
		}
		for i := 0; i < ns && i < nr; i++ {
			s, r := &tr.ops[sends[i]], &tr.ops[recvs[i]]
			if !s.has(fElemsKnown) || !r.has(fElemsKnown) {
				continue
			}
			se, re := tr.elemsOf(sends[i]), tr.elemsOf(recvs[i])
			if se == re {
				continue
			}
			if se > re {
				report(Error, recvs[i],
					"message of %g elems from rank %d tag %d overflows the receive section of %g elems",
					se, k.from, k.tag, re)
			} else {
				report(Warning, recvs[i],
					"message of %g elems from rank %d tag %d is smaller than the receive section of %g elems",
					se, k.from, k.tag, re)
			}
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		a, b := found[i].k, found[j].k
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.tag < b.tag
	})
	for _, f := range found {
		diags = append(diags, f.d)
	}
	return diags
}
