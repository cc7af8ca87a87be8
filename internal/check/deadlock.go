package check

import (
	"fmt"
	"strings"

	"mpisim/internal/ir"
)

// passDeadlock simulates the definite per-rank communication traces to
// completion under two progress models and reports configurations that
// cannot terminate:
//
//   - eager sends (the simulator's model, and the buffered reality of
//     small MPI messages): a send always completes; a receive blocks
//     until a matching message is in flight; collectives block until
//     every rank arrives. A stuck state here is a definite deadlock and
//     is reported as an error, with the wait-for cycle's node path.
//   - synchronous (rendezvous) sends: a send additionally blocks until
//     its matching receive is posted. Programs that only terminate under
//     eager semantics — the classic head-to-head SEND/SEND exchange —
//     are legal for this simulator but unsafe MPI, and are reported as
//     warnings.
//
// Operations with data-dependent peers or conditional execution are
// excluded (they advance unconditionally), so cycles through them are
// not detected; an Info note records this degradation.
func passDeadlock(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	tr := ctx.traces
	excluded := tr.uncertain || tr.mayColl
	if excluded {
		diags = append(diags, ctx.diag("deadlock", Info, nil,
			"data-dependent communication present; deadlock analysis covers definite operations only"))
	}
	if ctx.Truncated() {
		diags = append(diags, ctx.diag("deadlock", Warning, nil,
			"trace truncated by the analysis budget; deadlock analysis is incomplete"))
		return diags
	}

	if pc := simulate(ctx, false); pc != nil {
		// With excluded operations the stuck state may be an analysis
		// artifact, not a certain hang: degrade to a warning.
		sev, prefix := Error, "deadlock: "
		if excluded {
			sev, prefix = Warning, "possible deadlock (approximate analysis): "
		}
		diags = append(diags, reportStuck(ctx, pc, sev, prefix))
		return diags
	}
	if pc := simulate(ctx, true); pc != nil {
		diags = append(diags, reportStuck(ctx, pc, Warning, "unsafe under synchronous sends: "))
	}
	return diags
}

// progress is the state of one deadlock simulation: a worklist of ranks
// that may be able to advance, over the arena and its channel table.
type progress struct {
	ops []op
	// pc is each rank's program counter, an arena index running to end.
	pc, end []int32
	// inflight counts the undelivered eager messages per channel.
	inflight   []int32
	work       []int32
	queued     []bool
	atColl     int
	rendezvous bool
}

// simulate advances all ranks until every trace is consumed or no rank
// can progress, and returns the program counters of the stuck state (nil
// when the system terminates). rendezvous selects the synchronous-send
// model.
//
// Every rank is a sequential process and every blocking operation names
// its one partner channel, so the final state does not depend on the
// order ranks are advanced in. A rank therefore runs until it blocks and
// is revisited only when its wait can have ended: a send wakes exactly
// its destination, a posted receive its rendezvous sender, a completed
// collective everyone. Each visit advances at least one rank, which makes
// a run linear in the total number of operations.
func simulate(ctx *Context, rendezvous bool) []int32 {
	tr, n := ctx.traces, ctx.Ranks
	p := &progress{
		ops: tr.ops, pc: append([]int32(nil), tr.win[:n]...), end: tr.win[1:],
		work: make([]int32, 0, n), queued: make([]bool, n), rendezvous: rendezvous,
	}
	if !rendezvous {
		p.inflight = make([]int32, len(tr.chans))
	}
	for {
		for r := n - 1; r >= 0; r-- {
			p.wake(int32(r))
		}
		for len(p.work) > 0 {
			r := p.work[len(p.work)-1]
			p.work = p.work[:len(p.work)-1]
			p.queued[r] = false
			p.run(r)
		}
		// Collective progress: every rank must sit at the same collective.
		if p.atColl < n || !p.sameCollective() {
			break
		}
		p.atColl = 0
		for r := range p.pc {
			p.pc[r]++
		}
	}
	for r := range p.pc {
		if p.pc[r] < p.end[r] {
			return p.pc
		}
	}
	return nil
}

func (p *progress) wake(r int32) {
	if !p.queued[r] {
		p.queued[r] = true
		p.work = append(p.work, r)
	}
}

// at reports whether rank r's current operation is of the given kind on
// channel ch.
func (p *progress) at(r int32, kind opKind, ch int32) bool {
	if p.pc[r] >= p.end[r] {
		return false
	}
	o := &p.ops[p.pc[r]]
	return o.kind == kind && o.ch == ch
}

func (p *progress) sameCollective() bool {
	key := p.ops[p.pc[0]].ch
	for _, i := range p.pc {
		if p.ops[i].ch != key {
			return false
		}
	}
	return true
}

// run advances rank r until it blocks or finishes.
func (p *progress) run(r int32) {
	for p.pc[r] < p.end[r] {
		o := &p.ops[p.pc[r]]
		switch {
		case o.has(fMay) || (o.kind != opColl && o.ch < 0):
			// Uncertain operations and out-of-range peers (the latter are
			// sendrecv-pass errors; blocking on them here would
			// duplicate) advance unconditionally.
		case o.kind == opColl:
			p.atColl++
			return
		case o.kind == opSend && !p.rendezvous:
			p.inflight[o.ch]++
			if p.at(o.peer, opRecv, o.ch) {
				p.wake(o.peer)
			}
		case o.kind == opSend:
			// Synchronous: complete only against a posted matching
			// receive at the peer's current op.
			if !p.at(o.peer, opRecv, o.ch) {
				return
			}
			p.pc[o.peer]++
			p.wake(o.peer)
		case p.rendezvous:
			// Receives complete from the send side.
			if p.at(o.peer, opSend, o.ch) {
				p.wake(o.peer)
			}
			return
		default:
			if p.inflight[o.ch] == 0 {
				return
			}
			p.inflight[o.ch]--
		}
		p.pc[r]++
	}
}

// reportStuck renders a stuck simulation state as a diagnostic: a
// wait-for cycle when one exists, otherwise the first blocked rank's
// dependency chain.
func reportStuck(ctx *Context, pc []int32, sev Severity, prefix string) Diagnostic {
	tr, n := ctx.traces, ctx.Ranks
	// current returns the operation rank r is blocked at (nil: finished).
	current := func(r int) *op {
		if pc[r] >= tr.win[r+1] {
			return nil
		}
		return &tr.ops[pc[r]]
	}
	// waitsOn returns the set of ranks the blocked rank is waiting for.
	waitsOn := func(r int) []int {
		o := current(r)
		switch {
		case o == nil:
			return nil
		case o.kind != opColl:
			return []int{int(o.peer)}
		}
		var out []int
		for s := 0; s < n; s++ {
			if so := current(s); s != r && (so == nil || so.kind != opColl || so.ch != o.ch) {
				out = append(out, s)
			}
		}
		return out
	}
	describeAt := func(r int) string {
		o := current(r)
		if o == nil {
			return fmt.Sprintf("rank %d (finished)", r)
		}
		if line := ctx.Lines[ctx.plan.stmts[o.stmt]]; line > 0 {
			return fmt.Sprintf("rank %d at %s (line %d)", r, ctx.describe(o), line)
		}
		return fmt.Sprintf("rank %d at %s", r, ctx.describe(o))
	}

	// DFS for a cycle over the wait-for edges.
	cycle := findCycle(n, waitsOn)
	var sb strings.Builder
	sb.WriteString(prefix)
	var anchor *op
	if len(cycle) > 0 {
		parts := make([]string, 0, len(cycle)+1)
		for _, r := range cycle {
			parts = append(parts, describeAt(r))
		}
		parts = append(parts, fmt.Sprintf("rank %d", cycle[0]))
		sb.WriteString("wait-for cycle ")
		sb.WriteString(strings.Join(parts, " -> "))
		anchor = current(cycle[0])
	} else {
		// No cycle: some rank waits on ranks that terminated or diverged.
		for r := 0; r < n && anchor == nil; r++ {
			if anchor = current(r); anchor != nil {
				sb.WriteString(describeAt(r))
				sb.WriteString(" blocks forever")
				if deps := waitsOn(r); len(deps) > 0 {
					sb.WriteString(fmt.Sprintf(" waiting on rank %d", deps[0]))
				}
			}
		}
	}
	var at ir.Stmt
	if anchor != nil {
		at = ctx.plan.stmts[anchor.stmt]
	}
	return ctx.diag("deadlock", sev, at, "%s", sb.String())
}

// findCycle finds a cycle among blocked ranks following wait-for edges,
// returning the ranks along the cycle in order (empty when none).
func findCycle(n int, edges func(int) []int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(r int) bool
	dfs = func(r int) bool {
		color[r] = gray
		for _, s := range edges(r) {
			if color[s] == gray {
				// Unwind from r back to s.
				cycle = append(cycle, s)
				for v := r; v != s; v = parent[v] {
					cycle = append(cycle, v)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
			if color[s] == white {
				parent[s] = r
				if dfs(s) {
					return true
				}
			}
		}
		color[r] = black
		return false
	}
	for r := 0; r < n; r++ {
		if color[r] == white && dfs(r) {
			return cycle
		}
	}
	return nil
}
