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

	// A run that completes under synchronous sends is one under eager
	// sends, whose final state is unique: only a stuck one asks for the
	// eager model.
	p := newProgress(ctx)
	if !p.simulate(true) {
		return diags
	}
	synchronous := append([]int32(nil), p.pc...)
	if p.simulate(false) {
		// With excluded operations the stuck state may be an analysis
		// artifact, not a certain hang: degrade to a warning.
		sev, prefix := Error, "deadlock: "
		if excluded {
			sev, prefix = Warning, "possible deadlock (approximate analysis): "
		}
		return append(diags, reportStuck(ctx, p, sev, prefix))
	}
	p.pc = synchronous
	return append(diags, reportStuck(ctx, p, Warning, "unsafe under synchronous sends: "))
}

// progress is the state of one deadlock simulation: a worklist of ranks
// that may be able to advance, each through its window of the arena with
// its relative peers shifted to it; no member's trace is copied.
type progress struct {
	ops []op
	n   int
	lt  *links
	tr  *traces
	// pc is each rank's program counter, an arena index running from
	// start to end.
	pc, start, end []int32
	// wait is the channel slot a blocked rank waits on, -1 for none.
	wait []int32
	// inflight counts the undelivered eager messages per channel slot.
	inflight []int32
	// The channel (s, d, tag) has the dense slot s*nkeys + k when keys
	// interns (d-s, tag) as k, which it does for every relative link's;
	// else, when s is a window of its own, its send link's; else one in
	// chans. slot is, per link, its k when relative, its slot once known
	// when that is fixed (in a window of one member), and -1 otherwise.
	slot       []int32
	keys       map[[2]int32]int32
	chans      map[chanKey]int32
	nkeys      int32
	work       []int32
	queued     []bool
	atColl     int
	rendezvous bool
}

func newProgress(ctx *Context) *progress {
	tr, lt, n := ctx.traces, ctx.links(), ctx.Ranks
	p := &progress{
		ops: tr.ops, n: n, lt: lt, tr: tr,
		pc: make([]int32, n), start: make([]int32, n), end: make([]int32, n), wait: make([]int32, n),
		work: make([]int32, 0, n), queued: make([]bool, n),
		slot: make([]int32, len(lt.at)-1), keys: map[[2]int32]int32{}, chans: map[chanKey]int32{},
	}
	for r, w := range tr.of {
		p.start[r], p.end[r] = tr.win[w], tr.win[w+1]
	}
	for l := range p.slot {
		p.slot[l] = -1
		if k := lt.key(int32(l)); k.rel {
			off := k.peer
			if k.kind == opRecv {
				off = -off
			}
			x, ok := p.keys[[2]int32{off, k.tag}]
			if !ok {
				x = int32(len(p.keys))
				p.keys[[2]int32{off, k.tag}] = x
			}
			p.slot[l] = x
		}
	}
	p.nkeys = int32(len(p.keys))
	p.inflight = make([]int32, n*int(p.nkeys))
	return p
}

// resolve is the slot of absolute operation o of link l at rank r, whose
// partner is q; in a window of one member the link keeps it.
func (p *progress) resolve(o *op, l, r, q int32) int32 {
	s, d, sent := r, q, l
	if o.kind == opRecv {
		s, d, sent = q, r, -1
	}
	if w := p.tr.of[s]; p.tr.members[w] != 1 {
		sent = -1
	} else if sent < 0 {
		sent = p.lt.absolute(l, p.tr.of[r], w, opSend, r)
	}
	x, ok := p.keys[[2]int32{d - s, o.key}]
	switch {
	case ok:
		x += s * p.nkeys
	case sent >= 0:
		if p.slot[sent] < 0 {
			p.slot[sent] = p.fresh()
		}
		x = p.slot[sent]
	default:
		c := chanKey{from: s, to: d, tag: int(o.key)}
		if x, ok = p.chans[c]; !ok {
			x = p.fresh()
			p.chans[c] = x
		}
	}
	if p.tr.members[p.tr.of[r]] == 1 {
		p.slot[l] = x
	}
	return x
}

// fresh is a new channel slot.
func (p *progress) fresh() int32 {
	p.inflight = append(p.inflight, 0)
	return int32(len(p.inflight) - 1)
}

// simulate advances all ranks until every trace is consumed or no rank
// can progress, and reports whether it is stuck. rendezvous selects the
// synchronous-send model.
//
// Every rank is a sequential process and every blocking operation names
// its one partner channel, so the final state does not depend on the
// order ranks are advanced in. A rank therefore runs until it blocks and
// is revisited only when its wait can have ended: a send wakes exactly
// its destination, a posted receive its rendezvous sender, a completed
// collective everyone. Each visit advances at least one rank, which makes
// a run linear in the total number of operations of all ranks.
func (p *progress) simulate(rendezvous bool) bool {
	p.rendezvous, p.atColl = rendezvous, 0
	copy(p.pc, p.start)
	clear(p.inflight)
	for r := range p.wait {
		p.wait[r] = -1
	}
	for {
		for r := p.n - 1; r >= 0; r-- {
			p.wake(int32(r))
		}
		for len(p.work) > 0 {
			r := p.work[len(p.work)-1]
			p.work = p.work[:len(p.work)-1]
			p.queued[r] = false
			p.run(r)
		}
		// Collective progress: every rank must sit at the same collective.
		if p.atColl < p.n || !p.sameCollective() {
			break
		}
		p.atColl = 0
		for r := range p.pc {
			p.pc[r]++
		}
	}
	for r := range p.pc {
		if p.pc[r] < p.end[r] {
			return true
		}
	}
	return false
}

func (p *progress) wake(r int32) {
	if !p.queued[r] {
		p.queued[r] = true
		p.work = append(p.work, r)
	}
}

func (p *progress) sameCollective() bool {
	key := p.ops[p.pc[0]].key
	for _, i := range p.pc {
		if p.ops[i].key != key {
			return false
		}
	}
	return true
}

// run advances rank r until it blocks or finishes. A blocked rank records
// the slot it waits on, which is how a partner tells that it waits at
// the matching operation.
func (p *progress) run(r int32) {
	p.wait[r] = -1
	pc, end := p.pc[r], p.end[r]
	for ; pc < end; pc++ {
		o := &p.ops[pc]
		if o.kind == opColl {
			if o.flags&fMay == 0 {
				p.pc[r] = pc
				p.atColl++
				return
			}
			continue
		}
		// Uncertain operations and out-of-range peers (the latter are
		// sendrecv-pass errors; blocking on them here would duplicate)
		// advance unconditionally.
		q, ok := o.linked(r, p.n)
		if !ok {
			continue
		}
		l := p.lt.of[pc]
		x := p.slot[l]
		if o.flags&fRel != 0 {
			s := r
			if o.kind == opRecv {
				s = q
			}
			x += s * p.nkeys
		} else if x < 0 {
			x = p.resolve(o, l, r, q)
		}
		switch {
		case o.kind == opSend && !p.rendezvous:
			p.inflight[x]++
			if p.wait[q] == x {
				p.wait[q] = -1
				p.wake(q)
			}
		case p.rendezvous:
			// Synchronous: the pair completes when the later of the two
			// meets the other waiting at it.
			if p.wait[q] != x {
				p.pc[r], p.wait[r] = pc, x
				return
			}
			p.pc[q]++
			p.wait[q] = -1
			p.wake(q)
		default:
			if p.inflight[x] == 0 {
				p.pc[r], p.wait[r] = pc, x
				return
			}
			p.inflight[x]--
		}
	}
	p.pc[r] = pc
}

// reportStuck renders a stuck simulation state as a diagnostic: a
// wait-for cycle when one exists, otherwise the first blocked rank's
// dependency chain.
func reportStuck(ctx *Context, p *progress, sev Severity, prefix string) Diagnostic {
	tr, n := ctx.traces, ctx.Ranks
	// current returns the operation rank r is blocked at (nil: finished).
	current := func(r int) *op {
		if p.pc[r] >= p.end[r] {
			return nil
		}
		o := tr.at(p.pc[r], int32(r))
		return &o
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
			if so := current(s); s != r && (so == nil || so.kind != opColl || so.key != o.key) {
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
