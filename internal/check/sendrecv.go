package check

import "sort"

// passSendRecv matches point-to-point operations across the resolved
// traces. Every definite (non-"may") send must have a matching receive on
// its destination rank with the same tag, and vice versa; resolved peers
// must lie on the process grid; sizes are compared along each
// (src, dst, tag) channel in FIFO order.
//
// The unit is the link: a window's definite operations of one kind, tag
// and peer spec (a rank, or with fRel an offset), in trace order, which
// at every member of the window is one side of one channel. The class's
// relative send at +dx matches the receive at -dx in the class of
// rank+dx, parametrically in the rank as MP net matches them: so each
// (send link, receive link) pair is compared once, and a member goes
// concrete only where its partner leaves the grid, where a side also has
// an absolute-peer link on the channel (the two merge in trace order),
// or where its pair fails; then its channel is compared op by op. The
// pass is linear in the links of all members plus the operations of the
// windows.
func passSendRecv(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	tr, n := ctx.traces, ctx.Ranks
	lt := ctx.links()

	// With a data-dependent peer, a conditional operation or a truncated
	// trace anywhere, unmatched counts are only warnings.
	unmatchedSev, qualifier := Error, ""
	if tr.uncertain || ctx.Truncated() {
		unmatchedSev = Warning
		qualifier = " (analysis is approximate: data-dependent communication present)"
	}

	// Findings are reported in (src, dst, tag) order, each channel's in the
	// order fifo finds them.
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
	// fifo compares channel k's sends with its receives and reports
	// whether they match.
	fifo := func(sends, recvs []int32) bool {
		before := len(found)
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
		return len(found) == before
	}

	// perStmt states a finding of rank r once per statement of a link's
	// run of operations (dedupe would drop the repeats).
	perStmt := func(ops []int32, r int32, sev Severity, format string, args ...interface{}) {
		for j, i := range ops {
			if s := tr.ops[i].stmt; j == 0 || s != tr.ops[ops[j-1]].stmt {
				d := ctx.diag("sendrecv", sev, ctx.plan.stmts[s], format, args...)
				d.Ranks = []int{int(r)}
				diags = append(diags, d)
			}
		}
	}
	var mineBuf, theirBuf []int32
	for r := int32(0); int(r) < n; r++ {
		w := tr.of[r]
		for l := lt.start[w]; l < lt.start[w+1]; l++ {
			key, ops := lt.key(l), lt.ops(l)
			q := tr.ops[ops[0]].peerAt(r)
			if q < 0 || int(q) >= n {
				word := "send to"
				if key.kind == opRecv {
					word = "receive from"
				}
				perStmt(ops, r, Error, "%s rank %d is outside the process set 0..%d", word, q, n-1)
				continue
			}
			if key.kind == opSend && q == r {
				perStmt(ops, r, Warning, "rank %d sends to itself; blocking self-sends deadlock under synchronous semantics", r)
			}
			// Of a relative and an absolute link on one channel, the
			// relative one compares it.
			if !key.rel && lt.find(w, key.kind, true, q-r, key.tag) >= 0 {
				continue
			}
			mine := ops
			if key.rel {
				mine = merge(&mineBuf, ops, lt.ops(lt.find(w, key.kind, false, q, key.tag)))
			}
			if key.kind == opRecv {
				// The sender compares a channel it has a link on.
				a := tr.of[q]
				if lt.partner(l, a, opSend, r-q) >= 0 || lt.absolute(l, w, a, opSend, r) >= 0 {
					continue
				}
				k = chanKey{from: q, to: r, tag: ctx.plan.tags[key.tag]}
				fifo(nil, mine)
				continue
			}
			b := tr.of[q]
			rel, abs := lt.partner(l, b, opRecv, r-q), lt.absolute(l, w, b, opRecv, r)
			// A relative link alone against one link is the same pair at
			// every member whose partner's window is b.
			pair := key.rel && len(mine) == len(ops) && abs < 0
			if pair && lt.memo[l].clean {
				continue
			}
			k = chanKey{from: r, to: q, tag: ctx.plan.tags[key.tag]}
			clean := fifo(mine, merge(&theirBuf, lt.ops(rel), lt.ops(abs)))
			if key.rel {
				lt.memo[l].clean = clean && pair
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

// linkKey names a link of a window: its kind, tag and peer spec.
type linkKey struct {
	peer, tag int32
	kind      opKind
	rel       bool
}

// links is the link table of the arena: window w's links are
// start[w] up to start[w+1], found by ids[w], link l's operations are
// opsl[at[l]:at[l+1]], and operation i's link is of[i] (-1: none). (A map
// per window keeps a lookup within one window's links: a rank evaluated
// on its own may have thousands.)
type links struct {
	arena        []op
	members      []int32
	ids          []map[uint64]int32
	start        []int32
	at, opsl, of []int32
	// has holds, per window, a bit per (kind, rel) it has a link of.
	has []uint8
	// memo is, per link, for a relative one the window last asked for by
	// partner (plus one: 0 is none), its partner link there, and whether
	// the two compared clean; nil when no window has a relative link.
	memo []linkMemo
	// answered is, per link of a window of one member, what absolute
	// found for it, plus two (0: not asked yet).
	answered []int32
}

type linkMemo struct {
	win, other int32
	clean      bool
}

// id packs the key into a map key: the peer, then the tag (an index of
// plan.tags, below 2^27) beside the bit linkBit gives.
func (k linkKey) id() uint64 {
	return uint64(uint32(k.peer)) | uint64(k.tag)<<32 | uint64(linkBit(k.kind, k.rel))<<59
}

func linkBit(kind opKind, rel bool) uint8 {
	if rel {
		return 1 << (2*kind + 1)
	}
	return 1 << (2 * kind)
}

// links is the link table of the arena, built by the first pass that
// asks for it.
func (c *Context) links() *links {
	if c.lt == nil {
		c.lt = newLinks(c)
	}
	return c.lt
}

func newLinks(ctx *Context) *links {
	tr := ctx.traces
	nw := len(tr.win) - 1
	lt := &links{arena: tr.ops, members: tr.members, ids: make([]map[uint64]int32, nw), start: make([]int32, 1, nw+1), has: make([]uint8, nw)}
	// stmtMemo remembers each statement's last link: a statement in a loop
	// issues a run of operations on one.
	type stmtMemo struct {
		key  linkKey
		w, l int32
	}
	memo := make([]stmtMemo, len(ctx.plan.stmts))
	for i := range memo {
		memo[i].w = -1
	}
	lt.of = make([]int32, len(tr.ops))
	// count[l+2] counts link l's operations, to become at in place.
	count, rel := []int32{0, 0}, false
	for w := int32(0); int(w) < nw; w++ {
		// The runs are counted first, to size the window's map.
		runs := 0
		for i := tr.win[w]; i < tr.win[w+1]; i++ {
			if o := &tr.ops[i]; o.definite() {
				k, m := linkKey{peer: o.peer, tag: o.key, kind: o.kind, rel: o.has(fRel)}, &memo[o.stmt]
				if m.key != k || m.l != 0 || m.w != w {
					*m = stmtMemo{k, w, 0}
					runs++
				}
			}
		}
		if runs > 0 {
			lt.ids[w] = make(map[uint64]int32, runs)
		}
		for i := tr.win[w]; i < tr.win[w+1]; i++ {
			o := &tr.ops[i]
			lt.of[i] = -1
			if !o.definite() {
				continue
			}
			k := linkKey{peer: o.peer, tag: o.key, kind: o.kind, rel: o.has(fRel)}
			m := &memo[o.stmt]
			if m.key != k || m.l == 0 || m.w != w {
				l, ok := lt.ids[w][k.id()]
				if !ok {
					l = int32(len(count) - 2)
					lt.ids[w][k.id()] = l
					lt.has[w] |= linkBit(k.kind, k.rel)
					count = append(count, 0)
					rel = rel || k.rel
				}
				*m = stmtMemo{k, w, l + 1}
			}
			lt.of[i] = m.l - 1
			count[m.l+1]++
		}
		lt.start = append(lt.start, int32(len(count)-2))
	}
	nl := len(count) - 2
	for l := 2; l < len(count); l++ {
		count[l] += count[l-1]
	}
	lt.opsl = make([]int32, count[nl+1])
	for i, l := range lt.of {
		if l >= 0 {
			lt.opsl[count[l+1]] = int32(i)
			count[l+1]++
		}
	}
	lt.at = count[:nl+1]
	if rel {
		lt.memo = make([]linkMemo, nl)
	}
	lt.answered = make([]int32, nl)
	return lt
}

// absolute is window b's absolute link of the given kind on the channel
// of link l, of window w, at rank r, or -1. Where w has one member the
// channel is fixed, and the answer is remembered, for the link found too
// when b has one member.
func (lt *links) absolute(l, w, b int32, kind opKind, r int32) int32 {
	if lt.answered[l] != 0 {
		return lt.answered[l] - 2
	}
	x := lt.find(b, kind, false, r, lt.key(l).tag)
	if lt.members[w] == 1 {
		lt.answered[l] = x + 2
		if x >= 0 && lt.members[b] == 1 {
			lt.answered[x] = l + 2
		}
	}
	return x
}

// key is link l's key, read off its first operation.
func (lt *links) key(l int32) linkKey {
	o := &lt.arena[lt.opsl[lt.at[l]]]
	return linkKey{peer: o.peer, tag: o.key, kind: o.kind, rel: o.has(fRel)}
}

// ops are link l's operations, none for -1.
func (lt *links) ops(l int32) []int32 {
	if l < 0 {
		return nil
	}
	return lt.opsl[lt.at[l]:lt.at[l+1]]
}

// find is window w's link of the given kind, tag and peer spec, or -1.
func (lt *links) find(w int32, kind opKind, rel bool, peer, tag int32) int32 {
	if lt.has[w]&linkBit(kind, rel) == 0 {
		return -1
	}
	if l, ok := lt.ids[w][linkKey{peer: peer, tag: tag, kind: kind, rel: rel}.id()]; ok {
		return l
	}
	return -1
}

// partner is window w's relative link of the given kind on link l's
// channel, whose offset is off: for a relative l the same for every
// member, so it is asked once per window.
func (lt *links) partner(l, w int32, kind opKind, off int32) int32 {
	k := lt.key(l)
	if !k.rel {
		return lt.find(w, kind, true, off, k.tag)
	}
	m := &lt.memo[l]
	if m.win != w+1 {
		*m = linkMemo{win: w + 1, other: lt.find(w, kind, true, off, k.tag)}
	}
	return m.other
}

// merge is a and b, each in trace order, in trace order; a itself when b
// is empty.
func merge(buf *[]int32, a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := (*buf)[:0]
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	*buf = out
	return out
}
