package check

import (
	"fmt"
	"math"
	"slices"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/symexpr"
)

// Rank classes: buildTraces evaluates one representative per class of
// ranks and gives every other rank the representative's trace shifted to
// it (DESIGN.md "Static verification" argues it in full). While a
// representative runs, a value derived from myid carries a hash-consed
// term over myid, and wherever such a value shapes the trace the class
// gets the guard term(myid) == observed, a decision (a condition's truth,
// a peer's offset from myid, whether a loop runs at all) being a term
// itself. A rank at which every guard holds takes each decision the
// representative took, so its trace is the representative's but for what
// names the rank — relative peers, the on-grid test, the channel, a
// bounds hit's witness — which is redone per member.

const (
	// classMinRanks is the rank count from which Run records classes, at
	// the measured break-even: a recorded representative costs about
	// three plain evaluations and the apps fold to 9-16 classes.
	classMinRanks = 36
	// maxClasses bounds the representatives recorded, and none is once
	// the term table (about 100 bytes a term) holds maxTerms; from there
	// the ranks that match no class are evaluated one by one.
	maxClasses = 64
	maxTerms   = 1 << 18
	// perRank as run's classFrom evaluates every rank.
	perRank        = math.MaxInt
	termMyid int32 = 1 // the rank itself, the first term interned
)

// Term operators besides symexpr.Op's: the rank; an intrinsic call;
// element l of snapshot r; forStmt's "a loop from l to r does not run".
const (
	tMyid symexpr.Op = -1 - iota
	tCall
	tSelect
	tZeroTrip
)

// term is op over the terms l and r, 0 standing for the constant with
// bit pattern bits (at most one operand is constant). call is a tCall's
// call site: an intrinsic is identified by where it is applied.
type term struct {
	op   symexpr.Op
	l, r int32
	bits uint64
	call *pexpr
}

// memo is a term's value at rank stamp-1, and the serial of the last
// class guarding it: a term has one value per rank, so one guard per class.
type memo struct {
	stamp, seen int32
	ok          bool
	v           float64
}

// guard demands that term t evaluate to the bit pattern want.
type guard struct {
	t    int32
	want uint64
}

// peerSpec is a point-to-point statement's operation as its class sees
// it: the peer is an offset from the rank (rel) or a rank; noch marks an
// operation without a channel (conditional), whose peer alone is redone.
type peerSpec struct {
	ps        *pstmt
	rel, noch bool
	peer      int64
}

// class is a representative's windows in traces.ops, traces.hits and
// recorder.guards, and what to redo per member: patch{i, k} takes the op
// at offset i of the window from specs[k], whose peer and channel at
// rank stamp-1 resolved[k] holds.
type class struct {
	rep, lo, hi    int32
	h0, h1, g0, g1 int
	specs          []peerSpec
	patches        []struct{ i, k int32 }
	resolved       []struct{ stamp, peer, ch int32 }
}

// recorder owns the term table and the classes of one buildTraces.
type recorder struct {
	ev      *evaluator
	terms   []term
	ids     map[term]int32
	memo    []memo
	guards  []guard
	classes []class
	// serial counts the representatives recorded; stopped: no more will be.
	serial  int32
	stopped bool
	// stream: the classes are Partition's, which fix a rank's whole call
	// stream; gaveUp: the open one's stream is not known (inexact).
	stream, gaveUp bool
	// cur is the open class and specIDs its specs.
	cur     class
	specIDs map[peerSpec]int32
	// snaps are the array contents select terms read; snapOf is an array's
	// current one (0: none taken since its last store, -1: it has none).
	snaps  [][]float64
	snapOf []int32
}

func newRecorder(ev *evaluator) *recorder {
	r := &recorder{ev: ev, ids: map[term]int32{}, specIDs: map[peerSpec]int32{},
		snaps: [][]float64{nil}, snapOf: make([]int32, len(ev.arrays))}
	r.term(term{}) // 0 is "no term"
	r.term(term{op: tMyid})
	return r
}

// term interns a node.
func (r *recorder) term(n term) int32 {
	id, ok := r.ids[n]
	if !ok {
		id = int32(len(r.terms))
		r.terms, r.memo = append(r.terms, n), append(r.memo, memo{})
		r.ids[n] = id
	}
	return id
}

// bin is the term of op over two values at least one of which has one.
func (r *recorder) bin(op symexpr.Op, l, rv val) int32 {
	n := term{op: op, l: l.t, r: rv.t}
	if l.t == 0 {
		n.bits = math.Float64bits(l.v)
	} else if rv.t == 0 {
		n.bits = math.Float64bits(rv.v)
	}
	return r.term(n)
}

// at evaluates term t at a rank; ok is false where the evaluator would
// have had no value (a failed operator, a subscript off the snapshot).
func (r *recorder) at(t, rank int32) (v float64, ok bool) {
	if m := &r.memo[t]; m.stamp == rank+1 {
		return m.v, m.ok
	}
	n := &r.terms[t]
	c := math.Float64frombits(n.bits)
	l, rv, ok := c, c, true
	if n.l != 0 {
		l, ok = r.at(n.l, rank)
	}
	if ok && n.r != 0 && n.op != tSelect {
		rv, ok = r.at(n.r, rank)
	}
	switch {
	case !ok:
	case n.op == tMyid:
		v = float64(rank)
	case n.op == tCall:
		v = n.call.fn(l)
	case n.op == tSelect:
		tab := r.snaps[n.r]
		if ok = l >= 1 && l <= float64(len(tab)); ok {
			v = tab[int(l)-1]
		}
	case n.op == tZeroTrip:
		if int64(math.Floor(rv)) < int64(math.Floor(l)) {
			v = 1
		}
	default:
		var err error
		v, err = symexpr.ApplyOp(n.op, l, rv)
		ok = err == nil
	}
	r.memo[t].stamp, r.memo[t].ok, r.memo[t].v = rank+1, ok, v
	return v, ok
}

// myid is the rank's number as the start environment holds it.
func (r *recorder) myid(rank int32) val {
	if r == nil {
		return known(float64(rank), false)
	}
	return val{known: true, t: termMyid, v: float64(rank)}
}

// guard demands of the class what term t yields at its representative.
// It is out of line: exact, inlined all over the evaluator, must cost an
// unrecorded rank one compare.
//
//go:noinline
func (r *recorder) guard(t int32) {
	if t != 0 && r.memo[t].seen != r.serial {
		r.memo[t].seen = r.serial
		want, _ := r.at(t, r.cur.rep)
		r.guards = append(r.guards, guard{t, math.Float64bits(want)})
	}
}

// exact guards a value the trace depends on as it is.
func (r *recorder) exact(v val) {
	if v.t != 0 {
		r.guard(v.t)
	}
}

// decide guards the outcome of op over two values, for a decision that
// does not need the values themselves; its test is all that is inlined.
func (r *recorder) decide(op symexpr.Op, l, rv val) {
	if l.t|rv.t != 0 {
		r.decided(op, l, rv)
	}
}

func (r *recorder) decided(op symexpr.Op, l, rv val) { r.guard(r.bin(op, l, rv)) }

// subscript guards a term-carrying subscript exactly (the element touched
// is state) unless it is the in-range subscript of a read from an array
// with a snapshot: that one has to stay in range, no more, and the select
// term returned stands for the element.
func (r *recorder) subscript(iv val, array int32, read bool) int32 {
	if s := r.snapshot(array, read); s > 0 && iv.v >= 1 && iv.v <= float64(len(r.snaps[s])) {
		r.decide(symexpr.OpLT, iv, known(1, true))
		r.decide(symexpr.OpGT, iv, known(float64(len(r.snaps[s])), true))
		if r.stream {
			// The select truncates, the interpreter rounds: alike only
			// where the fractions are.
			r.decided(symexpr.OpMod, iv, known(1, true))
		}
		return r.term(term{op: tSelect, l: iv.t, r: s})
	}
	r.exact(iv)
	return 0
}

// snapshot is the array's contents as a table when it is tracked,
// one-dimensional and every element known, term-free and alike in
// uniformity — what any member of the class holds too.
func (r *recorder) snapshot(array int32, read bool) int32 {
	tr, dims := &r.ev.arrays[array], r.ev.dims[array]
	if !read || !tr.ok || len(dims) != 1 {
		return -1
	}
	if r.snapOf[array] != 0 {
		return r.snapOf[array]
	}
	r.snapOf[array] = -1
	tab := make([]float64, int(dims[0].v))
	for i := range tab {
		e := tr.vals[i]
		if !e.known || e.t != 0 || e.uniform != tr.vals[0].uniform {
			return -1
		}
		tab[i] = e.v
	}
	s := slices.IndexFunc(r.snaps, func(t []float64) bool { return slices.Equal(t, tab) })
	if s < 0 {
		s = len(r.snaps)
		r.snaps = append(r.snaps, tab)
	}
	r.snapOf[array] = int32(s)
	return int32(s)
}

// stored drops the array's snapshot.
func (r *recorder) stored(array int32) {
	if r != nil {
		r.snapOf[array] = 0
	}
}

// comm records what the operation about to be emitted takes from the
// rank: a peer that is myid plus an integer is guarded as that offset and
// redone per member, any other term-carrying peer exactly; a definite
// operation's channel names the rank, so it is redone whatever the peer.
func (r *recorder) comm(ps *pstmt, peer val, o *op, definite bool) {
	if r.stream {
		r.streamPeer(ps, peer, o) // a partition instantiates no trace
		return
	}
	s := peerSpec{ps: ps, noch: !definite, peer: int64(o.peer)}
	if peer.t != 0 && o.has(fPeerKnown) && peer.v == math.Trunc(peer.v) && math.Abs(peer.v) < 1<<31 {
		r.decide(symexpr.OpSub, peer, r.myid(r.cur.rep))
		s.rel, s.peer = true, s.peer-int64(r.cur.rep)
	} else {
		r.exact(peer)
		if !definite {
			return
		}
	}
	k, ok := r.specIDs[s]
	if !ok {
		k = int32(len(r.cur.specs))
		r.cur.specs = append(r.cur.specs, s)
		r.specIDs[s] = k
	}
	r.cur.patches = append(r.cur.patches, struct{ i, k int32 }{int32(len(r.ev.tr.ops)) - r.cur.lo, k})
}

// classBound is the one diagnostic classes add.
const classBound = "rank classes not recorded past rank %d (%d classes, %d terms); " +
	"the ranks that match none are evaluated one by one"

// open starts recording rank as a representative; nil past a bound.
func (r *recorder) open(rank int32) *recorder {
	if r == nil || r.stopped {
		return nil
	}
	if r.serial >= maxClasses || len(r.terms) >= maxTerms {
		r.stopped = true
		r.ev.note(classBound, rank, len(r.classes), len(r.terms))
		return nil
	}
	r.serial++
	r.cur = class{rep: rank, lo: int32(len(r.ev.tr.ops)), h0: len(r.ev.tr.hits), g0: len(r.guards)}
	clear(r.specIDs)
	clear(r.snapOf)
	return r
}

// close files the representative's class, unless the budget truncated
// its trace (that one's note names the rank; inexact truncates), and
// reports whether it did.
func (r *recorder) close() bool {
	if r == nil {
		return false
	}
	if r.ev.truncated {
		r.guards = r.guards[:r.cur.g0]
		return false
	}
	r.cur.hi, r.cur.h1, r.cur.g1 = int32(len(r.ev.tr.ops)), len(r.ev.tr.hits), len(r.guards)
	r.cur.resolved = make([]struct{ stamp, peer, ch int32 }, len(r.cur.specs))
	r.classes = append(r.classes, r.cur)
	return true
}

func (r *recorder) holds(c *class, rank int32) bool {
	for _, g := range r.guards[c.g0:c.g1] {
		if v, ok := r.at(g.t, rank); !ok || math.Float64bits(v) != g.want {
			return false
		}
	}
	return true
}

// match moves the first class whose guards hold at rank to the front,
// where the next rank tries it first, and reports whether there is one.
func (r *recorder) match(rank int32) bool {
	k := slices.IndexFunc(r.classes, func(c class) bool { return r.holds(&c, rank) })
	if k < 0 {
		return false
	}
	r.classes[0], r.classes[k] = r.classes[k], r.classes[0]
	return true
}

// instantiate appends rank's trace and bounds hits from the first class
// whose guards hold at it, if any.
func (r *recorder) instantiate(rank int32) bool {
	if r == nil || !r.match(rank) {
		return false
	}
	c, tr := &r.classes[0], r.ev.tr
	r.ev.rank = rank
	base := len(tr.ops)
	tr.ops = append(tr.ops, tr.ops[c.lo:c.hi]...)
	for i := c.lo; i < c.hi && len(tr.spilled) > 0; i++ {
		if v, ok := tr.spilled[i]; ok {
			tr.spilled[int32(base)+i-c.lo] = v
		}
	}
	for _, p := range c.patches {
		s, m := &c.specs[p.k], &c.resolved[p.k]
		if m.stamp != rank+1 {
			m.stamp, m.peer, m.ch = rank+1, int32(s.peer), -1
			if s.rel {
				m.peer, _ = peerOf(known(float64(s.peer+int64(rank)), false))
			}
			if !s.noch && m.peer >= 0 && int(m.peer) < r.ev.ctx.Ranks {
				m.ch = r.ev.channel(s.ps, tr.ops[base+int(p.i)].kind, m.peer)
			}
		}
		o := &tr.ops[base+int(p.i)]
		o.peer, o.ch = m.peer, m.ch
	}
	for _, h := range tr.hits[c.h0:c.h1] {
		h.rank = rank
		tr.hits = append(tr.hits, h)
	}
	return true
}

// Partition splits the ranks of a compiler-emitted program at a
// configuration into classes whose members issue their representative's
// whole call stream with point-to-point peers shifted by their distance
// from it (DESIGN.md "Class-native AM"). rep[r] is rank r's
// representative, r for one, or -1 for a rank no class covers, and why
// then says why. No representative is opened past the first that gives
// up (its stream depends on a value it cannot know, or it runs past the
// budget) or past maxClasses: the ranks matching no class recorded by
// then run on their own, and a give-up costs one evaluation, not one a
// rank.
func Partition(p *ir.Program, ranks int, inputs map[string]float64) (rep []int32, why string, err error) {
	if err := p.Validate(); err != nil {
		return nil, "", err
	}
	ctx := &Context{Program: p, Opts: Options{Ranks: ranks, Inputs: inputs, MaxOps: 1 << 20}, Ranks: ranks}
	ctx.plan, ctx.traces = compilePlan(ctx), &traces{}
	ev := newEvaluator(ctx, ctx.traces)
	rec := newRecorder(ev)
	rec.stream = true
	rep = make([]int32, ranks)
	for r := range rep {
		switch {
		case rec.match(int32(r)):
			rep[r] = rec.classes[0].rep
		case why != "":
			rep[r] = -1
		case rec.open(int32(r)) == nil:
			rep[r], why = -1, fmt.Sprintf("the rank classes ran out at rank %d (%d classes)", r, len(rec.classes))
		default:
			ev.rec, rec.gaveUp, rep[r] = rec, false, int32(r)
			ev.run(int32(r))
			switch {
			case rec.close():
			case rec.gaveUp:
				rep[r], why = -1, fmt.Sprintf("the call stream of rank %d depends on values known only as it runs, such as received or reduced data", r)
			default:
				rep[r], why = -1, fmt.Sprintf("rank %d runs past the partition's budget of %d statements", r, ctx.Opts.MaxOps)
			}
		}
	}
	return rep, why, nil
}

func (r *recorder) streams() bool { return r != nil && r.stream }

// inexact gives up the open class of a partition: its stream depends on
// something not known at its representative. Evaluation stops there and
// close files nothing.
func (r *recorder) inexact() {
	if r.streams() {
		r.ev.budget, r.gaveUp = 0, true
	}
}

// dummy reports whether a communication moves the dummy buffer, whose
// contents nothing reads.
func (r *recorder) dummy(ps *pstmt) bool {
	return r.ev.pl.arrays[ps.slot].Name == compiler.DummyBufferName
}

// streamPeer guards a peer as a replay moves it: by its offset from the
// rank, the wildcard (mpi.AnySource) as it is. A receive into the
// program's own data is inexact: the representative runs without it.
func (r *recorder) streamPeer(ps *pstmt, peer val, o *op) {
	switch {
	case !o.has(fPeerKnown) || peer.v != math.Trunc(peer.v) || ps.kind == sRecv && !r.dummy(ps):
		r.inexact()
	case peer.v == -1:
		r.exact(peer)
	default:
		r.decide(symexpr.OpSub, peer, r.myid(r.cur.rep))
	}
}

// divisor guards whether a division faults; an opaque divisor does on
// every rank or on none.
func (r *recorder) divisor(d val) {
	switch {
	case d.t != 0:
		r.decided(symexpr.OpEQ, d, known(0, true))
	case !d.known && !d.uniform:
		r.inexact()
	}
}

// inRange guards a subscript or section bound inside or outside an
// extent as the interpreter clamps it: a partition does not guard
// extents, which may differ between members.
func (r *recorder) inRange(iv, dim val) {
	if !dim.known {
		r.inexact()
		return
	}
	r.decide(symexpr.OpLT, iv, known(1, true))
	dm := known(math.Max(dim.v, 1), dim.uniform)
	if dim.t != 0 {
		dm.t = r.bin(symexpr.OpMax, dim, known(1, true))
	}
	r.decide(symexpr.OpGT, iv, dm)
}

// delayInputs guards what a delay's seconds are computed from. A known
// part without a summation is guarded as it is (the interpreter applies
// the same operators to the same operands); the task times are opaque. A
// summation, whose bounds the interpreter rounds where the evaluator
// floors them, is guarded by its bounds and its body's scalars, the
// index a class constant; an element read in its body is inexact.
func (ev *evaluator) delayInputs(e *pexpr, inSum bool) {
	if !inSum && !e.sum {
		if v := ev.eval(e); v.known || v.uniform {
			ev.rec.exact(v)
			return
		}
	}
	switch e.kind {
	case eNum:
	case eScalar:
		v := ev.env[e.slot]
		ev.rec.exact(v)
		if !v.known && !v.uniform {
			ev.rec.inexact()
		}
	case eBin:
		ev.delayInputs(e.l, inSum)
		ev.delayInputs(e.r, inSum)
	case eCall:
		ev.delayInputs(e.l, inSum)
	case eSum:
		ev.delayInputs(e.l, inSum)
		ev.delayInputs(e.r, inSum)
		saved := ev.env[e.slot]
		ev.env[e.slot] = known(0, true)
		ev.delayInputs(e.body, true)
		ev.env[e.slot] = saved
	default: // an unknown element, an element in a summation
		ev.rec.inexact()
	}
}
