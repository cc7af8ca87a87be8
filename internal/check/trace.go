package check

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"mpisim/internal/ir"
	"mpisim/internal/stg"
	"mpisim/internal/symexpr"
)

// The trace evaluator abstractly executes the program once per rank at
// the checked configuration, producing the rank's sequence of
// communication operations. Values are tracked as known/unknown: inputs
// and rank-arithmetic resolve exactly (the symbolic-process-set case of
// paper §3.3); anything fed by received data or unbound inputs degrades
// to unknown, and communication reached under an unknown condition is
// recorded as a "may" operation, which downstream passes report as
// warnings rather than errors.
//
// Loops whose bodies neither communicate nor define structure-relevant
// variables are skipped wholesale (their definitions are invalidated),
// which is what keeps the analysis linear in the communication structure
// rather than in the iteration space — the checker-side analogue of the
// compiler's condensation.

// val is an abstract scalar value. uniform marks values provably equal
// on every rank (needed to keep values across Bcast). t is, on a rank
// recorded as its class's representative (classes.go), the term yielding
// the value from myid, and 0 for a value the whole class shares.
type val struct {
	known   bool
	uniform bool
	t       int32
	v       float64
}

func known(v float64, uniform bool) val { return val{known: true, uniform: uniform, v: v} }

// opKind classifies trace operations.
type opKind uint8

// Trace operation kinds.
const (
	opSend opKind = iota
	opRecv
	opColl
)

// Operation flags: peer is resolved (not data-dependent); elems names the
// section element count; the operation is reached under an unknown
// condition.
const (
	fPeerKnown uint8 = 1 << iota
	fElemsKnown
	fMay
)

// op is one communication operation of one rank's trace, 16 bytes: the
// arena holds one per operation of every rank.
type op struct {
	// peer is the resolved partner rank (send dest, recv src, bcast root).
	peer int32
	// ch is, for a definite send or receive with a peer on the process
	// grid, its (src, dst, tag) channel in traces.chans, and -1 for any
	// other point-to-point operation; for a collective it is the interned
	// key in plan.keys.
	ch   int32
	stmt int32
	// elems is the section's element count in traces.elems, or
	// elemsSpilled (traces.elemsOf reads it).
	elems uint16
	kind  opKind
	flags uint8
}

func (o *op) has(flag uint8) bool { return o.flags&flag != 0 }

// elemsSpilled is the op.elems of an operation whose count traces.spilled
// holds: traces.elems is full.
const elemsSpilled = math.MaxUint16

// chanKey names a point-to-point channel.
type chanKey struct {
	from, to int32
	tag      int
}

// boundsHit is a bounds violation observed during abstract execution.
type boundsHit struct {
	stmt int32
	rank int32
	may  bool
	msg  string
}

// traces is the arena all ranks' abstract execution results live in.
type traces struct {
	// ops holds every rank's operations back to back; rank r's trace is
	// ops[win[r]:win[r+1]]. (int32 indices: 2^31 operations would be a
	// 48 GB arena.)
	ops []op
	win []int32
	// chans is the channel table the point-to-point passes index by op.ch,
	// elems the element counts op.elems indexes, spilled by op index those
	// of the operations past them.
	chans   []chanKey
	elems   []float64
	spilled map[int32]float64
	hits    []boundsHit
	notes   []Diagnostic
	// truncated: some rank hit the analysis budget. uncertain: some
	// point-to-point operation is conditional or has a data-dependent
	// peer. mayColl: some collective is conditional.
	truncated, uncertain, mayColl bool
}

// describe renders the operation for diagnostics.
func (c *Context) describe(o *op) string {
	if o.kind == opColl {
		return c.plan.keys[o.ch]
	}
	word, tag := "SEND to", 0
	switch x := c.plan.stmts[o.stmt].(type) {
	case *ir.Send:
		tag = x.Tag
	case *ir.Recv:
		word, tag = "RECV from", x.Tag
	}
	if o.has(fPeerKnown) {
		return fmt.Sprintf("%s %d tag %d", word, o.peer, tag)
	}
	return fmt.Sprintf("%s ? tag %d", word, tag)
}

// arrTrack tracks the contents of a small array whose values can feed
// parallel structure (the NAS SP CSIZE idiom). ok turns false — and the
// whole array becomes unknown — on any untrackable store.
type arrTrack struct {
	ok   bool
	vals map[int]val
}

const (
	// maxTrackedElems bounds per-array value tracking.
	maxTrackedElems = 4096
	// maxSumTrips bounds bounded-summation evaluation.
	maxSumTrips = 4096
	// maxBoundsHits caps recorded bounds violations per rank.
	maxBoundsHits = 64
)

// buildTraces fills the arena with every rank's trace: at classFrom
// ranks or more, a rank at which the guards of an earlier rank's class
// hold is instantiated from it (classes.go); any other is evaluated.
func buildTraces(ctx *Context, classFrom int) *traces {
	tr := &traces{win: make([]int32, 1, ctx.Ranks+1)}
	ev := newEvaluator(ctx, tr)
	var rec *recorder
	if ctx.Ranks >= classFrom {
		rec = newRecorder(ev)
	}
	longest := 0
	for r := 0; r < ctx.Ranks; r++ {
		if !rec.instantiate(int32(r)) {
			ev.rec = rec.open(int32(r))
			ev.run(int32(r))
			ev.rec.close()
		}
		n := len(tr.ops)
		longest = max(longest, n-int(tr.win[r]))
		tr.win = append(tr.win, int32(n))
		// Size the remaining ranks' windows from the longest trace so far
		// (SPMD ranks differ by a few guarded operations) rather than
		// doubling the arena as it fills; growing at most eightfold keeps
		// an atypical first rank from reserving ranks times its trace.
		if rest := ctx.Ranks - r - 1; rest > 0 && cap(tr.ops)-n < longest {
			room := min(longest*rest+longest*rest/8, 7*n) + longest
			tr.ops = append(make([]op, 0, n+room), tr.ops...)
		}
	}
	return tr
}

// structuralVars computes the set of variable names that can affect
// parallel structure: communication arguments, control headers enclosing
// communication, condensed-task scaling functions, closed under def/use
// dependencies at name granularity. It is computed directly from the IR
// (independently of the slicer, so the slice pass can audit the slicer
// against it).
func structuralVars(p *ir.Program, g *stg.Graph) map[string]bool {
	rel := map[string]bool{}
	add := func(e ir.Expr) {
		if e != nil {
			ir.ScalarsIn(e, rel, rel)
		}
	}
	var seed func(body []ir.Stmt)
	seed = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.For:
				if ir.HasComm(x.Body) {
					add(x.Lo)
					add(x.Hi)
				}
				seed(x.Body)
			case *ir.If:
				if ir.HasComm(x.Then) || ir.HasComm(x.Else) {
					add(x.Cond)
				}
				seed(x.Then)
				seed(x.Else)
			case *ir.Timed:
				seed(x.Body)
			case *ir.Delay:
				add(x.Seconds)
			default:
				commArgs(s, add)
			}
		}
	}
	seed(p.Body)
	if g != nil {
		var rec func(ns []*stg.Node)
		rec = func(ns []*stg.Node) {
			for _, n := range ns {
				if n.Kind == stg.KindCondensed {
					add(n.Units)
				}
				rec(n.Children)
				rec(n.Then)
				rec(n.Else)
			}
		}
		rec(g.Roots)
	}
	closeUnderDefUse(p.Body, rel)
	return rel
}

// commArgs calls add on every expression a communication statement's
// parallel structure depends on: the peer or root, and the section bounds.
func commArgs(s ir.Stmt, add func(ir.Expr)) {
	var sec []ir.Range
	switch x := s.(type) {
	case *ir.Send:
		add(x.Dest)
		sec = x.Section
	case *ir.Recv:
		add(x.Src)
		sec = x.Section
	case *ir.Bcast:
		add(x.Root)
	}
	for _, rg := range sec {
		add(rg.Lo)
		add(rg.Hi)
	}
}

// closeUnderDefUse grows set to its closure under def/use dependencies at
// name granularity: whatever a statement defining a member uses joins.
func closeUnderDefUse(body []ir.Stmt, set map[string]bool) {
	for changed := true; changed; {
		changed = false
		ir.Walk(body, func(s ir.Stmt) bool {
			du := ir.StmtDefUse(s)
			for d := range du.Defs {
				if !set[d] {
					continue
				}
				for u := range du.Uses {
					if !set[u] {
						set[u] = true
						changed = true
					}
				}
				break
			}
			return true
		})
	}
}

// evaluator is the per-rank abstract machine. One instance serves every
// rank: run resets the slots, the array tracks and the budget.
type evaluator struct {
	ctx    *Context
	pl     *plan
	tr     *traces
	rank   int32
	env    []val
	dims   [][]val
	arrays []arrTrack
	// mayDepth > 0 while executing under an unknown condition.
	mayDepth int
	// nonUniform > 0 while executing under a rank-dependent condition;
	// definitions made there cannot be assumed equal across ranks.
	nonUniform int
	budget     int
	truncated  bool
	// cur anchors bounds hits raised inside expression evaluation.
	cur int32
	// dummyElems drives the dummy-buffer size check against the
	// compiler's replaced messages.
	dummyElems val
	// hitSeen deduplicates bounds hits per rank, noteSeen notes per run
	// (Run's dedupe would drop the repeats of later ranks anyway).
	hitSeen  map[hitKey]bool
	firstHit int
	noteSeen map[string]bool
	// chanIDs interns traces.chans. chanMemo remembers, per statement, the
	// channel of the rank's last peer, so it is consulted once per (rank,
	// statement, peer) rather than once per operation.
	chanIDs  map[chanKey]int32
	chanMemo []chanMemo
	bcasts   map[bcastKey]int32
	// elemIDs interns traces.elems by bit pattern; lastElems is the last
	// count interned.
	elemIDs   map[uint64]uint16
	lastElems struct {
		bits uint64
		id   uint16
	}
	// rec is non-nil on a rank recorded as a class's representative; only
	// then does any value carry a term.
	rec *recorder
}

type hitKey struct {
	stmt int32
	msg  string
}

// chanMemo is valid for rank stamp-1.
type chanMemo struct{ stamp, peer, ch int32 }

type bcastKey struct {
	stmt, root int32
	known      bool
}

func newEvaluator(ctx *Context, tr *traces) *evaluator {
	pl := ctx.plan
	ev := &evaluator{
		ctx: ctx, pl: pl, tr: tr,
		env:      make([]val, len(pl.init)),
		dims:     make([][]val, len(pl.arrays)),
		arrays:   make([]arrTrack, len(pl.arrays)),
		hitSeen:  map[hitKey]bool{},
		noteSeen: map[string]bool{},
		chanIDs:  map[chanKey]int32{},
		elemIDs:  map[uint64]uint16{},
		chanMemo: make([]chanMemo, len(pl.stmts)),
		bcasts:   map[bcastKey]int32{},
	}
	for i, d := range pl.dims {
		ev.dims[i] = make([]val, len(d))
	}
	for _, par := range pl.unbound {
		ev.note("input %s is not bound; dependent structure is approximate", par)
	}
	return ev
}

// run abstractly executes one rank, appending its trace to the arena.
func (ev *evaluator) run(rank int32) {
	ev.ctx.evals++
	ev.rank, ev.cur = rank, 0
	ev.budget, ev.truncated = ev.ctx.Opts.MaxOps, false
	ev.firstHit = len(ev.tr.hits)
	clear(ev.hitSeen)
	copy(ev.env, ev.pl.init)
	ev.env[ev.pl.myid] = ev.rec.myid(rank)
	// The dummy-buffer size is evaluated before any dimension is known
	// or any array tracked; the previous rank's must not show through.
	for i := range ev.arrays {
		clear(ev.dims[i])
		ev.arrays[i].ok = false
	}
	ev.dummyElems = val{}
	if ev.pl.dummy != nil {
		ev.dummyElems = ev.eval(ev.pl.dummy)
		ev.rec.exact(ev.dummyElems)
	}
	ev.evalDims()
	ev.block(ev.pl.body)
}

// evalDims evaluates every declared dimension in the start environment
// (inputs, P, myid), recording per-rank sizes and preparing small-array
// value tracking.
func (ev *evaluator) evalDims() {
	for a, d := range ev.pl.arrays {
		dims := ev.dims[a]
		elems := 1.0
		trackable := true
		for i, e := range ev.pl.dims[a] {
			dims[i] = ev.eval(e)
			if !ev.rec.streams() {
				ev.rec.exact(dims[i])
			}
			if !dims[i].known {
				trackable = false
				continue
			}
			if dims[i].v < 1 {
				ev.hit(0, "array %s dimension %d evaluates to %g (non-positive)",
					d.Name, i+1, dims[i].v)
				trackable = false
				continue
			}
			elems *= dims[i].v
		}
		tr := &ev.arrays[a]
		tr.ok = trackable && elems <= maxTrackedElems
		clear(tr.vals)
	}
}

// note records an Info diagnostic about analysis quality, once.
func (ev *evaluator) note(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if ev.noteSeen[msg] {
		return
	}
	ev.noteSeen[msg] = true
	ev.tr.notes = append(ev.tr.notes, ev.ctx.diag("trace", Info, nil, "%s", msg))
}

// hit records a bounds violation, deduplicated per (stmt, message).
func (ev *evaluator) hit(stmt int32, format string, args ...interface{}) {
	if len(ev.tr.hits)-ev.firstHit >= maxBoundsHits {
		return
	}
	key := hitKey{stmt, fmt.Sprintf(format, args...)}
	if ev.hitSeen[key] {
		return
	}
	ev.hitSeen[key] = true
	ev.tr.hits = append(ev.tr.hits, boundsHit{stmt: stmt, msg: key.msg, rank: ev.rank, may: ev.mayDepth > 0})
}

// --- expression evaluation ---

func (ev *evaluator) eval(e *pexpr) val {
	switch e.kind {
	case eNum:
		return known(e.v, true)
	case eScalar:
		return ev.env[e.slot]
	case eIdx:
		flat, ok, sel := ev.flatIndex(ev.cur, e.slot, e.index, true)
		if tr := &ev.arrays[e.slot]; ok && tr.ok {
			v := tr.vals[flat]
			v.t |= sel // the elements of a select carry no term
			return v
		}
	case eBin:
		l, r := ev.eval(e.l), ev.eval(e.r)
		if e.op >= symexpr.OpDiv && e.op <= symexpr.OpMod && ev.rec.streams() {
			ev.rec.divisor(r)
		}
		if !l.known || !r.known {
			return val{uniform: l.uniform && r.uniform} // opaque only of opaques and uniforms
		}
		v, err := symexpr.ApplyOp(e.op, l.v, r.v)
		if err != nil {
			ev.rec.exact(l)
			ev.rec.exact(r)
			return val{}
		}
		res := known(v, l.uniform && r.uniform)
		if l.t|r.t != 0 {
			res.t = ev.rec.bin(e.op, l, r)
		}
		return res
	case eCall:
		a := ev.eval(e.l)
		if !a.known || e.fn == nil {
			return val{}
		}
		res := known(e.fn(a.v), a.uniform)
		if a.t != 0 {
			res.t = ev.rec.term(term{op: tCall, l: a.t, call: e})
		}
		return res
	case eSum:
		return ev.sum(e)
	}
	return val{}
}

// sum is eval's eSum, kept out of the frame every nested eval pays for.
func (ev *evaluator) sum(e *pexpr) val {
	lo, hi := ev.eval(e.l), ev.eval(e.r)
	if !lo.known || !hi.known {
		return val{}
	}
	ev.rec.exact(lo)
	ev.rec.exact(hi)
	loI, hiI := int64(math.Floor(lo.v)), int64(math.Floor(hi.v))
	if hiI-loI+1 > maxSumTrips {
		ev.rec.inexact() // the terms go unseen
		return val{}
	}
	saved := ev.env[e.slot]
	sum := known(0, lo.uniform && hi.uniform)
	for i := loI; i <= hiI; i++ {
		ev.env[e.slot] = known(float64(i), sum.uniform)
		b := ev.eval(e.body)
		if !b.known {
			sum = val{}
			break
		}
		if sum.t|b.t != 0 {
			sum.t = ev.rec.bin(symexpr.OpAdd, sum, b)
		}
		sum.v += b.v
		sum.uniform = sum.uniform && b.uniform
	}
	ev.env[e.slot] = saved
	return sum
}

// flatIndex resolves an index list to a flattened offset, checking each
// subscript against the declared dimension. ok is false when any
// subscript or dimension is unknown. sel is, for a recorded read that
// the class keeps as a select from the array, the element's term.
func (ev *evaluator) flatIndex(stmt, array int32, index []*pexpr, read bool) (flat int, ok bool, sel int32) {
	dims := ev.dims[array]
	stride := 1
	ok = true
	for d, e := range index {
		iv := ev.eval(e)
		if !iv.known {
			ev.rec.inexact()
			ok = false
			continue
		}
		if iv.t != 0 {
			sel = ev.rec.subscript(iv, array, read && len(index) == 1)
		}
		if d < len(dims) && ev.rec.streams() {
			ev.rec.inRange(iv, dims[d])
		}
		if iv.v < 1 {
			ev.hit(stmt, "index %g of %s dimension %d is below 1", iv.v, ev.pl.arrays[array].Name, d+1)
			ok = false
			continue
		}
		if d < len(dims) && dims[d].known {
			if iv.v > dims[d].v {
				ev.hit(stmt, "index %g of %s dimension %d exceeds declared size %g",
					iv.v, ev.pl.arrays[array].Name, d+1, dims[d].v)
				ok = false
				continue
			}
			flat += (int(iv.v) - 1) * stride
			stride *= int(dims[d].v)
		} else {
			ok = false
		}
	}
	return flat, ok, sel
}

// killArray invalidates an array's tracked contents.
func (ev *evaluator) killArray(array int32) { ev.arrays[array].ok = false }

func (ev *evaluator) store(ps *pstmt, v val) {
	flat, ok, _ := ev.flatIndex(ps.id, ps.slot, ps.index, false)
	tr := &ev.arrays[ps.slot]
	if !tr.ok {
		return
	}
	if !ok || ev.mayDepth > 0 {
		// Unknown element touched (or uncertain execution): the whole
		// array becomes unknown.
		tr.ok = false
		return
	}
	if ev.nonUniform > 0 {
		v.uniform = false
	}
	if tr.vals == nil {
		tr.vals = map[int]val{}
	}
	tr.vals[flat] = v
	ev.rec.stored(ps.slot)
}

// --- statement execution ---

func (ev *evaluator) block(body []pstmt) {
	for i := range body {
		if ev.truncatedNow() {
			return
		}
		ev.stmt(&body[i])
	}
}

func (ev *evaluator) truncatedNow() bool {
	if ev.budget > 0 {
		return false
	}
	if !ev.truncated {
		ev.truncated, ev.tr.truncated = true, true
		ev.tr.notes = append(ev.tr.notes, ev.ctx.diag("trace", Warning, nil,
			"analysis budget exhausted on rank %d; trace truncated (raise MaxOps)", ev.rank))
	}
	return true
}

func (ev *evaluator) stmt(ps *pstmt) {
	ev.budget--
	ev.cur = ps.id
	switch ps.kind {
	case sAssign, sStore:
		v := ev.eval(ps.e)
		if ev.mayDepth > 0 {
			v = val{}
		} else if ev.nonUniform > 0 {
			v.uniform = false
		}
		if ps.kind == sStore {
			ev.store(ps, v)
		} else {
			ev.env[ps.slot] = v
		}
	case sReadInput:
		ev.env[ps.slot] = val{}
		if ev.mayDepth == 0 {
			ev.env[ps.slot] = ps.input
		}
	case sFor:
		ev.forStmt(ps)
	case sIf:
		ev.ifStmt(ps)
	case sSend:
		ev.commStmt(ps, opSend)
	case sRecv:
		ev.commStmt(ps, opRecv)
		ev.killArray(ps.slot)
	case sBcast:
		ev.bcastStmt(ps)
	case sDelay:
		if ev.rec.streams() {
			ev.delayInputs(ps.e, false)
		} else {
			ev.eval(ps.e)
		}
	case sTimed:
		ev.rec.inexact() // it reads the clock
		ev.block(ps.body)
	case sColl:
		// Allreduce, Barrier, ReadTaskTimes: the values are unknown
		// afterwards, the operation synchronizes. To a stream the task
		// times are opaque: unknown, but one table for every rank.
		tt := val{uniform: ps.taskTimes && ev.rec.streams()}
		for _, v := range ps.vars {
			ev.env[v] = tt
		}
		ev.emit(op{kind: opColl, stmt: ps.id, ch: ps.key})
	}
}

// emit appends an operation to the rank's trace, marking it conditional
// when reached under an unknown condition.
func (ev *evaluator) emit(o op) {
	if ev.mayDepth > 0 {
		o.flags |= fMay
		if o.kind == opColl {
			ev.tr.mayColl = true
		}
	}
	ev.tr.ops = append(ev.tr.ops, o)
}

// peerOf converts a resolved peer value to a rank, saturating so that an
// absurd value can never wrap onto the process grid. A non-finite value
// is as data-dependent as an unknown one: min and max pass NaN through,
// and what int32(NaN) yields depends on the platform.
func peerOf(v val) (peer int32, ok bool) {
	if !v.known || v.v-v.v != 0 { // x-x != 0 holds for NaN and ±Inf alone
		return 0, false
	}
	return int32(max(math.MinInt32, min(math.MaxInt32, v.v))), true
}

func (ev *evaluator) commStmt(ps *pstmt, kind opKind) {
	peer := ev.eval(ps.e)
	o := op{kind: kind, stmt: ps.id, ch: -1}
	var peerKnown bool
	if o.peer, peerKnown = peerOf(peer); peerKnown {
		o.flags |= fPeerKnown
	}
	array := ev.pl.arrays[ps.slot].Name
	dims := ev.dims[ps.slot]
	elems := 1.0
	elemsKnown := true
	for d, rg := range ps.sec {
		lo, hi := ev.eval(rg.lo), ev.eval(rg.hi)
		ev.rec.exact(lo)
		ev.rec.exact(hi)
		if !lo.known || !hi.known {
			ev.rec.inexact()
		} else if d < len(dims) && ev.rec.streams() && !ev.rec.dummy(ps) {
			ev.rec.inRange(lo, dims[d]) // pack and unpack check the section
			ev.rec.inRange(hi, dims[d])
		}
		if lo.known && lo.v < 1 {
			ev.hit(ps.id, "section lower bound %g of %s dimension %d is below 1", lo.v, array, d+1)
		}
		if hi.known && d < len(dims) && dims[d].known && hi.v > dims[d].v {
			ev.hit(ps.id, "section upper bound %g of %s dimension %d exceeds declared size %g",
				hi.v, array, d+1, dims[d].v)
		}
		if lo.known && hi.known {
			elems *= max(hi.v-lo.v+1, 0)
		} else {
			elemsKnown = false
		}
	}
	if elemsKnown {
		o.elems = ev.elemsID(elems)
		o.flags |= fElemsKnown
		// Compiler dummy-buffer audit: a message the slicer routes
		// through the dummy buffer must fit it.
		if ps.replaced && ev.dummyElems.known && elems > ev.dummyElems.v {
			ev.hit(ps.id, "replaced message (%g elems) exceeds the dummy buffer (%g elems)",
				elems, ev.dummyElems.v)
		}
	}
	definite := peerKnown && ev.mayDepth == 0
	if !definite {
		ev.tr.uncertain = true
	} else if o.peer >= 0 && int(o.peer) < ev.ctx.Ranks && !ev.rec.streams() {
		o.ch = ev.channel(ps, kind, o.peer) // no pass reads a partition's
	}
	if ev.rec != nil {
		ev.rec.comm(ps, peer, &o, definite)
	}
	ev.emit(o)
}

// elemsID interns the element count of the operation emitted next,
// spilling it past elemsSpilled counts.
func (ev *evaluator) elemsID(v float64) uint16 {
	bits := math.Float64bits(v)
	if l := &ev.lastElems; l.bits == bits && len(ev.tr.elems) > 0 {
		return l.id
	}
	id, ok := ev.elemIDs[bits]
	if !ok {
		if len(ev.tr.elems) == elemsSpilled {
			if ev.tr.spilled == nil {
				ev.tr.spilled = map[int32]float64{}
			}
			ev.tr.spilled[int32(len(ev.tr.ops))] = v
			return elemsSpilled
		}
		id = uint16(len(ev.tr.elems))
		ev.tr.elems = append(ev.tr.elems, v)
		ev.elemIDs[bits] = id
	}
	ev.lastElems.bits, ev.lastElems.id = bits, id
	return id
}

// elemsOf is the section element count of operation i.
func (tr *traces) elemsOf(i int32) float64 {
	if id := tr.ops[i].elems; id != elemsSpilled {
		return tr.elems[id]
	}
	return tr.spilled[i]
}

// channel interns the (src, dst, tag) channel of a definite operation.
func (ev *evaluator) channel(ps *pstmt, kind opKind, peer int32) int32 {
	m := &ev.chanMemo[ps.id]
	if m.stamp == ev.rank+1 && m.peer == peer {
		return m.ch
	}
	k := chanKey{from: ev.rank, to: peer, tag: ps.tag}
	if kind == opRecv {
		k.from, k.to = peer, ev.rank
	}
	ch, ok := ev.chanIDs[k]
	if !ok {
		ch = int32(len(ev.tr.chans))
		ev.tr.chans = append(ev.tr.chans, k)
		ev.chanIDs[k] = ch
	}
	*m = chanMemo{ev.rank + 1, peer, ch}
	return ch
}

func (ev *evaluator) bcastStmt(ps *pstmt) {
	root := ev.eval(ps.e)
	ev.rec.exact(root)
	if !root.known {
		ev.rec.inexact()
	}
	o := op{kind: opColl, stmt: ps.id}
	var rootKnown bool
	o.peer, rootKnown = peerOf(root)
	bk := bcastKey{stmt: ps.id, known: rootKnown}
	if rootKnown {
		o.flags |= fPeerKnown
		bk.root = o.peer
	}
	key, ok := ev.bcasts[bk]
	if !ok {
		rootStr := "?"
		if rootKnown {
			rootStr = strconv.Itoa(int(o.peer))
		}
		key = ev.pl.internKey("BCAST root=" + rootStr + ps.suffix)
		ev.bcasts[bk] = key
	}
	o.ch = key
	for _, v := range ps.vars {
		cur := ev.env[v]
		if rootKnown && ev.mayDepth == 0 && cur.known && !cur.uniform {
			// Only here does it matter which rank is the root.
			ev.rec.decide(symexpr.OpEQ, ev.rec.myid(ev.rank), known(float64(o.peer), true))
		}
		switch {
		case ev.mayDepth > 0:
			ev.env[v] = val{}
		case rootKnown && o.peer == ev.rank:
			// The root keeps its own value (it is the source).
		case cur.known && cur.uniform:
			// Provably rank-independent: the broadcast is a no-op.
		default:
			ev.env[v] = val{}
		}
	}
	ev.emit(o)
}

func (ev *evaluator) forStmt(ps *pstmt) {
	lo, hi := ev.eval(ps.e), ev.eval(ps.e2)
	// A loop that neither communicates nor defines a structure-relevant
	// variable is pure computation: skip the iteration space, invalidate
	// its definitions — except for a stream, which is charged for every
	// instruction, and whose class has its bounds whatever the trip count.
	skip := !ps.hasComm && !ps.structural && !ev.rec.streams()
	if lo.known && hi.known && ev.mayDepth == 0 {
		loI, hiI := int64(math.Floor(lo.v)), int64(math.Floor(hi.v))
		ev.rec.decide(tZeroTrip, lo, hi)
		if ev.rec.streams() {
			ev.rec.exact(lo)
			ev.rec.exact(hi)
		}
		if hiI < loI {
			// Zero-trip loop: the body never executes and no state
			// changes beyond the induction variable.
			ev.env[ps.slot] = val{}
			return
		}
		if skip {
			ev.killDefs(ps)
			return
		}
		ev.rec.exact(lo)
		ev.rec.exact(hi)
		uniform := lo.uniform && hi.uniform && ev.nonUniform == 0
		for i := loI; i <= hiI; i++ {
			if ev.truncatedNow() {
				return
			}
			ev.env[ps.slot] = known(float64(i), uniform)
			ev.block(ps.body)
		}
		ev.env[ps.slot] = val{}
		return
	}
	// Unknown trip count (or already uncertain execution).
	ev.rec.inexact()
	if skip {
		ev.killDefs(ps)
		return
	}
	if ps.hasComm && ev.mayDepth == 0 {
		ev.note("loop %s has an unknown trip count but communicates; approximating one iteration",
			ir.StmtHead(ev.pl.stmts[ps.id]))
	}
	ev.mayDepth++
	ev.env[ps.slot] = val{}
	ev.block(ps.body)
	ev.mayDepth--
	ev.killDefs(ps)
}

func (ev *evaluator) ifStmt(ps *pstmt) {
	c := ev.eval(ps.e)
	if c.known && ev.mayDepth == 0 {
		ev.rec.decide(symexpr.OpNE, c, val{})
		if !c.uniform {
			ev.nonUniform++
		}
		if c.v != 0 {
			ev.block(ps.body)
		} else {
			ev.block(ps.els)
		}
		if !c.uniform {
			ev.nonUniform--
		}
		return
	}
	// Unknown condition: both arms may execute. Walk both to collect
	// may-operations, then invalidate everything either arm defines.
	ev.rec.inexact()
	ev.mayDepth++
	ev.block(ps.body)
	ev.block(ps.els)
	ev.mayDepth--
	ev.killDefs(ps)
}

// killDefs invalidates every variable the statement (including nested
// bodies) defines.
func (ev *evaluator) killDefs(ps *pstmt) {
	for _, s := range ps.killScalars {
		ev.env[s] = val{}
	}
	for _, a := range ps.killArrays {
		ev.killArray(a)
	}
}

// sortedNames is a small shared helper for deterministic output.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
