package interp

import (
	"fmt"
	"math"
	"slices"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/slicer"
)

// dummyBufferName mirrors compiler.DummyBufferName, the shared
// communication stand-in buffer of simplified (MPI-SIM-AM) programs.
// interp cannot import compiler (compiler's in-package tests import
// interp); the compiler's own tests pin the constant's value.
const dummyBufferName = "dummy_buf"

// opcode selects one case of the execution loop (exec.go). Operands a..e
// are float registers unless the comment says otherwise.
type opcode uint8

const (
	opHalt opcode = iota // stop; the next exec call resumes behind it

	opMov   // a = b
	opRound // a = math.Round(b)
	opAdd   // a = b + c
	opSub   // a = b - c
	opMul   // a = b * c
	opDiv   // a = b / c, faulting on c == 0
	opApply // a = symexpr.ApplyOp(d, b, c): idiv, ceildiv, mod, min, max, comparison values
	opCall  // a = intrinsic number c applied to b

	opAddr1   // address register a = checked offset of array b at (c); e: load-style fault text
	opAddr2   // ... at (c, d); e: load-style fault text
	opAddr3   // ... at (c, d, e)
	opAddrN   // ... at registers c..c+d-1 (d subscripts)
	opLoad    // a = array b at address register c
	opStore   // array a at address register b = c
	opAddLoad // a = b + array c at address register d
	opSubLoad // a = b - array c at address register d

	opJump    // charge b; pc = a
	opBnLT    // charge d; unless a < b: pc = c
	opBnLE    // charge d; unless a <= b: pc = c
	opBrZ     // charge d; if a == 0: pc = c
	opBrProf  // opBrZ that also counts the outcome under branch ordinal b
	opCount   // charge and skip the loop counts[a] the opForInit behind opens, when its subscripts are proven in range
	opRow     // run the loop rows[a] by strips of trips: an innermost loop as far as each strip's proof holds, a nest wholly once its entry proof holds; the body follows
	opForInit // charge e; counter a, limit a+1 = b, c; enter the loop closed by the opForNext at d, or skip it
	opForNext // charge d; counter a += 1; while <= limit a+1: scalar b = counter, charge e, pc = c
	opCharge  // charge a

	opFlush     // charge a; turn the pending charges into simulated compute time
	opSection   // evaluate, and for a send pack, the section of comm a; empty: pc = b
	opSend      // send the packed section of comm a to rank b
	opRecv      // start receiving the section of comm a from rank b; may wait
	opUnpack    // store the received values in the section of comm a
	opAllreduce // start comm a; may wait
	opBcast     // start comm a from root rank b; may wait
	opResult    // store the collective's result vector in the scalars of comm a
	opBarrier   // may wait
	opFault     // fault with the text of comm a
	opDelay     // delay b seconds on behalf of the task named by comm a
	opTaskTimes // comm a
	opNow       // a = simulated time
	opTimed     // record a calibration sample: region comm a, start time b, units c
)

// instr is one fixed-width instruction. Jump targets, charges, array,
// comm and address-register numbers share the operand fields with the
// float registers; the opcode says which is which.
type instr struct {
	op            opcode
	a, b, c, d, e int32
}

// commOp is the side record of an instruction that talks to the
// simulated machine: whatever does not fit five operands.
type commOp struct {
	name   string     // task or region name, or a fault's text
	tag    int        // send, recv
	arr    int32      // send, recv
	pack   bool       // send: carries the section's values
	sec    [][2]int32 // send, recv: registers holding the rounded bounds
	slots  []int32    // allreduce, bcast, task times: scalar registers
	names  []string   // task times
	reduce mpi.ReduceOp
}

type compiledArray struct {
	name  string
	dims  []int32 // registers holding the extents once the array's dims code ran
	elem  int64
	shape int32 // the first array declared with structurally equal dimensions
}

// addrEntry says address register id holds the checked offset, into every
// array of the shape, at the current values of the registers subs (-1
// beyond the rank): scalars, constants and numbered subscripts.
type addrEntry struct {
	shape, id int32
	subs      [3]int32
}

// valEntry says register reg holds the element of array arr at the offset
// in address register addr.
type valEntry struct{ arr, addr, reg int32 }

// exprEntry says temporary reg holds the value of the numbered subscript
// e: an integral expression of scalars and constants that an instruction
// computes.
type exprEntry struct {
	e   ir.Expr
	reg int32
}

// known is what the lowering knows to hold at a point of the code: the
// checked addresses, the array elements and the numbered subscripts held
// in registers. Every value record's address is among the addresses, every
// temporary an address is keyed on is a numbered subscript's, and the
// registers of values and subscripts are temporaries of their own.
type known struct {
	addrs []addrEntry
	vals  []valEntry
	exprs []exprEntry
}

func (k known) clone() known {
	return known{slices.Clone(k.addrs), slices.Clone(k.vals), slices.Clone(k.exprs)}
}

// compiled is a program lowered to register code. The register file is
// laid out scalars, then constants, then temporaries; code starts with one
// opHalt-terminated stretch per array evaluating its extents, and the
// body follows.
type compiled struct {
	code      []instr
	slots     map[string]int32 // scalar name -> register
	names     []string         // register -> scalar name
	nonZ      []bool           // by scalar register: may hold a value outside Z
	consts    map[uint64]int32 // bit pattern -> index among the constants
	constVals []float64
	tempBase  int32
	numTemps  int32
	numAddrs  int32
	arrays    []compiledArray
	arrayIdx  map[string]int32
	comms     []commOp
	counts    []countLoop // by opCount: loops whose bodies compute nothing observed
	rows      []rowLoop   // by opRow: loops whose bodies can run a strip of trips at a time
	fns       []func(float64) float64
	ifs       []*ir.If // by branch ordinal, when profiling
	maxSec    int      // most dimensions of any communicated section

	cfg *Config // the run being compiled for: inputs, machine, collectors
	// observed holds, in a calibration run, what slicer.Observed finds it
	// can observe; nil computes every assignment.
	observed map[string]bool

	// Lowering state.
	tsp     int32 // temporaries in use
	pending int32 // op charges of the open basic block, not yet emitted
	live    known // what holds at this point
	defs    []def // scalar definitions met, for the integrality analysis
}

// def is one scalar definition: an assignment, or with no right-hand side
// a value the analysis cannot see (a reduction result, a broadcast value,
// a measured task time).
type def struct {
	slot int32
	rhs  ir.Expr
}

func compile(p *ir.Program, cfg *Config) (cp *compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			cp = nil
			err = fmt.Errorf("interp: compile %s: %v", p.Name, r)
		}
	}()
	// The lowering runs twice. The first run only discovers the scalars,
	// the constants and the scalar definitions; the second numbers the
	// temporaries behind them and knows which scalars are integral.
	sizing := &compiled{cfg: cfg, slots: map[string]int32{}, consts: map[uint64]int32{}}
	if cfg.Calibration != nil {
		sizing.observed = slicer.Observed(p)
	}
	sizing.lower(p)
	cp = &compiled{cfg: cfg, observed: sizing.observed, slots: sizing.slots, names: sizing.names,
		consts: sizing.consts, constVals: sizing.constVals}
	cp.tempBase = int32(len(cp.names) + len(cp.constVals))
	cp.markNonIntegral(sizing.defs)
	cp.lower(p)
	if int(cp.tempBase) != len(cp.names)+len(cp.constVals) {
		panic("the sizing run missed a scalar or constant")
	}
	return cp, nil
}

func (cp *compiled) lower(p *ir.Program) {
	cp.slot(ir.BuiltinP)
	cp.slot(ir.BuiltinMyID)
	for _, par := range p.Params {
		cp.slot(par)
	}
	cp.arrayIdx = map[string]int32{}
	for i, ad := range p.Arrays {
		cp.arrayIdx[ad.Name] = int32(i)
	}
	for i, ad := range p.Arrays {
		ca := compiledArray{name: ad.Name, elem: ad.Elem, shape: int32(i)}
		for j, prev := range p.Arrays[:i] {
			if sameDims(prev.Dims, ad.Dims) {
				ca.shape = int32(j)
				break
			}
		}
		for _, de := range ad.Dims {
			ca.dims = append(ca.dims, cp.expr(de, -1)) // temporaries stay live up to the halt
		}
		cp.emit(opHalt)
		cp.tsp = 0
		cp.arrays = append(cp.arrays, ca)
	}
	cp.block(p.Body)
	cp.emit(opFlush, cp.takePending())
	cp.emit(opHalt)
}

// sameDims reports whether two dimension lists are the same expressions.
// Arrays declared so get the same extents: their dimension code runs at
// frame creation, before the body writes any scalar, so a checked offset
// into one is the same checked offset into the other.
func sameDims(a, b []ir.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameExpr(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameExpr is structural equality, with literals compared as bit patterns;
// sums are never the same.
func sameExpr(a, b ir.Expr) bool {
	switch x := a.(type) {
	case ir.Num:
		y, ok := b.(ir.Num)
		return ok && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	case ir.Scalar:
		return a == b
	case ir.Bin:
		y, ok := b.(ir.Bin)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
	case ir.Call:
		y, ok := b.(ir.Call)
		return ok && x.Name == y.Name && sameExpr(x.Arg, y.Arg)
	}
	return false
}

// slot returns the register of a scalar, allocating on first use.
func (cp *compiled) slot(name string) int32 {
	s, ok := cp.slots[name]
	if !ok {
		s = int32(len(cp.names))
		cp.slots[name] = s
		cp.names = append(cp.names, name)
	}
	return s
}

// constant returns the register of a constant, allocating on first use.
func (cp *compiled) constant(v float64) int32 {
	i, ok := cp.consts[math.Float64bits(v)]
	if !ok {
		i = int32(len(cp.constVals))
		cp.consts[math.Float64bits(v)] = i
		cp.constVals = append(cp.constVals, v)
	}
	return int32(len(cp.names)) + i
}

func (cp *compiled) array(name string) int32 {
	i, ok := cp.arrayIdx[name]
	if !ok {
		panic(fmt.Sprintf("undeclared array %q", name))
	}
	return i
}

// Integral subscripts. Let Z be the integers together with ±Inf and NaN;
// math.Round is the identity on Z, so a subscript, loop bound, section
// bound or rank whose value is provably in Z needs no rounding
// instruction. Z is closed under + - * min max mod abs and summation;
// idiv, ceildiv, ceil, floor and the comparisons land in Z whatever their
// operands; loop and sum induction values are rounded bounds plus whole
// steps. markNonIntegral computes, flow-insensitively, the greatest set of
// scalars all of whose values are in Z: it starts from every scalar (a
// scalar starts at zero, P and myid are integers), removes the opaque
// ones and the inputs supplied with a non-integral value, and then removes
// any scalar assigned an expression not provably in Z until nothing
// changes.
func (cp *compiled) markNonIntegral(defs []def) {
	cp.nonZ = make([]bool, len(cp.names))
	for s, name := range cp.names {
		// newFrame binds every supplied input that names a scalar, with or
		// without a ReadInput.
		if v, ok := cp.cfg.Inputs[name]; ok && !inZ(v) {
			cp.nonZ[s] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range defs {
			if !cp.nonZ[d.slot] && !cp.integral(d.rhs) {
				cp.nonZ[d.slot] = true
				changed = true
			}
		}
	}
}

func inZ(v float64) bool { return math.Round(v) == v || v != v }

// integral reports whether every value e can take is in Z.
func (cp *compiled) integral(e ir.Expr) bool {
	switch x := e.(type) {
	case ir.Num:
		return inZ(x.Value)
	case ir.Scalar:
		s := int(cp.slot(x.Name))
		return s >= len(cp.nonZ) || !cp.nonZ[s] // the sizing run has no verdicts yet
	case ir.Bin:
		switch x.Op {
		case ir.OpDiv:
			return false
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax, ir.OpMod:
			return cp.integral(x.L) && cp.integral(x.R)
		}
		return true
	case ir.Call:
		return x.Name == "ceil" || x.Name == "floor" || x.Name == "abs" && cp.integral(x.Arg)
	case ir.SumE:
		return cp.integral(x.Body)
	}
	return false // array elements, opaque definitions
}

// emit appends an instruction and returns its pc.
func (cp *compiled) emit(op opcode, operands ...int32) int {
	var o [5]int32
	copy(o[:], operands)
	cp.code = append(cp.code, instr{op, o[0], o[1], o[2], o[3], o[4]})
	return len(cp.code) - 1
}

// here returns the pc of the next instruction emitted, as a jump target.
func (cp *compiled) here() int32 { return int32(len(cp.code)) }

func (cp *compiled) temp() int32 {
	cp.tsp++
	if cp.tsp > cp.numTemps {
		cp.numTemps = cp.tsp
	}
	return cp.tempBase + cp.tsp - 1
}

// pop frees the temporaries above mark, except those holding a recorded
// array element or subscript and the ones below them.
func (cp *compiled) pop(mark int32) {
	cp.tsp = mark
	for _, v := range cp.live.vals {
		cp.tsp = max(cp.tsp, v.reg-cp.tempBase+1)
	}
	for _, x := range cp.live.exprs {
		cp.tsp = max(cp.tsp, x.reg-cp.tempBase+1)
	}
}

// takePending hands the open block's op charges to the instruction that
// ends it. Charges are whole numbers and the pending count is reset at
// every flush, so adding a block's charges once, at its end, leaves every
// flush with the total the statement-by-statement sum gives.
func (cp *compiled) takePending() int32 {
	k := cp.pending
	cp.pending = 0
	return k
}

// settle ends a block that falls through into a join.
func (cp *compiled) settle() {
	if cp.pending != 0 {
		cp.emit(opCharge, cp.takePending())
	}
}

// wrote forgets the subscripts and addresses computed from a scalar about
// to change, the addresses keyed on those subscripts' registers, and the
// elements recorded at the addresses.
func (cp *compiled) wrote(slot int32) {
	dead := []int32{slot}
	cp.live.exprs = slices.DeleteFunc(cp.live.exprs, func(x exprEntry) bool {
		read := cp.reads(x.e, slot)
		if read {
			dead = append(dead, x.reg)
		}
		return read
	})
	cp.live.addrs = slices.DeleteFunc(cp.live.addrs, func(e addrEntry) bool {
		return slices.ContainsFunc(e.subs[:], func(s int32) bool { return slices.Contains(dead, s) })
	})
	cp.keepVals(func(v valEntry) bool { return cp.liveAddr(v.addr) })
}

// reads reports whether e reads the scalar in register slot.
func (cp *compiled) reads(e ir.Expr, slot int32) bool {
	switch x := e.(type) {
	case ir.Scalar:
		return x.Name == cp.names[slot]
	case ir.Bin:
		return cp.reads(x.L, slot) || cp.reads(x.R, slot)
	case ir.Call:
		return cp.reads(x.Arg, slot)
	}
	return false
}

func (cp *compiled) liveAddr(id int32) bool {
	for _, e := range cp.live.addrs {
		if e.id == id {
			return true
		}
	}
	return false
}

func (cp *compiled) keepVals(keep func(valEntry) bool) {
	kept := cp.live.vals[:0]
	for _, v := range cp.live.vals {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	cp.live.vals = kept
}

// join keeps what holds on both of two merging paths.
func (cp *compiled) join(other known) {
	cp.live.exprs = slices.DeleteFunc(cp.live.exprs, func(x exprEntry) bool {
		return !slices.ContainsFunc(other.exprs, func(y exprEntry) bool { return y.reg == x.reg && sameExpr(y.e, x.e) })
	})
	cp.live.addrs = slices.DeleteFunc(cp.live.addrs, func(e addrEntry) bool { return !slices.Contains(other.addrs, e) })
	cp.keepVals(func(v valEntry) bool { return slices.Contains(other.vals, v) })
}

// element lowers the address of an array element: the array, the address
// register and whether it is recorded, and the register recorded to hold
// the element, or -1.
func (cp *compiled) element(x ir.Idx) (ai, addr int32, recorded bool, reg int32) {
	ai = cp.array(x.Array)
	addr, recorded = cp.address(ai, x.Index, 1)
	return ai, addr, recorded, cp.held(ai, addr)
}

// held returns the register recorded to hold array ai's element at
// address register addr, or -1.
func (cp *compiled) held(ai, addr int32) int32 {
	for _, v := range cp.live.vals {
		if v.arr == ai && v.addr == addr {
			return v.reg
		}
	}
	return -1
}

// stored updates the records after a store to array ai at address
// register addr: every element of ai recorded at another address may be
// the one stored, so those records die, and reg, when it is not -1, now
// holds the element stored.
func (cp *compiled) stored(ai, addr, reg int32) {
	cp.keepVals(func(v valEntry) bool { return v.arr != ai })
	if reg >= 0 && cp.liveAddr(addr) {
		cp.live.vals = append(cp.live.vals, valEntry{ai, addr, reg})
	}
}

// loop emits the counting loop of a For or a sum: the scalar takes every
// whole step from the rounded lo to the rounded hi, both evaluated once,
// and each iteration is charged the given number of ops. The counter and
// the limit are hidden registers, so assigning the scalar inside the body
// does not steer the loop. The statements of pre run once when the loop
// is entered, after the test that skips a loop of no iteration, and so do
// the subscripts of hoist: numbered into registers below the body's
// temporaries, they hold at the top of every iteration. A count record
// (>= 0) puts an opCount in front of the loop, and a body rowable takes,
// or a nest of entry proof bx (non-nil) stripable takes, gets an opRow in
// front of it, behind the entry code.
func (cp *compiled) loop(slot int32, lo, hi ir.Expr, charge int32, pre []ir.Stmt, hoist []ir.Expr, count int32, bx *box, body func()) {
	mark := cp.tsp
	l, h := cp.intReg(lo), cp.intReg(hi)
	cp.live = known{} // the body is entered from above and from below
	cp.tsp = mark
	ctr := cp.temp()
	cp.temp() // the limit, at ctr+1
	if count >= 0 {
		cp.emit(opCount, count)
	}
	init := cp.emit(opForInit, ctr, l, h, 0, cp.takePending())
	cp.block(pre)
	for _, e := range hoist {
		cp.intReg(e)
	}
	top := cp.here()
	body()
	cp.code[init].d = cp.here()
	next := cp.emit(opForNext, ctr, slot, top, cp.takePending(), charge)
	rl, ok := rowLoop{}, false
	if bx != nil {
		rl, ok = cp.stripable(int(top), next, bx)
	} else {
		rl, ok = cp.rowable(int(top), next)
	}
	if ok {
		cp.insertRow(init, int(top), int32(len(cp.rows)))
		rl.index, rl.next = int32(len(cp.rows)), int32(next+1)
		cp.rows = append(cp.rows, rl)
	}
	cp.live = known{}
}

func (cp *compiled) block(body []ir.Stmt) {
	for _, s := range body {
		mark := cp.tsp
		cp.stmt(s)
		cp.pop(mark)
	}
}

// intReg lowers an expression used as an integer (subscript, bound,
// rank): its value rounded, unless it is provably integral already. A
// numberable expression is computed once into a register of its own and
// recorded there for the uses behind it.
func (cp *compiled) intReg(e ir.Expr) int32 {
	numberable := cp.numberable(e)
	if numberable {
		if i := slices.IndexFunc(cp.live.exprs, func(x exprEntry) bool { return sameExpr(x.e, e) }); i >= 0 {
			return cp.live.exprs[i].reg
		}
	}
	r := cp.expr(e, -1)
	if numberable {
		cp.live.exprs = append(cp.live.exprs, exprEntry{e, r})
		return r
	}
	if cp.integral(e) {
		return r
	}
	t := r
	if _, elem := e.(ir.Idx); elem || t < cp.tempBase {
		t = cp.temp() // an element's register may hold it for later loads
	}
	cp.emit(opRound, t, r)
	return t
}

// numberable reports whether e is an integral expression of scalars and
// constants that an instruction computes: one register can hold its value
// for every use until a scalar it reads changes.
func (cp *compiled) numberable(e ir.Expr) bool {
	var plain func(ir.Expr) bool // reads scalars and constants only
	plain = func(e ir.Expr) bool {
		switch x := e.(type) {
		case ir.Num, ir.Scalar:
			return true
		case ir.Bin:
			return plain(x.L) && plain(x.R)
		case ir.Call:
			return plain(x.Arg)
		}
		return false
	}
	return computed(e) && plain(e) && cp.integral(e)
}

// address lowers the subscripts of an array access and returns the
// address register holding its checked offset, and whether it is
// recorded. An access whose subscripts are all scalars, constants or
// numbered reuses the address an earlier access computed from the same
// registers into an array of the same shape. load is 1 for an access
// whose fault has a load's wording (opAddr1, opAddr2), else 0.
func (cp *compiled) address(ai int32, index []ir.Expr, load int32) (int32, bool) {
	key := addrEntry{shape: cp.arrays[ai].shape, subs: [3]int32{-1, -1, -1}}
	subs := make([]int32, len(index))
	reusable := len(index) <= 3
	for i, e := range index {
		subs[i] = cp.intReg(e)
		numbered := slices.ContainsFunc(cp.live.exprs, func(x exprEntry) bool { return x.reg == subs[i] })
		if reusable = reusable && (subs[i] < cp.tempBase || numbered); reusable {
			key.subs[i] = subs[i]
		}
	}
	if reusable {
		for _, e := range cp.live.addrs {
			if e.shape == key.shape && e.subs == key.subs {
				return e.id, true
			}
		}
	}
	key.id = cp.numAddrs
	cp.numAddrs++
	switch len(subs) {
	case 1:
		cp.emit(opAddr1, key.id, ai, subs[0], 0, load)
	case 2:
		cp.emit(opAddr2, key.id, ai, subs[0], subs[1], load)
	case 3:
		cp.emit(opAddr3, key.id, ai, subs[0], subs[1], subs[2])
	default:
		base := cp.tempBase + cp.tsp
		for _, s := range subs {
			cp.emit(opMov, cp.temp(), s)
		}
		cp.emit(opAddrN, key.id, ai, base, int32(len(subs)))
	}
	if reusable {
		cp.live.addrs = append(cp.live.addrs, key)
	}
	return key.id, reusable
}

// transfer lowers a send or a receive: flush, evaluate the section (a
// send packs it there), then evaluate the peer and communicate. The peer
// comes after the section, and not at all when the section is empty.
func (cp *compiled) transfer(op opcode, c commOp, sec []ir.Range, peer ir.Expr) {
	cp.emit(opFlush, cp.takePending())
	if len(sec) > cp.maxSec {
		cp.maxSec = len(sec)
	}
	for _, rg := range sec {
		c.sec = append(c.sec, [2]int32{cp.intReg(rg.Lo), cp.intReg(rg.Hi)})
	}
	ci := cp.comm(c)
	at := cp.emit(opSection, ci)
	skipped := cp.live.clone()
	cp.emit(op, ci, cp.intReg(peer))
	if op == opRecv {
		cp.emit(opUnpack, ci)
		cp.keepVals(func(v valEntry) bool { return v.arr != c.arr })
	}
	cp.code[at].b = cp.here()
	cp.join(skipped) // the empty section's skip
}

func (cp *compiled) comm(c commOp) int32 {
	cp.comms = append(cp.comms, c)
	return int32(len(cp.comms) - 1)
}

// received returns the registers of scalars a communication instruction
// writes: definitions the integrality analysis cannot see through, and
// the end of every address computed from them.
func (cp *compiled) received(vars []string) []int32 {
	regs := make([]int32, len(vars))
	for i, v := range vars {
		regs[i] = cp.slot(v)
		cp.defs = append(cp.defs, def{slot: regs[i]})
		cp.wrote(regs[i])
	}
	return regs
}

func (cp *compiled) stmt(s ir.Stmt) {
	switch x := s.(type) {
	case *ir.Assign:
		cp.pending += int32(1 + ir.OpCount(x.RHS))
		for _, e := range x.LHS.Index {
			cp.pending += int32(ir.OpCount(e))
		}
		if cp.observed != nil && !cp.observed[x.LHS.Name] {
			// Charged, and its subscripts checked in evaluation order.
			if x.LHS.IsArray() {
				cp.address(cp.array(x.LHS.Name), x.LHS.Index, 0)
			}
			ir.Inspect(x.RHS, func(e ir.Expr) bool {
				el, load := e.(ir.Idx)
				if load {
					cp.address(cp.array(el.Array), el.Index, 1)
				}
				return !load
			})
			return
		}
		if !x.LHS.IsArray() {
			slot := cp.slot(x.LHS.Name)
			cp.defs = append(cp.defs, def{slot, x.RHS})
			cp.expr(x.RHS, slot)
			cp.wrote(slot)
			return
		}
		// The address comes first: a bad subscript faults before the
		// right-hand side is evaluated.
		ai := cp.array(x.LHS.Name)
		addr, recorded := cp.address(ai, x.LHS.Index, 0)
		// A value computed for a recorded address goes to the register
		// holding the element already, if any, else to one of its own, and
		// the store leaves it there for later loads.
		dst := int32(-1)
		if recorded && computed(x.RHS) {
			if dst = cp.held(ai, addr); dst < 0 {
				dst = cp.temp()
			}
		}
		cp.emit(opStore, ai, addr, cp.expr(x.RHS, dst))
		cp.stored(ai, addr, dst)

	case *ir.For:
		cp.pending += int32(ir.OpCount(x.Lo) + ir.OpCount(x.Hi) + 1)
		writes, hoist := cp.scan(x)
		pre, body := invariantHead(x, writes)
		count := int32(-1) // a loop of unobserved assignments alone may be counted
		if cp.observed != nil && !slices.ContainsFunc(x.Body, func(s ir.Stmt) bool {
			a, ok := s.(*ir.Assign)
			return !ok || cp.observed[a.LHS.Name]
		}) {
			count, cp.counts = int32(len(cp.counts)), append(cp.counts, cp.countOf(x))
		}
		var bx *box
		if cp.tempBase > 0 { // the sizing run numbers no constant yet
			bx = cp.boxOf(x)
		}
		cp.loop(cp.slot(x.Var), x.Lo, x.Hi, 1, pre, hoist, count, bx, func() { cp.block(body) })

	case *ir.If:
		cp.pending += int32(1 + ir.OpCount(x.Cond))
		mark := cp.tsp
		var br int
		if cp.cfg.BranchProfile != nil {
			br = cp.emit(opBrProf, cp.expr(x.Cond, -1), int32(len(cp.ifs)), 0, cp.takePending())
			cp.ifs = append(cp.ifs, x)
		} else if b, ok := x.Cond.(ir.Bin); ok && b.Op >= ir.OpLT && b.Op <= ir.OpGE {
			// A comparison branches without materialising its truth value.
			l, r := cp.expr(b.L, -1), cp.expr(b.R, -1)
			on := branchOn[b.Op]
			if on.mirror {
				l, r = r, l
			}
			br = cp.emit(on.op, l, r, 0, cp.takePending())
		} else {
			br = cp.emit(opBrZ, cp.expr(x.Cond, -1), 0, 0, cp.takePending())
		}
		cp.pop(mark)
		skipped := cp.live.clone()
		cp.block(x.Then)
		if len(x.Else) == 0 {
			cp.settle()
			cp.code[br].c = cp.here()
			cp.join(skipped)
			return
		}
		jump := cp.emit(opJump, 0, cp.takePending())
		cp.code[br].c = cp.here()
		then := cp.live
		cp.live = skipped
		cp.pop(mark)
		cp.block(x.Else)
		cp.settle()
		cp.code[jump].a = cp.here()
		cp.join(then)

	case *ir.Send:
		// A dummy-buffer send (simplified MPI-SIM-AM programs) carries no
		// payload: the buffer only preserves message sizes, its values are
		// never read, and skipping the pack keeps the AM path
		// allocation-free. The receive side unpacks []float64 payloads
		// only, so nil is ignored there.
		c := commOp{tag: x.Tag, arr: cp.array(x.Array), pack: x.Array != dummyBufferName}
		cp.transfer(opSend, c, x.Section, x.Dest)

	case *ir.Recv:
		cp.transfer(opRecv, commOp{tag: x.Tag, arr: cp.array(x.Array)}, x.Section, x.Src)

	case *ir.Allreduce:
		cp.emit(opFlush, cp.takePending())
		ci := cp.comm(commOp{slots: cp.received(x.Vars), reduce: reduceOps[x.Op]})
		cp.emit(opAllreduce, ci)
		cp.emit(opResult, ci)

	case *ir.Bcast:
		cp.emit(opFlush, cp.takePending())
		root := cp.intReg(x.Root)
		ci := cp.comm(commOp{slots: cp.received(x.Vars)})
		cp.emit(opBcast, ci, root)
		cp.emit(opResult, ci)

	case *ir.Barrier:
		cp.emit(opFlush, cp.takePending())
		cp.emit(opBarrier)

	case *ir.ReadInput:
		slot := cp.slot(x.Var)
		if v, ok := cp.cfg.Inputs[x.Var]; ok {
			cp.emit(opMov, slot, cp.constant(v))
		} else {
			cp.emit(opFault, cp.comm(commOp{name: fmt.Sprintf("interp: missing program input %q", x.Var)}))
		}
		cp.wrote(slot)

	case *ir.Delay:
		// Delay arguments are simulator work, not target computation: no
		// op charge, and pending target ops flush first so that timing
		// order is preserved.
		cp.emit(opFlush, cp.takePending())
		if _, ok := cp.cfg.TaskTimes[x.Task]; !ok && cp.cfg.TaskTimes != nil && x.Task != "" {
			// Refused where a run reaches it, not charged 0.
			cp.emit(opFault, cp.comm(commOp{name: fmt.Sprintf("interp: task %s is reached but the w_i table has no time for it; "+
				"supply one (-tasktimes, task_times) or calibrate with inputs that reach it", x.Task)}))
		}
		cp.emit(opDelay, cp.comm(commOp{name: x.Task}), cp.expr(x.Seconds, -1))

	case *ir.ReadTaskTimes:
		cp.emit(opFlush, cp.takePending())
		cp.emit(opTaskTimes, cp.comm(commOp{slots: cp.received(x.Names), names: x.Names}))

	case *ir.Timed:
		cp.emit(opFlush, cp.takePending())
		t0 := cp.temp()
		if cp.cfg.Calibration != nil {
			cp.emit(opNow, t0)
		}
		cp.block(x.Body)
		cp.emit(opFlush, cp.takePending())
		if cp.cfg.Calibration != nil {
			cp.emit(opTimed, cp.comm(commOp{name: x.ID}), t0, cp.expr(x.Units, -1))
		}

	default:
		panic(fmt.Sprintf("unknown statement type %T", s))
	}
}

// computed reports whether an instruction computes e's value, and so can
// write it to any register: e is no literal, scalar or array element.
func computed(e ir.Expr) bool {
	switch e.(type) {
	case ir.Num, ir.Scalar, ir.Idx:
		return false
	}
	return true
}

// scan counts the statements of a loop writing each name, nested ones
// included, when the loop has an invariant head or subscripts to hoist:
// an innermost loop's entry code computes every numberable subscript of
// its assignments and conditions that is invariant, and so cannot fault.
// A sum saves and restores its index, so it writes no scalar a statement
// could see; the subscripts of its body are left out.
func (cp *compiled) scan(f *ir.For) (writes map[string]int, hoist []ir.Expr) {
	var visit func(ir.Expr)
	visit = func(e ir.Expr) {
		switch x := e.(type) {
		case ir.Idx:
			for _, s := range x.Index {
				hoist = append(hoist, s)
				visit(s)
			}
		case ir.Bin:
			visit(x.L)
			visit(x.R)
		case ir.Call:
			visit(x.Arg)
		}
	}
	innermost := true
	ir.Walk(f.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.For:
			innermost = false
		case *ir.Assign:
			visit(ir.Idx{Index: x.LHS.Index})
			visit(x.RHS)
		case *ir.If:
			visit(x.Cond)
		}
		return innermost
	})
	hoist = slices.DeleteFunc(hoist, func(e ir.Expr) bool { return !innermost || !cp.numberable(e) })
	if len(hoist) == 0 && (len(f.Body) == 0 || !isScalarAssign(f.Body[0])) {
		return nil, nil // no head to hoist either
	}
	writes = map[string]int{f.Var: 1}
	ir.Walk(f.Body, func(s ir.Stmt) bool {
		//simvet:allow maprange counting writes is order-independent
		for v := range ir.StmtDefUse(s).Defs {
			writes[v]++
		}
		return true
	})
	return writes, slices.DeleteFunc(hoist, func(e ir.Expr) bool { return !invariant(e, writes) })
}

// invariantHead splits a loop body into the scalar assignments heading it
// that the loop can run once, on entry, and the rest. Such an assignment
// is the only statement of the loop that writes its scalar, and its
// right-hand side is invariant, so every iteration would assign the value
// the first one does.
func invariantHead(f *ir.For, writes map[string]int) (head, rest []ir.Stmt) {
	n := 0
	for ; n < len(f.Body) && isScalarAssign(f.Body[n]); n++ {
		if a := f.Body[n].(*ir.Assign); writes[a.LHS.Name] != 1 || !invariant(a.RHS, writes) {
			break
		}
	}
	return f.Body[:n], f.Body[n:]
}

func isScalarAssign(s ir.Stmt) bool {
	a, ok := s.(*ir.Assign)
	return ok && !a.LHS.IsArray()
}

// invariant reports whether e reads no array and no scalar the loop
// writes, and evaluates without a fault: no division, idiv, ceildiv or
// mod, and no sum.
func invariant(e ir.Expr, writes map[string]int) bool {
	switch x := e.(type) {
	case ir.Num:
		return true
	case ir.Scalar:
		return writes[x.Name] == 0
	case ir.Bin:
		switch x.Op {
		case ir.OpDiv, ir.OpIDiv, ir.OpCeilDiv, ir.OpMod:
			return false
		}
		return invariant(x.L, writes) && invariant(x.R, writes)
	case ir.Call:
		return invariant(x.Arg, writes)
	}
	return false
}

// arith maps the operators that have an instruction of their own; the
// rest go through opApply.
var arith = [...]opcode{ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul, ir.OpDiv: opDiv}

// withLoad maps the operators fused with the load of their right operand.
var withLoad = [...]opcode{ir.OpAdd: opAddLoad, ir.OpSub: opSubLoad}

// branchOn maps an ordering comparison to the branch that leaves when it
// fails; > and >= are < and <= with the operands exchanged, which is exact
// for every operand including NaN.
var branchOn = [...]struct {
	op     opcode
	mirror bool
}{
	ir.OpLT: {opBnLT, false}, ir.OpLE: {opBnLE, false}, ir.OpGT: {opBnLT, true}, ir.OpGE: {opBnLE, true},
}

var reduceOps = map[string]mpi.ReduceOp{"sum": mpi.OpSum, "max": mpi.OpMax, "min": mpi.OpMin}

// expr lowers e and returns the register holding its value: dst when
// dst >= 0, else the scalar's or constant's own register, else a
// temporary. Operands are evaluated left to right; an instruction reads
// all its operands before it writes, so a result may share a register
// with one of them.
func (cp *compiled) expr(e ir.Expr, dst int32) int32 {
	mark := cp.tsp
	// result pops the operands' temporaries and picks the destination.
	result := func() int32 {
		cp.pop(mark)
		if dst >= 0 {
			return dst
		}
		return cp.temp()
	}
	var leaf int32
	switch x := e.(type) {
	case ir.Num:
		leaf = cp.constant(x.Value)

	case ir.Scalar:
		leaf = cp.slot(x.Name)

	case ir.Idx:
		// A load into a temporary of a recorded address gets a register of
		// its own and is recorded; a later load of the element reads it.
		ai, addr, recorded, reg := cp.element(x)
		if reg >= 0 {
			leaf = reg
			break
		}
		d := result()
		cp.emit(opLoad, d, ai, addr)
		if recorded && dst < 0 {
			cp.live.vals = append(cp.live.vals, valEntry{ai, addr, d})
		}
		return d

	case ir.Bin:
		op := opApply
		if int(x.Op) < len(arith) {
			op = arith[x.Op]
		}
		l := cp.expr(x.L, -1)
		var r int32
		if e, ok := x.R.(ir.Idx); ok && int(x.Op) < len(withLoad) {
			// l ± an element no register holds: one instruction loads and
			// adds it.
			ai, addr, _, reg := cp.element(e)
			if reg < 0 {
				d := result()
				cp.emit(withLoad[x.Op], d, l, ai, addr)
				return d
			}
			r = reg
		} else {
			r = cp.expr(x.R, -1)
		}
		d := result()
		cp.emit(op, d, l, r, int32(x.Op))
		return d

	case ir.Call:
		fn := ir.Intrinsics[x.Name]
		if fn == nil {
			panic(fmt.Sprintf("unknown intrinsic %q", x.Name))
		}
		arg := cp.expr(x.Arg, -1)
		d := result()
		cp.emit(opCall, d, arg, int32(len(cp.fns)))
		cp.fns = append(cp.fns, fn)
		return d

	case ir.SumE:
		// A loop that charges nothing, around which the index scalar keeps
		// its value.
		slot, total, saved := cp.slot(x.Index), cp.temp(), cp.temp()
		cp.emit(opMov, saved, slot)
		cp.emit(opMov, total, cp.constant(0))
		cp.loop(slot, x.Lo, x.Hi, 0, nil, nil, -1, nil, func() { cp.emit(opAdd, total, total, cp.expr(x.Body, -1)) })
		cp.emit(opMov, slot, saved)
		cp.tsp = mark
		if dst < 0 {
			cp.tsp++ // total is the result
		}
		leaf = total

	default:
		panic(fmt.Sprintf("unknown expression type %T", e))
	}
	if dst >= 0 {
		cp.emit(opMov, dst, leaf)
		return dst
	}
	return leaf
}

// rowLoop is a loop whose body the row path can run one instruction over
// a strip of trips at a time (opRow): an innermost loop, or a nest (box
// non-nil, stripable). An innermost loop's body is straight-line code that
// cannot fault but for a subscript out of range: no branch,
// communication, timer, rounding, array of four dimensions or more, or
// division by a register other than a nonzero constant. A register it
// reads is written before, in the same trip, or not at all, or it is a
// reduction: s = s + e, or max or min, the only instruction to read or
// write s. Its row code names rows for registers, row 0 the loop scalar's,
// and offset rows for address registers; an invariant subscript is read
// from the register file (^r), and a reduction keeps its register (e = 1),
// folded in trip order.
type rowLoop struct {
	index     int32      // among the row loops
	ctr, slot int32      // the counter (its limit in ctr+1) and the loop scalar
	next      int32      // pc of the opForNext
	regs      []int32    // by row: the register it stands for
	fill      []int32    // rows of the registers the body only reads, filled once
	out       []int32    // rows of the registers the body writes, and the scalar's
	offs      int32      // offset rows
	addr      []instr    // the slice of the body computing addresses, run and checked first
	body      []instr    // the rest, and what of the slice writes a register twice
	stored    []int32    // offset rows stored through: strictly monotone over a strip
	pairs     [][2]int32 // (stored, other) offset rows into one array: one stride over a strip
	affine    []int32    // the offset rows of the pairs
	box       *box       // a nest's entry proof
}

// countLoop is the range proof of a loop opCount may charge in one step:
// every subscript of its body, the loop scalar interval 0; ok is false
// when one cannot be bounded.
type countLoop struct {
	loop *ir.For
	subs []boxSub
	ok   bool
}

// countOf compiles the range proof of the loop x, whose body is
// assignments.
func (cp *compiled) countOf(x *ir.For) countLoop {
	cl := countLoop{loop: x, ok: true}
	leaf := func(name string) (ir.Span, bool) {
		if name == x.Var {
			return ir.SpanVar(0), true
		}
		return ir.SpanReg(cp.slot(name)), true
	}
	inRange := func(e ir.Expr) bool {
		el, isIdx := e.(ir.Idx)
		if isIdx && cl.ok {
			for d, s := range el.Index {
				span, ok := ir.CompileSpan(s, leaf, cp.integral)
				cl.ok = cl.ok && ok
				cl.subs = append(cl.subs, boxSub{cp.array(el.Array), int32(d), span})
			}
		}
		return cl.ok && !isIdx
	}
	for _, s := range x.Body {
		a := s.(*ir.Assign)
		if a.LHS.IsArray() {
			inRange(ir.Idx{Array: a.LHS.Name, Index: a.LHS.Index})
		}
		ir.Inspect(a.RHS, inRange)
	}
	return cl
}

// rowable reports whether the loop whose body is code[top:next] can run
// by row, and how.
func (cp *compiled) rowable(top, next int) (rowLoop, bool) {
	rl := rowLoop{ctr: cp.code[next].a, slot: cp.code[next].b}
	if cp.tempBase == 0 {
		return rl, false // the sizing run: no constant is numbered yet
	}
	code := slices.Clone(cp.code[top:next])
	writers, readers := map[int32]int{}, map[int32]int{}
	for i := range code {
		in := &code[i]
		w, reads, _, _, ok := rowOperands(in)
		if !ok || in.op == opRound || cp.divides(in) {
			return rl, false
		}
		if w != nil {
			writers[*w]++
		}
		for _, r := range reads {
			readers[*r]++
		}
	}
	if cp.doomed(cp.code[top:next], rl.slot) {
		return rl, false
	}
	fold := func(in *instr) bool {
		op := ir.Op(in.d)
		return (in.op == opAdd || in.op == opAddLoad || in.op == opApply && (op == ir.OpMax || op == ir.OpMin)) &&
			in.a == in.b && in.a != rl.slot && writers[in.a] == 1 && readers[in.a] == 1
	}
	// The address slice: every address and, backwards, the last writer of
	// a register the slice reads. No element may feed it.
	inAddr := make([]bool, len(code))
	need := map[int32]bool{}
	for i := len(code) - 1; i >= 0; i-- {
		if w, reads, addr, arr, _ := rowOperands(&code[i]); arr < 0 && addr != nil || w != nil && need[*w] {
			if arr >= 0 {
				return rl, false
			}
			inAddr[i] = true
			if w != nil {
				delete(need, *w)
			}
			for _, r := range reads {
				need[*r] = true
			}
		}
	}
	// Row code, checking that a register read is written before, in the
	// trip, or not at all, and an address register written before.
	rows, offs := map[int32]int32{}, map[int32]int32{}
	row := func(r *int32) {
		k, ok := rows[*r]
		if !ok {
			k = int32(len(rl.regs))
			rows[*r], rl.regs = k, append(rl.regs, *r)
			if writers[*r] > 0 || *r == rl.slot {
				rl.out = append(rl.out, k)
			} else {
				rl.fill = append(rl.fill, k)
			}
		}
		*r = k
	}
	slot := rl.slot
	row(&slot)
	type ref struct {
		arr, off int32
		store    bool
	}
	var refs []ref
	defined := map[int32]bool{rl.slot: true}
	for i := range code {
		in := &code[i]
		w, reads, addr, arr, _ := rowOperands(in)
		if fold(in) {
			in.e, w, reads = 1, nil, reads[1:]
		}
		for _, r := range reads {
			if writers[*r] > 0 && !defined[*r] {
				return rl, false // carried from the trip before
			}
			if addr != nil && arr < 0 && writers[*r] == 0 && *r != rl.slot {
				*r = ^*r // an invariant subscript, read from the register file
			} else {
				row(r)
			}
		}
		twice := w != nil && writers[*w] > 1
		if w != nil {
			defined[*w] = true
			row(w)
		}
		if addr != nil {
			k, ok := offs[*addr]
			if !ok && arr >= 0 {
				return rl, false
			} else if !ok {
				k, offs[*addr] = int32(len(offs)), int32(len(offs))
			}
			if *addr = k; arr >= 0 {
				refs = append(refs, ref{arr, k, in.op == opStore})
			}
		}
		if inAddr[i] {
			rl.addr = append(rl.addr, *in)
		}
		if !inAddr[i] || twice {
			rl.body = append(rl.body, *in)
		}
	}
	rl.offs = int32(len(offs))
	for _, w := range refs {
		if !w.store {
			continue
		}
		if !slices.Contains(rl.stored, w.off) {
			rl.stored = append(rl.stored, w.off)
		}
		for _, r := range refs {
			if p := [2]int32{w.off, r.off}; r.arr == w.arr && r.off != w.off && !slices.Contains(rl.pairs, p) &&
				!slices.Contains(rl.pairs, [2]int32{r.off, w.off}) {
				rl.pairs = append(rl.pairs, p)
				for _, k := range p {
					if !slices.Contains(rl.affine, k) {
						rl.affine = append(rl.affine, k)
					}
				}
			}
		}
	}
	return rl, true
}

// doomed reports whether the loop body code stores an array and reads it
// in the same column where the store's subscript, shifted along the loop
// by fewer than rowMin trips, points (a min or max with an invariant read
// as its first operand): proof would refuse the first strip, and with it
// the loop. A register read before the trip writes it is taken for an
// invariant, in a body rowable refuses anyway.
func (cp *compiled) doomed(code []instr, slot int32) bool {
	type lin struct { // a·slot + reg + c, reg an invariant register (-1: none); a NaN: unknown
		a, c float64
		reg  int32
	}
	type ref struct {
		sub, col, col2 lin // col, col2: the second and third subscripts (register 0 for fewer dimensions)
		arr            int32
		store          bool
	}
	form, addrs, refs := map[int32]lin{slot: {a: 1, reg: -1}}, map[int32]ref{}, []ref(nil)
	at := func(r int32) lin {
		if f, ok := form[r]; ok {
			return f
		} else if k := int(r) - len(cp.names); k >= 0 && r < cp.tempBase {
			return lin{c: cp.constVals[k], reg: -1}
		}
		return lin{reg: r}
	}
	for _, in := range code {
		w, _, addr, arr, _ := rowOperands(&in)
		x, y, op := at(in.b), at(in.c), ir.Op(in.d)
		if addr != nil && arr >= 0 {
			r := addrs[*addr]
			r.arr, r.store = arr, in.op == opStore
			refs = append(refs, r)
		} else if addr != nil {
			r := ref{sub: y}
			if in.op >= opAddr2 {
				r.col = at(in.d)
			}
			if in.op == opAddr3 {
				r.col2 = at(in.e)
			}
			addrs[in.a] = r
		}
		if w == nil {
			continue
		}
		switch form[*w] = (lin{a: math.NaN()}); {
		case in.op == opAdd && min(x.reg, y.reg) < 0:
			form[*w] = lin{x.a + y.a, x.c + y.c, max(x.reg, y.reg)}
		case in.op == opSub && y.reg < 0:
			form[*w] = lin{x.a - y.a, x.c - y.c, x.reg}
		case in.op == opApply && (op == ir.OpMin || op == ir.OpMax) && y.a == 0:
			form[*w] = x
		}
	}
	for _, s := range refs {
		for _, r := range refs {
			shift := (r.sub.c - s.sub.c) / s.sub.a
			if s.store && r.arr == s.arr && r.col == s.col && r.col2 == s.col2 && s.col.a == 0 && s.col2.a == 0 && r.sub.a == s.sub.a && r.sub.reg == s.sub.reg &&
				shift != 0 && shift == math.Trunc(shift) && math.Abs(shift) < rowMin {
				return true
			}
		}
	}
	return false
}

// divides reports whether in divides by anything but a nonzero constant.
func (cp *compiled) divides(in *instr) bool {
	k := int(in.c) - len(cp.names) // a constant's index
	op := ir.Op(in.d)
	divides := in.op == opDiv || in.op == opApply && (op == ir.OpIDiv || op == ir.OpCeilDiv || op == ir.OpMod)
	return divides && (k < 0 || in.c >= cp.tempBase || cp.constVals[k] == 0)
}

// rowOperands returns pointers to the register an instruction the row
// path runs writes (nil: none) and to those it reads, and to its address
// register: written when arr < 0, read from array arr otherwise. ok is
// false for every other instruction.
func rowOperands(in *instr) (w *int32, reads []*int32, addr *int32, arr int32, ok bool) {
	switch in.op {
	case opMov, opCall, opRound:
		return &in.a, []*int32{&in.b}, nil, -1, true
	case opAdd, opSub, opMul, opDiv, opApply:
		return &in.a, []*int32{&in.b, &in.c}, nil, -1, true
	case opAddr1:
		return nil, []*int32{&in.c}, &in.a, -1, true
	case opAddr2:
		return nil, []*int32{&in.c, &in.d}, &in.a, -1, true
	case opAddr3:
		return nil, []*int32{&in.c, &in.d, &in.e}, &in.a, -1, true
	case opLoad:
		return &in.a, nil, &in.c, in.b, true
	case opAddLoad, opSubLoad:
		return &in.a, []*int32{&in.b}, &in.d, in.c, true
	case opStore:
		return nil, []*int32{&in.c}, &in.b, in.a, true
	}
	return nil, nil, nil, -1, false
}
