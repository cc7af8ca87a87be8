package interp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/symexpr"
)

// frame is the per-rank execution state: a register file, a pc and the
// arrays. Nothing of a running program lives on the Go stack, so a frame
// stopped at an instruction boundary is resumed by calling exec again. A
// communication instruction that has to wait is such a boundary: it
// starts the operation on the mpi.Rank, saves the pc and returns, and
// the instruction behind it picks the operation's result up on resume.
// A frame is the rank's mpi.Program.
type frame struct {
	cp     *compiled
	r      *mpi.Rank
	regs   []float64 // scalars, constants, temporaries (compiled)
	addrs  []int     // checked array offsets, by address register
	arrays []arrayVal
	pc     int
	// workingSet is the rank's total allocated array bytes; it selects
	// the machine's cache factor.
	workingSet int64
	// Scratch of the communication instructions: the section opSection
	// evaluated for the opSend/opRecv behind it, and a send's packed values.
	sec     []secDim
	payload interface{}
	// prof counts branch outcomes by ordinal during a profiling run.
	prof []branchCount
	// poll counts loop back-edges down to the next abort check.
	poll int
	// rowTrips counts the trips run by row, by row loop, once one ran.
	rowTrips []int64
}

// pollEvery is how many loop back-edges a rank executes between two looks
// at the kernel's abort flag.
const pollEvery = 1 << 16

// exact bounds the magnitudes below which every integer is a float64.
const exact = 1 << 53

// countMin+1 trips are the fewest a range proof is worth.
const countMin = 63

// rowMin trips are the fewest a loop runs by row, and rowStrip trips the
// most of a strip, nestStrip of a nest's strip, whose row instructions
// may touch a cache line per trip (DESIGN.md "What direct execution runs
// by row").
const (
	rowMin    = countMin + 1
	rowStrip  = 256
	nestStrip = 128
)

// secDim is one dimension of an evaluated section: its inclusive bounds
// and, while the section is walked, the odometer's position.
type secDim struct{ lo, hi, at int }

// arrayVal is an array's storage in Fortran order: the first subscript
// runs fastest.
type arrayVal struct {
	name string
	data []float64
	dims []int
}

func newFrame(cp *compiled, r *mpi.Rank) *frame {
	f := &frame{
		cp:     cp,
		r:      r,
		regs:   make([]float64, int(cp.tempBase+cp.numTemps)),
		addrs:  make([]int, cp.numAddrs),
		arrays: make([]arrayVal, len(cp.arrays)),
		sec:    make([]secDim, cp.maxSec),
		prof:   make([]branchCount, len(cp.ifs)),
		poll:   pollEvery,
	}
	// Bind built-ins and inputs before evaluating array dimensions, as
	// Fortran binds its parameter constants before declarations.
	f.bind(r.Size(), r.Rank())
	for i := range cp.arrays {
		ad := &cp.arrays[i]
		dims := make([]int, len(ad.dims))
		total := f.extents(ad, dims)
		bytes := int64(total) * ad.elem
		f.arrays[i] = arrayVal{name: ad.name, data: make([]float64, total), dims: dims}
		f.workingSet += bytes
		r.TrackAlloc(bytes)
	}
	return f
}

// bind resets the register file to a rank's initial state and rewinds the
// pc to the first array's dimension code.
func (f *frame) bind(size, rank int) {
	cp := f.cp
	clear(f.regs)
	copy(f.regs[len(cp.names):], cp.constVals)
	f.regs[cp.slots[ir.BuiltinP]] = float64(size)
	f.regs[cp.slots[ir.BuiltinMyID]] = float64(rank)
	//simvet:allow maprange each input binds its own scalar slot; order-independent
	for name, v := range cp.cfg.Inputs {
		if slot, ok := cp.slots[name]; ok {
			f.regs[slot] = v
		}
	}
	f.pc = 0
}

// extents runs the next array's dimension code and returns its element
// count, storing the extents in dims when the caller wants them.
func (f *frame) extents(ad *compiledArray, dims []int) int {
	f.exec()
	total := 1
	for d, r := range ad.dims {
		v := int(f.regs[r])
		if v < 1 {
			v = 1
		}
		if dims != nil {
			dims[d] = v
		}
		total *= v
	}
	return total
}

// Step implements mpi.Program on a frame newFrame prepared: run the
// program body from where it stopped until it ends or a communication it
// started waits. The branch counts are merged into the profile once, when
// the rank ends or faults.
func (f *frame) Step() bool {
	waiting := false
	if bp := f.cp.cfg.BranchProfile; bp != nil {
		defer func() {
			if !waiting {
				bp.merge(f.cp.ifs, f.prof)
			}
		}()
	}
	waiting = !f.exec()
	return !waiting
}

// exec runs from f.pc to the next opHalt and reports true, or to a
// communication that waits and reports false. No charge is pending at
// such an instruction: an opFlush precedes it and nothing between the
// two charges.
func (f *frame) exec() bool {
	cp := f.cp
	code, regs, addrs, arrs := cp.code, f.regs, f.addrs, f.arrays
	pc := f.pc
	// ops is the pending abstract-operation count, turned into simulated
	// compute time at communication and timer boundaries (opFlush).
	var ops int64
	for {
		in := &code[pc]
		pc++
		a, b, c := in.a, in.b, in.c
		switch in.op {
		case opHalt:
			f.pc = pc
			return true

		case opMov:
			regs[a] = regs[b]
		case opRound:
			regs[a] = math.Round(regs[b])
		case opAdd:
			regs[a] = regs[b] + regs[c]
		case opSub:
			regs[a] = regs[b] - regs[c]
		case opMul:
			regs[a] = regs[b] * regs[c]
		case opDiv:
			if regs[c] == 0 {
				apply(ir.OpDiv, regs[b], 0) // faults
			}
			regs[a] = regs[b] / regs[c]
		case opApply:
			regs[a] = apply(ir.Op(in.d), regs[b], regs[c])
		case opCall:
			regs[a] = cp.fns[c](regs[b])

		case opAddr1:
			arr := &arrs[b]
			v := int(regs[c])
			if v < 1 || v > arr.dims[0] {
				arr.outOfBounds(in.e != 0, v)
			}
			addrs[a] = v - 1
		case opAddr2:
			arr := &arrs[b]
			v0, v1 := int(regs[c]), int(regs[in.d])
			if v0 < 1 || v0 > arr.dims[0] || v1 < 1 || v1 > arr.dims[1] {
				arr.outOfBounds(in.e != 0, v0, v1)
			}
			addrs[a] = (v0 - 1) + arr.dims[0]*(v1-1)
		case opAddr3:
			arr := &arrs[b]
			v0, v1, v2 := int(regs[c]), int(regs[in.d]), int(regs[in.e])
			if v0 < 1 || v0 > arr.dims[0] || v1 < 1 || v1 > arr.dims[1] || v2 < 1 || v2 > arr.dims[2] {
				arr.outOfBounds(false, v0, v1, v2)
			}
			addrs[a] = (v0 - 1) + arr.dims[0]*((v1-1)+arr.dims[1]*(v2-1))
		case opAddrN:
			arr := &arrs[b]
			lin, stride := 0, 1
			for d, x := range regs[c : c+in.d] {
				v := int(x)
				if v < 1 || v > arr.dims[d] {
					arr.dimFault(d, v)
				}
				lin += (v - 1) * stride
				stride *= arr.dims[d]
			}
			addrs[a] = lin
		case opLoad:
			regs[a] = arrs[b].data[addrs[c]]
		case opStore:
			arrs[a].data[addrs[b]] = regs[c]
		case opAddLoad:
			regs[a] = regs[b] + arrs[c].data[addrs[in.d]]
		case opSubLoad:
			regs[a] = regs[b] - arrs[c].data[addrs[in.d]]

		case opJump:
			ops += int64(b)
			pc = int(a)
		case opBnLT:
			ops += int64(in.d)
			if !(regs[a] < regs[b]) {
				pc = int(c)
			}
		case opBnLE:
			ops += int64(in.d)
			if !(regs[a] <= regs[b]) {
				pc = int(c)
			}
		case opBrZ:
			ops += int64(in.d)
			if regs[a] == 0 {
				pc = int(c)
			}
		case opBrProf:
			ops += int64(in.d)
			n := &f.prof[b]
			n.total++
			if regs[a] != 0 {
				n.taken++
			} else {
				pc = int(c)
			}
		case opCount:
			// Charge the loop's trips and leave its registers as they do.
			init, next := &code[pc], &code[code[pc].d]
			if lo, hi := regs[init.b], regs[init.c]; f.counts(&cp.counts[a], lo, hi) {
				trips := int64(hi-lo) + 1
				ops += int64(init.e) + trips*(int64(next.d)+int64(next.e))
				regs[init.a], regs[init.a+1], regs[next.b] = hi, hi, hi
				pc = int(init.d) + 1
				f.backEdges(int(trips - 1))
			}
		case opRow:
			// The trips run by row are charged as their back-edges charge,
			// and a nest's body as its row code charges.
			rl := &cp.rows[a]
			least := float64(rowMin)
			if rl.box != nil {
				least = stripMin
			}
			if lo, hi := regs[rl.ctr], regs[rl.ctr+1]; !(-exact < lo && lo+(least-1) <= hi && hi < exact) {
				break
			}
			trips, body, done := f.row(rl)
			next := &code[rl.next]
			ops += body + int64(trips)*(int64(next.d)+int64(next.e))
			if done {
				ops -= int64(next.e)
				pc = int(rl.next) + 1
			}
		case opForInit:
			lo, hi := regs[b], regs[c]
			regs[a], regs[a+1] = lo, hi
			ops += int64(in.e)
			if next := &code[in.d]; lo <= hi {
				regs[next.b] = lo
				ops += int64(next.e)
			} else {
				pc = int(in.d) + 1
			}
		case opForNext:
			ops += int64(in.d)
			if v := regs[a] + 1; v <= regs[a+1] {
				regs[a], regs[b] = v, v
				ops += int64(in.e)
				pc = int(c)
				if f.poll--; f.poll == 0 {
					f.pollAbort()
				}
			}
		case opCharge:
			ops += int64(a)

		case opFlush:
			if ops += int64(a); ops != 0 {
				f.r.Compute(cp.cfg.Machine.ComputeTime(float64(ops), f.workingSet))
				ops = 0
			}
		case opSection:
			co := &cp.comms[a]
			if !f.section(co) {
				pc = int(b)
			}
		case opSend:
			co := &cp.comms[a]
			payload := f.payload
			f.payload = nil
			f.r.Send(int(regs[b]), co.tag, int64(sectionElems(f.sec[:len(co.sec)]))*8, payload)
		case opRecv:
			// A receive or a collective may have to wait for a message: the
			// frame stops there, and the instruction behind picks the result
			// up.
			co := &cp.comms[a]
			f.r.StartRecv(int(regs[b]), co.tag, int64(sectionElems(f.sec[:len(co.sec)]))*8)
			if f.suspended(pc) {
				return false
			}
		case opAllreduce:
			co := &cp.comms[a]
			vec := f.gather(co.slots)
			f.r.StartAllreduce(vec, int64(len(vec))*8, co.reduce)
			if f.suspended(pc) {
				return false
			}
		case opBcast:
			co := &cp.comms[a]
			root := int(regs[b])
			var vec []float64
			if f.r.Rank() == root {
				vec = f.gather(co.slots)
			}
			f.r.StartBcast(root, vec, int64(len(co.slots))*8)
			if f.suspended(pc) {
				return false
			}
		case opBarrier:
			f.r.StartBarrier()
			if f.suspended(pc) {
				return false
			}
		case opUnpack:
			co := &cp.comms[a]
			_, payload := f.r.Received()
			if data, ok := payload.([]float64); ok {
				arrs[co.arr].unpack(f.sec[:len(co.sec)], data)
			}
		case opResult:
			// The AbstractComm model transports no values; keep locals.
			f.scatter(cp.comms[a].slots, f.r.Vector())
		case opFault:
			panic(cp.comms[a].name)
		case opDelay:
			f.r.DelayTask(cp.comms[a].name, regs[b])
		case opTaskTimes:
			co := &cp.comms[a]
			for i, n := range co.names {
				regs[co.slots[i]] = f.r.ReadTaskTime(n)
			}
		case opNow:
			regs[a] = f.r.Now()
		case opTimed:
			cp.cfg.Calibration.Add(cp.comms[a].name, f.r.Now()-regs[b], regs[c])
		}
	}
}

// counts reports whether the loop cl, of scalar running from lo to hi,
// makes more than countMin trips, each value of its scalar exact and
// every subscript of its body in range; else it runs trip by trip. The
// body is unobserved assignments, so no scalar a subscript reads but the
// loop's changes: a scalar a subscript reads is observed, and so is an
// assignment to it.
func (f *frame) counts(cl *countLoop, lo, hi float64) bool {
	return cl.ok && -exact < lo && lo+countMin <= hi && hi < exact && hi-lo < exact &&
		f.inRange(cl.subs, []ir.Interval{{Lo: lo, Hi: hi}})
}

// rowScratch holds the rows of one loop running by row, rowStrip values
// each. A row never waits, so a frame borrows one for one loop.
type rowScratch struct {
	f      []float64
	o      []int
	stride []int         // by offset row: its stride over the strip, once proven affine
	keep   []float64     // the rows an if-converted arm writes, as they were
	saved  []int32       // ... and which rows they are
	mask   []bool        // the trips an if-converted arm keeps
	iv     []ir.Interval // a nest's entry proof: its loops' ranges
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

func (sc *rowScratch) row(k int32, n int) []float64 { return sc.f[int(k)*rowStrip:][:n] }
func (sc *rowScratch) off(k int32, n int) []int     { return sc.o[int(k)*rowStrip:][:n] }

// val reads a uniform operand: row k's first value, or register ^k.
func (sc *rowScratch) val(k int32, regs []float64) float64 {
	if k < 0 {
		return regs[^k]
	}
	return sc.f[int(k)*rowStrip]
}

// set writes v to every value of row k, or to register ^k.
func (sc *rowScratch) set(k int32, v float64, n int, regs []float64) {
	if k < 0 {
		regs[^k] = v
		return
	}
	r := sc.row(k, n)
	for t := range r {
		r[t] = v
	}
}

// row runs the loop rl, of whole bounds below 2^53, from the top of its
// first trip by strips, and returns the trips run, what its row code
// charged and whether they were all. An innermost loop's strips run while
// each one's addresses are in range and no trip of it writes an element
// another trip touches; a nest runs every trip once its entry proof
// holds, else none. The registers are left as the trip-by-trip loop
// leaves them: at the top of the next trip, or behind the loop.
func (f *frame) row(rl *rowLoop) (trips int, ops int64, done bool) {
	regs := f.regs
	lo, hi := regs[rl.ctr], regs[rl.ctr+1]
	total := int(hi-lo) + 1
	sc := rowPool.Get().(*rowScratch)
	defer rowPool.Put(sc)
	width := rowStrip
	if rl.box != nil {
		if width = nestStrip; !f.boxed(rl, sc, lo, hi, min(width, total)) {
			return 0, 0, false
		}
	}
	if n := len(rl.regs) * rowStrip; len(sc.f) < n {
		sc.f = make([]float64, n)
	}
	if n := int(rl.offs) * rowStrip; len(sc.o) < n {
		sc.o, sc.stride = make([]int, n), make([]int, rl.offs)
	}
	if sc.mask == nil {
		sc.mask = make([]bool, rowStrip)
	}
	for _, k := range rl.fill {
		r, v := sc.row(k, min(width, total)), regs[rl.regs[k]]
		for t := range r {
			r[t] = v
		}
	}
	if f.rowTrips == nil {
		f.rowTrips = make([]int64, len(f.cp.rows))
	}
	for trips < total {
		n := min(width, total-trips)
		r := sc.row(0, n)
		for t := range r {
			r[t] = lo + float64(trips+t)
		}
		if trips == 0 {
			r[0] = lo // -0 + 0 is +0
		}
		if _, ok := f.rowCode(rl.addr, sc, n, nil); !ok {
			break
		}
		if n = rl.proof(sc, n); n == 0 {
			break
		}
		body, ok := f.rowCode(rl.body, sc, n, nil)
		if !ok {
			panic("interp: a nest left the range its entry proof gave")
		}
		ops += body
		for _, k := range rl.out {
			regs[rl.regs[k]] = sc.row(k, n)[n-1]
		}
		trips += n
		f.rowTrips[rl.index] += int64(n)
		if trips == total {
			regs[rl.ctr] = hi
			f.backEdges(n - 1)
			return trips, ops, true
		}
		f.backEdges(n)
	}
	if trips > 0 {
		regs[rl.ctr], regs[rl.slot] = lo+float64(trips), lo+float64(trips)
	}
	return trips, ops, false
}

// proof returns how many of the strip's first n trips can run by row: up
// to where an offset row stored through stops being strictly monotone,
// and none when two offset rows into one array, one stored through, are
// not both affine with one stride s or their first offsets differ by a
// nonzero multiple of s below n of them.
func (rl *rowLoop) proof(sc *rowScratch, n int) int {
	if n == 1 {
		return n
	}
	for _, k := range rl.stored {
		o := sc.off(k, n)
		s := o[1] - o[0]
		if s == 0 {
			return 0
		}
		for t := 2; t < n; t++ {
			if d := o[t] - o[t-1]; d == 0 || (d > 0) != (s > 0) {
				n = t
			}
		}
	}
	for _, k := range rl.affine {
		o := sc.off(k, n)
		s := o[1] - o[0]
		for t := 2; t < n; t++ {
			if o[t]-o[t-1] != s {
				return 0
			}
		}
		sc.stride[k] = s
	}
	for _, p := range rl.pairs {
		s, d := sc.stride[p[0]], sc.o[int(p[1])*rowStrip]-sc.o[int(p[0])*rowStrip]
		if sc.stride[p[1]] != s || d%s == 0 && d != 0 && -n < d/s && d/s < n {
			return 0
		}
	}
	return n
}

// rowCode runs row code over the first n trips of a strip and returns
// what it charged; in an if-converted arm, mask says which trips store and
// pay its charges. An address out of range stops it: false.
func (f *frame) rowCode(code []instr, sc *rowScratch, n int, mask []bool) (ops int64, ok bool) {
	regs, arrs := f.regs, f.arrays
	per := int64(n) // the trips a charge is paid for
	if mask != nil {
		per = 0
		for _, m := range mask[:n] {
			if m {
				per++
			}
		}
	}
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opMov:
			copy(sc.row(in.a, n), sc.row(in.b, n))
		case opRound:
			x, y := sc.row(in.a, n), sc.row(in.b, n)
			for t := range x {
				x[t] = math.Round(y[t])
			}
		case opCall:
			x, y, fn := sc.row(in.a, n), sc.row(in.b, n), f.cp.fns[in.c]
			for t := range x {
				x[t] = fn(y[t])
			}
		case opAdd, opSub, opMul, opDiv, opApply:
			z, op := sc.row(in.c, n), ir.Op(in.d)
			if in.e != 0 { // s = s op z, in trip order
				s := regs[in.a]
				for _, v := range z {
					if in.op == opAdd {
						s += v
					} else {
						s = apply(op, s, v)
					}
				}
				regs[in.a] = s
				break
			}
			x, y := sc.row(in.a, n), sc.row(in.b, n)
			switch {
			case in.op == opAdd:
				for t := range x {
					x[t] = y[t] + z[t]
				}
			case in.op == opSub:
				for t := range x {
					x[t] = y[t] - z[t]
				}
			case in.op == opMul:
				for t := range x {
					x[t] = y[t] * z[t]
				}
			case op == ir.OpMax:
				for t := range x {
					x[t] = math.Max(y[t], z[t])
				}
			case op == ir.OpMod: // by a nonzero constant
				for t := range x {
					x[t] = symexpr.Mod(y[t], z[t])
				}
			default: // a divisor is a nonzero constant
				for t := range x {
					x[t] = apply(op, y[t], z[t])
				}
			}
		case opAddr1, opAddr2, opAddr3:
			// Each subscript is a row or a register; the offset is their
			// sum, each scaled by the extents of the dimensions before it.
			o, dims := sc.off(in.a, n), arrs[in.b].dims
			all := [3]int32{in.c, in.d, in.e}
			subs := all[:in.op-opAddr1+1]
			var strides [3]int
			base, stride, set := 0, 1, false
			for d, k := range subs {
				if strides[d] = stride; k < 0 {
					v := int(regs[^k]) - 1
					if uint(v) >= uint(dims[d]) {
						return ops, false
					}
					base += v * stride
				}
				stride *= dims[d]
			}
			for d, k := range subs {
				if k < 0 {
					continue
				}
				v, s, dim := sc.row(k, n), strides[d], uint(dims[d])
				for t := range o {
					w := int(v[t]) - 1
					if uint(w) >= dim {
						return ops, false
					}
					if set {
						o[t] += w * s
					} else {
						o[t] = base + w*s
					}
				}
				set = true
			}
			for t := 0; t < n && !set; t++ {
				o[t] = base
			}
		case opLoad:
			x, o, data := sc.row(in.a, n), sc.off(in.c, n), arrs[in.b].data
			for t := range x {
				x[t] = data[o[t]]
			}
		case opAddLoad, opSubLoad:
			o, data := sc.off(in.d, n), arrs[in.c].data
			if in.e != 0 {
				s := regs[in.a]
				for _, k := range o {
					s += data[k]
				}
				regs[in.a] = s
				break
			}
			x, y := sc.row(in.a, n), sc.row(in.b, n)
			if in.op == opSubLoad {
				for t := range x {
					x[t] = y[t] - data[o[t]]
				}
				break
			}
			for t := range x {
				x[t] = y[t] + data[o[t]]
			}
		case opStore:
			o, y, data := sc.off(in.b, n), sc.row(in.c, n), arrs[in.a].data
			for t := range o {
				if mask == nil || mask[t] {
					data[o[t]] = y[t]
				}
			}

		// A nest's control: uniform, its targets relative to the body.
		case opForInit:
			lo, hi := sc.val(in.b, regs), sc.val(in.c, regs)
			regs[in.a], regs[in.a+1] = lo, hi
			ops += int64(in.e) * per
			if next := &code[in.d]; lo <= hi {
				sc.set(next.b, lo, n, regs)
				ops += int64(next.e) * per
			} else {
				pc = int(in.d)
			}
		case opForNext:
			ops += int64(in.d) * per
			if v := regs[in.a] + 1; v <= regs[in.a+1] {
				regs[in.a] = v
				sc.set(in.b, v, n, regs)
				ops += int64(in.e) * per
				pc = int(in.c) - 1
				f.backEdges(n)
			}
		case opJump:
			ops += int64(in.b) * per
			pc = int(in.a) - 1
		case opCharge:
			ops += int64(in.a) * per
		case opBnLT, opBnLE, opBrZ, opBrProf:
			ops += int64(in.d) * per
			if in.e != 0 {
				o, ok := f.ifConverted(code, pc, sc, n)
				if ops += o; !ok {
					return ops, false
				}
				if pc = int(in.c) - 1; code[pc].op == opJump && int(code[pc].a) > pc+1 {
					pc = int(code[pc].a) - 1
				}
				break
			}
			var y float64
			if in.op <= opBnLE {
				y = sc.val(in.b, regs)
			}
			then := holds(in.op, sc.val(in.a, regs), y)
			if in.op == opBrProf {
				p := &f.prof[in.b]
				p.total += int64(n)
				if then {
					p.taken += int64(n)
				}
			}
			if !then {
				pc = int(in.c) - 1
			}
		}
	}
	return ops, true
}

// ifConverted runs the arms of the if-converted branch at code[pc] over
// the first n trips of a strip and returns what they charged: the then
// arm up to the branch target, or up to the jump over the else arm before
// it, the else arm from there to that jump's target. An arm cannot fault,
// so it runs on every trip of the strip but stores for the trips it is
// taken on only, and the rows it writes are put back for the others.
func (f *frame) ifConverted(code []instr, pc int, sc *rowScratch, n int) (ops int64, ok bool) {
	in := &code[pc]
	m, x, y := sc.mask[:n], sc.row(in.a, n), sc.row(in.a, n)
	if in.op <= opBnLE {
		y = sc.row(in.b, n)
	}
	taken := 0
	for t := range m {
		if m[t] = holds(in.op, x[t], y[t]); m[t] {
			taken++
		}
	}
	if in.op == opBrProf {
		p := &f.prof[in.b]
		p.total, p.taken = p.total+int64(n), p.taken+int64(taken)
	}
	then, end := int(in.c), int(in.c)
	if j := &code[then-1]; j.op == opJump && int(j.a) > then {
		then, end = then-1, int(j.a)
		ops = int64(j.b) * int64(taken)
	}
	for _, arm := range [2][]instr{code[pc+1 : then], code[min(then+1, end):end]} {
		if len(arm) > 0 && taken == n {
			o, ok := f.rowCode(arm, sc, n, nil)
			if ops += o; !ok {
				return ops, false
			}
		} else if len(arm) > 0 && taken > 0 {
			if need := len(arm) * rowStrip; len(sc.keep) < need {
				sc.keep = make([]float64, need)
			}
			saved := sc.saved[:0]
			for _, in := range arm {
				if writesRow(in.op) && !slices.Contains(saved, in.a) {
					copy(sc.keep[len(saved)*rowStrip:][:n], sc.row(in.a, n))
					saved = append(saved, in.a)
				}
			}
			o, ok := f.rowCode(arm, sc, n, m)
			if ops += o; !ok {
				return ops, false
			}
			for i, k := range saved {
				x, was := sc.row(k, n), sc.keep[i*rowStrip:][:n]
				for t := range x {
					if !m[t] {
						x[t] = was[t]
					}
				}
			}
			sc.saved = saved
		}
		for t := range m { // the else arm's trips
			m[t] = !m[t]
		}
		taken = n - taken
	}
	return ops, true
}

// holds reports whether a branch of op on x and y falls through to its
// then arm.
func holds(op opcode, x, y float64) bool {
	switch op {
	case opBnLT:
		return x < y
	case opBnLE:
		return x <= y
	}
	return x != 0
}

// writesRow reports whether row code of op writes the row of operand a.
func writesRow(op opcode) bool {
	return op >= opMov && op <= opCall || op == opLoad || op == opAddLoad || op == opSubLoad
}

// suspended reports whether the operation just started waits, saving
// the pc to resume at when it does.
func (f *frame) suspended(pc int) bool {
	if f.r.Waiting() {
		f.pc = pc
		return true
	}
	return false
}

// apply is symexpr.ApplyOp with its error (a zero divisor) as the fault.
func apply(op ir.Op, l, r float64) float64 {
	v, err := symexpr.ApplyOp(op, l, r)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// backEdges counts k loop back-edges toward the next abort check, as k
// opForNext instructions do.
func (f *frame) backEdges(k int) {
	if f.poll -= k; f.poll <= 0 {
		left := pollEvery + f.poll%pollEvery
		f.pollAbort()
		f.poll = left
	}
}

// pollAbort unwinds the rank when the run has been aborted (wall-clock
// timeout, cancellation, a tripped budget): a rank inside a long compute
// loop reaches no kernel call that would notice.
func (f *frame) pollAbort() {
	f.poll = pollEvery
	if f.r != nil {
		f.r.CheckAbort()
	}
}

func (f *frame) gather(slots []int32) []float64 {
	vec := make([]float64, len(slots))
	for i, s := range slots {
		vec[i] = f.regs[s]
	}
	return vec
}

func (f *frame) scatter(slots []int32, vec []float64) {
	if vec == nil {
		return
	}
	for i, s := range slots {
		f.regs[s] = vec[i]
	}
}

// outOfBounds raises the fault of a failed subscript check. One- and
// two-dimensional loads have their own wording; everything else names the
// first bad dimension.
func (a *arrayVal) outOfBounds(load bool, idx ...int) {
	switch {
	case load && len(idx) == 1:
		panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] of %s", idx[0], a.dims[0], a.name))
	case load && len(idx) == 2:
		panic(fmt.Sprintf("interp: index (%d,%d) out of bounds of %s", idx[0], idx[1], a.name))
	}
	for d, v := range idx {
		if v < 1 || v > a.dims[d] {
			a.dimFault(d, v)
		}
	}
}

func (a *arrayVal) dimFault(d, v int) {
	panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] in dim %d of %s",
		v, a.dims[d], d+1, a.name))
}

// section evaluates the bounds of comm c into f.sec and reports whether
// the section holds any element; empty ranges yield zero and skip the
// communication. A send's section is packed here, before its destination
// is evaluated.
func (f *frame) section(c *commOp) bool {
	sec := f.sec[:len(c.sec)]
	for i, rg := range c.sec {
		sec[i] = secDim{lo: int(f.regs[rg[0]]), hi: int(f.regs[rg[1]])}
	}
	if sectionElems(sec) == 0 {
		return false
	}
	if c.pack {
		f.payload = f.arrays[c.arr].pack(sec)
	}
	return true
}

// sectionElems returns the element count of a section given evaluated
// bounds; empty ranges yield zero.
func sectionElems(sec []secDim) int {
	total := 1
	for _, s := range sec {
		n := s.hi - s.lo + 1
		if n <= 0 {
			return 0
		}
		total *= n
	}
	return total
}

// first checks a non-empty section against the array and points its
// odometer at the first element.
func (a *arrayVal) first(sec []secDim) {
	for d := range sec {
		s := &sec[d]
		if s.lo < 1 || s.hi > a.dims[d] {
			panic(fmt.Sprintf("interp: section [%d:%d] out of bounds [1,%d] in dim %d of %s",
				s.lo, s.hi, a.dims[d], d+1, a.name))
		}
		s.at = s.lo
	}
}

// next returns the offset of the element under the odometer and advances
// it, last dimension fastest; more is false once the section is
// exhausted.
func (a *arrayVal) next(sec []secDim) (off int, more bool) {
	for d := len(sec) - 1; d >= 0; d-- {
		off = off*a.dims[d] + (sec[d].at - 1)
	}
	for d := len(sec) - 1; d >= 0; d-- {
		if sec[d].at++; sec[d].at <= sec[d].hi {
			return off, true
		}
		sec[d].at = sec[d].lo
	}
	return off, false
}

// pack copies a section into a fresh slice (snapshot semantics: the
// simulated network must not alias rank-local state).
func (a *arrayVal) pack(sec []secDim) []float64 {
	out := make([]float64, 0, sectionElems(sec))
	a.first(sec)
	for more := true; more; {
		var off int
		off, more = a.next(sec)
		out = append(out, a.data[off])
	}
	return out
}

// unpack copies received data into a section.
func (a *arrayVal) unpack(sec []secDim, data []float64) {
	if n := sectionElems(sec); len(data) != n {
		panic(fmt.Sprintf("interp: received %d elements for a %d-element section of %s",
			len(data), n, a.name))
	}
	a.first(sec)
	for i, more := 0, true; more; i++ {
		var off int
		off, more = a.next(sec)
		a.data[off] = data[i]
	}
}
