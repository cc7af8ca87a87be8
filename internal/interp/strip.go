package interp

import (
	"math"
	"slices"

	"mpisim/internal/ir"
)

// A nest, a loop around other loops, runs by strip (opRow) when no trip
// of its outer loop touches an element another trip writes and nothing
// flows from one trip to the next: its body, inner loops and all, runs
// once per strip of outer trips, each register a row (DESIGN.md "What
// direct execution runs by row").

// box is a nest's entry proof: the bounds of its inner loops in program
// order (interval v+1; interval 0 is the outer loop's range), and every
// subscript of its body.
type box struct {
	loops []boxLoop
	subs  []boxSub
}

// boxLoop is an inner loop's bounds; row: it has an opRow of its own.
type boxLoop struct {
	lo, hi ir.Span
	row    bool
}

// boxSub is the subscript of dimension dim of array arr.
type boxSub struct {
	arr, dim int32
	span     ir.Span
}

// stripMin trips are the fewest a nest runs by strip.
const stripMin = 2

// boxOf returns the entry proof of the nest x, or nil when its trips may
// touch each other's elements. Its body is assignments, ifs and loops,
// with no sum, and never assigns the outer scalar. Every array it writes
// is referenced, by every read and write in it, with the same subscript in
// one dimension, integral and affine in the outer scalar with a nonzero
// literal coefficient once the scalars the nest assigns once are
// substituted; and every subscript and inner bound can be bounded over the
// box, a scalar the nest assigns once by its right-hand side.
func (cp *compiled) boxOf(x *ir.For) *box {
	sets := map[string]int{} // assignments in the nest; a loop variable counts twice
	ok, nest := true, false
	ir.Walk(x.Body, func(s ir.Stmt) bool {
		switch y := s.(type) {
		case *ir.Assign:
			if !y.LHS.IsArray() {
				sets[y.LHS.Name]++
			}
		case *ir.For:
			sets[y.Var] += 2
			nest = true
		case *ir.If:
		default:
			ok = false
		}
		return ok
	})
	if !ok || !nest || sets[x.Var] > 0 {
		return nil
	}
	bx := &box{}
	scope := map[string]int32{x.Var: 0}
	spans := map[string]ir.Span{}
	var once []string // scalars assigned once whose right-hand side reads only invariants and the outer scalar
	exprs := map[string]ir.Expr{}
	leaf := func(name string) (ir.Span, bool) {
		if v, in := scope[name]; in {
			return ir.SpanVar(v), true
		} else if s, def := spans[name]; def {
			return s, true
		}
		s, lowered := cp.slots[name] // an unobserved scalar may have none
		return ir.SpanReg(s), lowered && sets[name] == 0
	}
	span := func(e ir.Expr) (ir.Span, bool) { return ir.CompileSpan(e, leaf, cp.integral) }
	subst := func(e ir.Expr) ir.Expr {
		for _, name := range once {
			e = ir.SubstScalar(e, name, exprs[name])
		}
		return e
	}
	refs := map[string][][]ir.Expr{} // by array: each reference's subscripts, substituted
	var written []string
	var expr func(ir.Expr) bool
	expr = func(e ir.Expr) bool {
		switch y := e.(type) {
		case ir.Idx:
			sub := make([]ir.Expr, len(y.Index))
			for d, e := range y.Index {
				s, ok := span(e)
				if !ok {
					return false
				}
				bx.subs = append(bx.subs, boxSub{cp.array(y.Array), int32(d), s})
				sub[d] = subst(e)
			}
			refs[y.Array] = append(refs[y.Array], sub)
		case ir.Bin:
			return expr(y.L) && expr(y.R)
		case ir.Call:
			return expr(y.Arg)
		case ir.SumE:
			return false
		}
		return true
	}
	var walk func([]ir.Stmt) bool
	walk = func(body []ir.Stmt) bool {
		for _, s := range body {
			switch y := s.(type) {
			case *ir.Assign:
				if !expr(y.RHS) || y.LHS.IsArray() && !expr(ir.Idx{Array: y.LHS.Name, Index: y.LHS.Index}) {
					return false
				}
				if y.LHS.IsArray() {
					written = append(written, y.LHS.Name)
				} else if sets[y.LHS.Name] == 1 {
					if s, ok := span(y.RHS); ok {
						spans[y.LHS.Name] = s
					}
					if _, ok := along(subst(y.RHS), x.Var, sets); ok {
						once, exprs[y.LHS.Name] = append(once, y.LHS.Name), subst(y.RHS)
					}
				}
			case *ir.For:
				lo, lok := span(y.Lo)
				hi, hok := span(y.Hi)
				if !lok || !hok {
					return false
				}
				bx.loops = append(bx.loops, boxLoop{lo: lo, hi: hi})
				outer, shadows := scope[y.Var]
				if scope[y.Var] = int32(len(bx.loops)); !walk(y.Body) {
					return false
				}
				if delete(scope, y.Var); shadows {
					scope[y.Var] = outer
				}
			case *ir.If:
				if !expr(y.Cond) || !walk(y.Then) || !walk(y.Else) {
					return false
				}
			}
		}
		return true
	}
	if !walk(x.Body) {
		return nil
	}
	for _, arr := range written {
		apart := false
		for d, e := range refs[arr][0] {
			same := true
			for _, r := range refs[arr] {
				same = same && d < len(r) && sameExpr(r[d], e)
			}
			c, affine := along(e, x.Var, sets)
			apart = apart || same && affine && c != 0 && cp.integral(e)
		}
		if !apart {
			return nil
		}
	}
	return bx
}

// along returns the coefficient of the scalar k in e when e is affine in
// k with a literal coefficient and reads no array and no other scalar the
// nest assigns (sets).
func along(e ir.Expr, k string, sets map[string]int) (float64, bool) {
	switch y := e.(type) {
	case ir.Num:
		return 0, true
	case ir.Scalar:
		if y.Name == k {
			return 1, true
		}
		return 0, sets[y.Name] == 0
	case ir.Bin:
		l, lok := along(y.L, k, sets)
		r, rok := along(y.R, k, sets)
		ln, llit := y.L.(ir.Num)
		rn, rlit := y.R.(ir.Num)
		switch {
		case !lok || !rok:
			return 0, false
		case y.Op == ir.OpAdd:
			return l + r, true
		case y.Op == ir.OpSub:
			return l - r, true
		case y.Op == ir.OpMul && llit:
			return ln.Value * r, true
		case y.Op == ir.OpMul && rlit:
			return l * rn.Value, true
		}
		return 0, l == 0 && r == 0
	}
	return 0, false
}

func isBranch(op opcode) bool { return op >= opBnLT && op <= opBrProf }

// stripable reports whether the nest whose body is code[top:next], of
// entry proof bx, can run by strip, and how. The body computes, loads and
// stores as an innermost row loop's may, and its control is uniform: no
// inner bound or branch reads a register that varies with the outer
// scalar (its own, a loaded element, what an if-converted arm writes and
// what is computed from them), but for a branch whose arms are
// straight-line code, which is if-converted. Its row code keeps the
// control, targets relative to the body; a register no arithmetic reads
// or writes stays in the register file, operand ^r, read by addresses and
// control, and so do the inner loops' counters.
func (cp *compiled) stripable(top, next int, bx *box) (rowLoop, bool) {
	rl := rowLoop{ctr: cp.code[next].a, slot: cp.code[next].b, box: bx}
	code := slices.Clone(cp.code[top:next])
	nreg := int(cp.tempBase + cp.numTemps)
	ctl, counter, written, read := make([]bool, nreg), make([]bool, nreg), make([]bool, nreg), make([]bool, nreg)
	loops := 0
	for i := range code {
		switch in := &code[i]; {
		case in.op == opForInit:
			if loops < len(bx.loops) {
				bx.loops[loops].row = cp.code[code[int(in.d)-top].c-1].op == opRow
			}
			loops++
			in.d -= int32(top)
			ctl[in.a], ctl[in.a+1], counter[in.a], counter[in.a+1] = true, true, true, true
		case in.op == opForNext:
			in.c -= int32(top)
			ctl[in.a], ctl[in.b] = true, true
		case in.op == opJump:
			in.a -= int32(top)
		case isBranch(in.op):
			in.c -= int32(top)
		case in.op == opCharge || in.op == opRow || in.op == opCount:
		default:
			w, reads, _, _, ok := rowOperands(in)
			if !ok || cp.divides(in) {
				return rl, false
			}
			if w != nil {
				written[*w] = true
			}
			for _, r := range reads {
				read[*r] = read[*r] || in.op < opAddr1 || in.op > opAddr3
			}
		}
	}
	if loops != len(bx.loops) || ctl[rl.slot] || written[rl.slot] {
		return rl, false
	}
	vary := make([]bool, nreg)
	vary[rl.slot] = true
	arms := map[int]int{} // if-converted branch -> end of its arms
	inArm := make([]bool, len(code))
	for changed := true; changed; {
		changed = false
		for i := range code {
			in := &code[i]
			if _, conv := arms[i]; isBranch(in.op) && !conv && (vary[in.a] || in.op <= opBnLE && vary[in.b]) {
				c := int(in.c)
				if arms[i] = c; code[c-1].op == opJump && int(code[c-1].a) > c {
					arms[i] = int(code[c-1].a)
				}
				for p := i + 1; p < arms[i]; p++ {
					inArm[p] = true
				}
				changed = true
			}
			w, reads, _, _, ok := rowOperands(in)
			v := inArm[i] || in.op == opLoad || in.op == opAddLoad || in.op == opSubLoad
			for _, r := range reads {
				v = v || vary[*r]
			}
			if ok && w != nil && v && !vary[*w] {
				vary[*w], changed = true, true
			}
		}
	}
	for i := range code {
		in := &code[i]
		end, conv := arms[i]
		if in.op == opForInit && (vary[in.b] || vary[in.c]) {
			return rl, false
		} else if !conv {
			continue
		}
		if read[in.a] = true; in.op <= opBnLE {
			read[in.b] = true
		}
		for p := i + 1; p < end; p++ {
			j := &code[p]
			if _, _, _, _, plain := rowOperands(j); !plain && j.op != opCharge && !(j.op == opJump && p == int(in.c)-1) {
				return rl, false
			}
		}
	}
	if !cp.defined(code, rl.slot, arms, ctl, written) {
		return rl, false
	}

	rows, offs := map[int32]int32{}, map[int32]int32{}
	row := func(r int32) int32 {
		k, ok := rows[r]
		if !ok {
			k = int32(len(rl.regs))
			rows[r], rl.regs = k, append(rl.regs, r)
			if r != rl.slot {
				rl.fill = append(rl.fill, k)
			}
			if (written[r] || ctl[r]) && !counter[r] || r == rl.slot {
				rl.out = append(rl.out, k)
			}
		}
		return k
	}
	row(rl.slot)
	enc := func(r *int32) {
		if *r == rl.slot || written[*r] || read[*r] {
			*r = row(*r)
		} else {
			*r = ^*r
		}
	}
	for i := range code {
		in := &code[i]
		w, reads, addr, _, plain := rowOperands(in)
		switch {
		case in.op == opForInit:
			enc(&in.b)
			enc(&in.c)
		case in.op == opForNext:
			enc(&in.b)
		case isBranch(in.op):
			if _, conv := arms[i]; conv {
				in.e = 1
			}
			if enc(&in.a); in.op <= opBnLE {
				enc(&in.b)
			}
		case plain:
			for _, r := range reads {
				if in.op >= opAddr1 && in.op <= opAddr3 {
					enc(r)
				} else {
					*r = row(*r)
				}
			}
			if w != nil {
				*w = row(*w)
			}
			if addr == nil {
				break
			}
			k, ok := offs[*addr]
			if !ok {
				k, offs[*addr] = int32(len(offs)), int32(len(offs))
			}
			*addr = k
		}
	}
	rl.offs, rl.body = int32(len(offs)), code
	return rl, true
}

// defined reports whether every register the nest body code reads that it
// writes (control: ctl; the rest: written), and every address register,
// is written before in the same outer trip, and every scalar an
// if-converted arm (arms) writes before the branch. An inner loop may
// make no trip and an if's arms meet at its end, so what they write
// counts inside them only; an inner loop's counter and limit count for
// its own control only.
func (cp *compiled) defined(code []instr, slot int32, arms map[int]int, ctl, written []bool) bool {
	type scope struct {
		end       int
		def, addr []bool
	}
	def, addr := make([]bool, len(ctl)), make([]bool, cp.numAddrs)
	def[slot] = true
	var open []scope
	enter := func(end int) { open = append(open, scope{end, slices.Clone(def), slices.Clone(addr)}) }
	leave := func() {
		s := open[len(open)-1]
		open, def, addr = open[:len(open)-1], s.def, s.addr
	}
	for i := range code {
		for len(open) > 0 && open[len(open)-1].end == i {
			leave()
		}
		in := &code[i]
		w, reads, a, arr, plain := rowOperands(in)
		var rs []int32
		switch {
		case plain:
			for _, r := range reads {
				rs = append(rs, *r)
			}
			if a != nil && arr >= 0 && !addr[*a] {
				return false
			}
		case in.op == opForInit:
			rs = []int32{in.b, in.c}
		case isBranch(in.op):
			if rs = []int32{in.a}; in.op <= opBnLE {
				rs = append(rs, in.b)
			}
		}
		for _, r := range rs {
			if (ctl[r] || written[r]) && !def[r] {
				return false
			}
		}
		switch {
		case in.op == opForInit:
			enter(int(in.d) + 1)
			def[code[in.d].b] = true
		case isBranch(in.op):
			for p := i + 1; p < arms[i]; p++ {
				if w, _, _, _, _ := rowOperands(&code[p]); w != nil && int(*w) < len(cp.names) && !def[*w] {
					return false
				}
			}
			enter(int(in.c))
		case in.op == opJump: // the else arm starts from what held at the branch
			leave()
			enter(int(in.a))
		case w != nil:
			def[*w] = true
		case a != nil && arr < 0:
			addr[*a] = true
		}
	}
	return true
}

// boxed reports whether the entry proof of the nest rl holds for its trips
// from lo to hi, run by strips of width: every inner loop's range is
// exact and not empty, no inner loop that runs by row itself would make
// at least rowMin trips and more than a strip is wide, and every
// subscript is in range over the whole box.
func (f *frame) boxed(rl *rowLoop, sc *rowScratch, lo, hi float64, width int) bool {
	iv := append(sc.iv[:0], ir.Interval{Lo: lo, Hi: hi})
	for _, l := range rl.box.loops {
		a, aok := l.lo(f.regs, iv)
		b, bok := l.hi(f.regs, iv)
		v := ir.Interval{Lo: math.Round(a.Lo), Hi: math.Round(b.Hi)}
		if trips := v.Hi - v.Lo + 1; !aok || !bok || !(-exact < v.Lo && v.Lo <= v.Hi && v.Hi < exact) ||
			l.row && trips >= rowMin && trips > float64(width) {
			return false
		}
		iv = append(iv, v)
	}
	sc.iv = iv
	return f.inRange(rl.box.subs, iv)
}

// inRange reports whether every subscript of subs is in range while the
// scalars of interval v range over vars[v].
func (f *frame) inRange(subs []boxSub, vars []ir.Interval) bool {
	for _, s := range subs {
		dims := f.arrays[s.arr].dims
		v, ok := s.span(f.regs, vars)
		if !ok || int(s.dim) >= len(dims) || !(1 <= math.Round(v.Lo) && math.Round(v.Hi) <= float64(dims[s.dim])) {
			return false
		}
	}
	return true
}

// insertRow puts an opRow for row loop k at pc top, the first of the body
// of the loop whose opForInit is at init, and moves every jump target at
// or behind it, which only the loop's code holds.
func (cp *compiled) insertRow(init, top int, k int32) {
	cp.code = slices.Insert(cp.code, top, instr{op: opRow, a: k})
	shift := func(pc *int32) {
		if int(*pc) >= top {
			*pc++
		}
	}
	for pc := init; pc < len(cp.code); pc++ {
		switch in := &cp.code[pc]; {
		case in.op == opForInit:
			shift(&in.d)
		case in.op == opForNext || isBranch(in.op):
			shift(&in.c)
		case in.op == opJump:
			shift(&in.a)
		}
	}
	for i := range cp.rows {
		shift(&cp.rows[i].next)
	}
}
