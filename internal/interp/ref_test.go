package interp

// The reference evaluator: the nested-closure lowering internal/interp
// shipped with before the register code (compile.go, exec.go), kept
// verbatim apart from the ref* names as the differential oracle of
// oracle_test.go. It is deliberately independent of the production
// frame, arrays and section code.

import (
	"fmt"
	"math"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/symexpr"
)

// refCompiled is a program lowered to closures over a frame. Compilation
// resolves every scalar name to a slot and every array name to an index,
// so execution performs no map lookups.
type refCompiled struct {
	prog       *ir.Program
	slots      map[string]int
	numScalars int
	slotP      int
	slotMyID   int
	arrays     []*refArray
	arrayIdx   map[string]int
	body       []refStmtFn
}

type refArray struct {
	name   string
	dimFns []refExprFn
	elem   int64
}

type refStmtFn func(*refFrame)

type refExprFn func(*refFrame) float64

func refCompile(p *ir.Program) (cp *refCompiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			cp = nil
			err = fmt.Errorf("interp: compile %s: %v", p.Name, r)
		}
	}()
	cp = &refCompiled{
		prog:     p,
		slots:    map[string]int{},
		arrayIdx: map[string]int{},
	}
	cp.slotP = cp.slot(ir.BuiltinP)
	cp.slotMyID = cp.slot(ir.BuiltinMyID)
	for _, par := range p.Params {
		cp.slot(par)
	}
	for i, ad := range p.Arrays {
		ca := &refArray{name: ad.Name, elem: ad.Elem}
		for _, de := range ad.Dims {
			ca.dimFns = append(ca.dimFns, cp.expr(de))
		}
		cp.arrays = append(cp.arrays, ca)
		cp.arrayIdx[ad.Name] = i
	}
	cp.body = cp.block(p.Body)
	cp.numScalars = len(cp.slots)
	return cp, nil
}

// slot returns the frame slot for a scalar, allocating on first use.
func (cp *refCompiled) slot(name string) int {
	if s, ok := cp.slots[name]; ok {
		return s
	}
	s := len(cp.slots)
	cp.slots[name] = s
	return s
}

func (cp *refCompiled) array(name string) int {
	i, ok := cp.arrayIdx[name]
	if !ok {
		panic(fmt.Sprintf("undeclared array %q", name))
	}
	return i
}

func (cp *refCompiled) block(body []ir.Stmt) []refStmtFn {
	fns := make([]refStmtFn, 0, len(body))
	for _, s := range body {
		fns = append(fns, cp.stmt(s))
	}
	return fns
}

// evalSection compiles section bounds to a closure producing evaluated
// integer bounds.
func (cp *refCompiled) section(sec []ir.Range) func(*refFrame) [][2]int {
	los := make([]refExprFn, len(sec))
	his := make([]refExprFn, len(sec))
	for i, rg := range sec {
		los[i] = cp.expr(rg.Lo)
		his[i] = cp.expr(rg.Hi)
	}
	return func(f *refFrame) [][2]int {
		out := make([][2]int, len(los))
		for i := range los {
			out[i][0] = int(math.Round(los[i](f)))
			out[i][1] = int(math.Round(his[i](f)))
		}
		return out
	}
}

func refSectionBytes(bounds [][2]int) int64 {
	return int64(refSectionElems(bounds)) * 8
}

func (cp *refCompiled) stmt(s ir.Stmt) refStmtFn {
	switch x := s.(type) {
	case *ir.Assign:
		rhs := cp.expr(x.RHS)
		cost := 1 + ir.OpCount(x.RHS)
		if !x.LHS.IsArray() {
			slot := cp.slot(x.LHS.Name)
			return func(f *refFrame) {
				f.ops += cost
				f.scalars[slot] = rhs(f)
			}
		}
		ai := cp.array(x.LHS.Name)
		idxFns := make([]refExprFn, len(x.LHS.Index))
		for i, e := range x.LHS.Index {
			idxFns[i] = cp.expr(e)
			cost += ir.OpCount(e)
		}
		nd := len(idxFns)
		return func(f *refFrame) {
			f.ops += cost
			a := f.arrays[ai]
			idx := make([]int, nd)
			for i := range idxFns {
				idx[i] = int(math.Round(idxFns[i](f)))
			}
			a.data[a.linear(idx)] = rhs(f)
		}

	case *ir.For:
		slot := cp.slot(x.Var)
		lo := cp.expr(x.Lo)
		hi := cp.expr(x.Hi)
		body := cp.block(x.Body)
		headCost := ir.OpCount(x.Lo) + ir.OpCount(x.Hi) + 1
		return func(f *refFrame) {
			f.ops += headCost
			loV := math.Round(lo(f))
			hiV := math.Round(hi(f))
			for v := loV; v <= hiV; v++ {
				f.ops++
				f.scalars[slot] = v
				for _, st := range body {
					st(f)
				}
			}
		}

	case *ir.If:
		cond := cp.expr(x.Cond)
		cost := 1 + ir.OpCount(x.Cond)
		then := cp.block(x.Then)
		els := cp.block(x.Else)
		stmt := x
		return func(f *refFrame) {
			f.ops += cost
			taken := cond(f) != 0
			if bp := f.cfg.BranchProfile; bp != nil {
				n := branchCount{total: 1}
				if taken {
					n.taken = 1
				}
				bp.merge([]*ir.If{stmt}, []branchCount{n})
			}
			if taken {
				for _, st := range then {
					st(f)
				}
			} else {
				for _, st := range els {
					st(f)
				}
			}
		}

	case *ir.Send:
		dest := cp.expr(x.Dest)
		secFn := cp.section(x.Section)
		ai := cp.array(x.Array)
		tag := x.Tag
		isDummy := x.Array == dummyBufferName
		return func(f *refFrame) {
			f.flush()
			bounds := secFn(f)
			if refSectionElems(bounds) == 0 {
				return
			}
			var payload interface{}
			if !isDummy {
				payload = f.arrays[ai].pack(bounds)
			}
			// Dummy-buffer sends (simplified MPI-SIM-AM programs) carry no
			// payload: the buffer exists only to preserve message sizes, its
			// values are never read (zeros either way), and skipping pack
			// keeps the AM hot path allocation-free. The receive side only
			// unpacks []float64 payloads, so nil is ignored there.
			f.r.Send(int(math.Round(dest(f))), tag, refSectionBytes(bounds), payload)
		}

	case *ir.Recv:
		src := cp.expr(x.Src)
		secFn := cp.section(x.Section)
		ai := cp.array(x.Array)
		tag := x.Tag
		return func(f *refFrame) {
			f.flush()
			bounds := secFn(f)
			if refSectionElems(bounds) == 0 {
				return
			}
			_, payload := f.r.RecvSized(int(math.Round(src(f))), tag, refSectionBytes(bounds))
			if data, ok := payload.([]float64); ok {
				f.arrays[ai].unpack(bounds, data)
			}
		}

	case *ir.Allreduce:
		slots := make([]int, len(x.Vars))
		for i, v := range x.Vars {
			slots[i] = cp.slot(v)
		}
		var op mpi.ReduceOp
		switch x.Op {
		case "sum":
			op = mpi.OpSum
		case "max":
			op = mpi.OpMax
		case "min":
			op = mpi.OpMin
		}
		return func(f *refFrame) {
			f.flush()
			vec := make([]float64, len(slots))
			for i, sl := range slots {
				vec[i] = f.scalars[sl]
			}
			out := f.r.Allreduce(vec, int64(len(vec))*8, op)
			// The AbstractComm model transports no values; keep locals.
			if out != nil {
				for i, sl := range slots {
					f.scalars[sl] = out[i]
				}
			}
		}

	case *ir.Bcast:
		root := cp.expr(x.Root)
		slots := make([]int, len(x.Vars))
		for i, v := range x.Vars {
			slots[i] = cp.slot(v)
		}
		return func(f *refFrame) {
			f.flush()
			rt := int(math.Round(root(f)))
			var vec []float64
			if f.r.Rank() == rt {
				vec = make([]float64, len(slots))
				for i, sl := range slots {
					vec[i] = f.scalars[sl]
				}
			}
			out := f.r.Bcast(rt, vec, int64(len(slots))*8)
			// The AbstractComm model transports no values; keep locals.
			if out != nil {
				for i, sl := range slots {
					f.scalars[sl] = out[i]
				}
			}
		}

	case *ir.Barrier:
		return func(f *refFrame) {
			f.flush()
			f.r.Barrier()
		}

	case *ir.ReadInput:
		slot := cp.slot(x.Var)
		name := x.Var
		return func(f *refFrame) {
			v, ok := f.cfg.Inputs[name]
			if !ok {
				panic(fmt.Sprintf("interp: missing program input %q", name))
			}
			f.scalars[slot] = v
		}

	case *ir.Delay:
		sec := cp.expr(x.Seconds)
		task := x.Task
		return func(f *refFrame) {
			// Delay arguments are simulator work, not target computation:
			// no op charge, and pending target ops flush first so that
			// timing order is preserved.
			f.flush()
			f.r.DelayTask(task, sec(f))
		}

	case *ir.ReadTaskTimes:
		slots := make([]int, len(x.Names))
		for i, n := range x.Names {
			slots[i] = cp.slot(n)
		}
		names := x.Names
		return func(f *refFrame) {
			f.flush()
			for i, n := range names {
				f.scalars[slots[i]] = f.r.ReadTaskTime(n)
			}
		}

	case *ir.Timed:
		units := cp.expr(x.Units)
		body := cp.block(x.Body)
		id := x.ID
		return func(f *refFrame) {
			f.flush()
			t0 := f.r.Now()
			for _, st := range body {
				st(f)
			}
			f.flush()
			if f.cfg.Calibration != nil {
				f.cfg.Calibration.Add(id, f.r.Now()-t0, units(f))
			}
		}
	}
	panic(fmt.Sprintf("unknown statement type %T", s))
}

func (cp *refCompiled) expr(e ir.Expr) refExprFn {
	switch x := e.(type) {
	case ir.Num:
		v := x.Value
		return func(*refFrame) float64 { return v }

	case ir.Scalar:
		slot := cp.slot(x.Name)
		return func(f *refFrame) float64 { return f.scalars[slot] }

	case ir.Idx:
		ai := cp.array(x.Array)
		idxFns := make([]refExprFn, len(x.Index))
		for i, sub := range x.Index {
			idxFns[i] = cp.expr(sub)
		}
		switch len(idxFns) {
		case 1:
			i0 := idxFns[0]
			return func(f *refFrame) float64 {
				a := f.arrays[ai]
				v := int(math.Round(i0(f)))
				if v < 1 || v > a.dims[0] {
					panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] of %s", v, a.dims[0], a.name))
				}
				return a.data[v-1]
			}
		case 2:
			i0, i1 := idxFns[0], idxFns[1]
			return func(f *refFrame) float64 {
				a := f.arrays[ai]
				v0 := int(math.Round(i0(f)))
				v1 := int(math.Round(i1(f)))
				if v0 < 1 || v0 > a.dims[0] || v1 < 1 || v1 > a.dims[1] {
					panic(fmt.Sprintf("interp: index (%d,%d) out of bounds of %s", v0, v1, a.name))
				}
				return a.data[(v0-1)*a.dims[1]+(v1-1)]
			}
		default:
			nd := len(idxFns)
			return func(f *refFrame) float64 {
				a := f.arrays[ai]
				idx := make([]int, nd)
				for i := range idxFns {
					idx[i] = int(math.Round(idxFns[i](f)))
				}
				return a.data[a.linear(idx)]
			}
		}

	case ir.Bin:
		l := cp.expr(x.L)
		r := cp.expr(x.R)
		switch x.Op {
		case ir.OpAdd:
			return func(f *refFrame) float64 { return l(f) + r(f) }
		case ir.OpSub:
			return func(f *refFrame) float64 { return l(f) - r(f) }
		case ir.OpMul:
			return func(f *refFrame) float64 { return l(f) * r(f) }
		default:
			op := x.Op
			return func(f *refFrame) float64 {
				v, err := symexpr.ApplyOp(op, l(f), r(f))
				if err != nil {
					panic(err.Error())
				}
				return v
			}
		}

	case ir.Call:
		fn := ir.Intrinsics[x.Name]
		if fn == nil {
			panic(fmt.Sprintf("unknown intrinsic %q", x.Name))
		}
		arg := cp.expr(x.Arg)
		return func(f *refFrame) float64 { return fn(arg(f)) }

	case ir.SumE:
		slot := cp.slot(x.Index)
		lo := cp.expr(x.Lo)
		hi := cp.expr(x.Hi)
		body := cp.expr(x.Body)
		return func(f *refFrame) float64 {
			loV := math.Round(lo(f))
			hiV := math.Round(hi(f))
			saved := f.scalars[slot]
			total := 0.0
			for v := loV; v <= hiV; v++ {
				f.scalars[slot] = v
				total += body(f)
			}
			f.scalars[slot] = saved
			return total
		}
	}
	panic(fmt.Sprintf("unknown expression type %T", e))
}

// refFrame is the reference evaluator's per-rank execution state.
type refFrame struct {
	cp      *refCompiled
	r       *mpi.Rank
	cfg     *Config
	scalars []float64
	arrays  []*refArrayVal
	// ops is the pending abstract-operation count, flushed to simulated
	// compute time at communication and timer boundaries.
	ops float64
	// workingSet is the rank's total allocated array bytes; it selects
	// the machine's cache factor.
	workingSet int64
}

type refArrayVal struct {
	name  string
	data  []float64
	dims  []int
	bytes int64
}

func newRefFrame(cp *refCompiled, r *mpi.Rank, cfg *Config) *refFrame {
	f := &refFrame{
		cp:      cp,
		r:       r,
		cfg:     cfg,
		scalars: make([]float64, cp.numScalars),
		arrays:  make([]*refArrayVal, len(cp.arrays)),
	}
	// Bind built-ins and inputs before evaluating array dimensions, as
	// Fortran binds its parameter constants before declarations.
	f.scalars[cp.slotP] = float64(r.Size())
	f.scalars[cp.slotMyID] = float64(r.Rank())
	//simvet:allow maprange each input binds its own scalar slot; order-independent
	for name, v := range cfg.Inputs {
		if slot, ok := cp.slots[name]; ok {
			f.scalars[slot] = v
		}
	}
	for i, ad := range cp.arrays {
		dims := make([]int, len(ad.dimFns))
		total := 1
		for d, fn := range ad.dimFns {
			v := int(fn(f))
			if v < 1 {
				v = 1
			}
			dims[d] = v
			total *= v
		}
		bytes := int64(total) * ad.elem
		f.arrays[i] = &refArrayVal{name: ad.name, data: make([]float64, total), dims: dims, bytes: bytes}
		f.workingSet += bytes
		r.TrackAlloc(bytes)
	}
	return f
}

// flush converts pending abstract operations into simulated compute time.
func (f *refFrame) flush() {
	if f.ops == 0 {
		return
	}
	f.r.Compute(f.cfg.Machine.ComputeTime(f.ops, f.workingSet))
	f.ops = 0
}

// linear computes the row-major linear index for 1-based subscripts,
// bounds-checked.
func (a *refArrayVal) linear(idx []int) int {
	lin := 0
	for d, v := range idx {
		if v < 1 || v > a.dims[d] {
			panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] in dim %d of %s",
				v, a.dims[d], d+1, a.name))
		}
		lin = lin*a.dims[d] + (v - 1)
	}
	return lin
}

// refSectionElems returns the element count of a section given evaluated
// bounds; empty ranges yield zero.
func refSectionElems(bounds [][2]int) int {
	total := 1
	for _, b := range bounds {
		n := b[1] - b[0] + 1
		if n <= 0 {
			return 0
		}
		total *= n
	}
	return total
}

// pack copies a section into a fresh slice (snapshot semantics: the
// simulated network must not alias rank-local state).
func (a *refArrayVal) pack(bounds [][2]int) []float64 {
	n := refSectionElems(bounds)
	out := make([]float64, 0, n)
	if n == 0 {
		return out
	}
	idx := make([]int, len(bounds))
	for d := range bounds {
		lo := bounds[d][0]
		if lo < 1 || bounds[d][1] > a.dims[d] {
			panic(fmt.Sprintf("interp: section [%d:%d] out of bounds [1,%d] in dim %d of %s",
				bounds[d][0], bounds[d][1], a.dims[d], d+1, a.name))
		}
		idx[d] = lo
	}
	for {
		out = append(out, a.data[a.linear(idx)])
		// Odometer increment, last dimension fastest.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= bounds[d][1] {
				break
			}
			idx[d] = bounds[d][0]
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}

// unpack copies received data into a section.
func (a *refArrayVal) unpack(bounds [][2]int, data []float64) {
	n := refSectionElems(bounds)
	if n == 0 {
		return
	}
	if len(data) != n {
		panic(fmt.Sprintf("interp: received %d elements for a %d-element section of %s",
			len(data), n, a.name))
	}
	idx := make([]int, len(bounds))
	for d := range bounds {
		if bounds[d][0] < 1 || bounds[d][1] > a.dims[d] {
			panic(fmt.Sprintf("interp: section [%d:%d] out of bounds [1,%d] in dim %d of %s",
				bounds[d][0], bounds[d][1], a.dims[d], d+1, a.name))
		}
		idx[d] = bounds[d][0]
	}
	for i := 0; ; i++ {
		a.data[a.linear(idx)] = data[i]
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= bounds[d][1] {
				break
			}
			idx[d] = bounds[d][0]
			d--
		}
		if d < 0 {
			break
		}
	}
}
