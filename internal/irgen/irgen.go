// Package irgen generates random, well-formed, deadlock-free IR programs
// for property-based testing of the whole pipeline: any generated program
// must validate, compile, run deterministically under every engine, and
// — the paper's core invariant — its compiler-simplified version must
// reproduce direct execution at the calibration configuration.
//
// Generated programs follow the shape of real data-parallel codes: a
// prologue computing block sizes from inputs, an initialization nest, a
// time loop containing ring-shift communication guarded by rank tests,
// computation nests over the local block, occasional data-dependent
// branches inside collapsible nests, and reductions. Communication is
// restricted to left/right ring shifts with matching guards so the
// programs cannot deadlock by construction.
package irgen

import (
	"fmt"
	"math"
	"math/rand"

	"mpisim/internal/ir"
)

// Config bounds the generated program's shape.
type Config struct {
	// MaxArrays in 1..; default 3.
	MaxArrays int
	// MaxNests bounds computation nests in the time loop; default 3.
	MaxNests int
	// MaxTimeSteps bounds the time loop trip count; default 4.
	MaxTimeSteps int
	// AccessShapes adds, to every time step, the access and loop shapes
	// the interpreter's lowering specialises on (see shapes). Off, a seed
	// generates the program it always has.
	AccessShapes bool
}

func (c Config) withDefaults() Config {
	if c.MaxArrays <= 0 {
		c.MaxArrays = 3
	}
	if c.MaxNests <= 0 {
		c.MaxNests = 3
	}
	if c.MaxTimeSteps <= 0 {
		c.MaxTimeSteps = 4
	}
	return c
}

// Program generates a random program from the seed. The same seed always
// produces the same program. Inputs returns suitable input values.
func Program(seed int64, cfg Config) (*ir.Program, map[string]float64) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(seed))
	g := &gen{r: r, cfg: cfg}
	return g.program(seed)
}

type gen struct {
	r   *rand.Rand
	cfg Config
}

func (g *gen) program(seed int64) (*ir.Program, map[string]float64) {
	nArrays := 1 + g.r.Intn(g.cfg.MaxArrays)
	p := &ir.Program{
		Name:   fmt.Sprintf("gen%d", seed),
		Params: []string{"N", "STEPS"},
	}
	// Local arrays sized by the block size plus ghost cells.
	cols := ir.Add(ir.CeilDiv(ir.S("N"), ir.S(ir.BuiltinP)), ir.N(2))
	for i := 0; i < nArrays; i++ {
		p.Arrays = append(p.Arrays, &ir.ArrayDecl{
			Name: fmt.Sprintf("A%d", i),
			Dims: []ir.Expr{ir.S("N"), cols},
			Elem: 8,
		})
	}
	arr := func(i int) string { return fmt.Sprintf("A%d", i%nArrays) }

	body := ir.Block(
		&ir.ReadInput{Var: "N"},
		&ir.ReadInput{Var: "STEPS"},
		ir.SetS("b", ir.CeilDiv(ir.S("N"), ir.S(ir.BuiltinP))),
		ir.SetS("nloc", ir.MaxE(ir.N(1), ir.MinE(ir.S("b"),
			ir.Sub(ir.S("N"), ir.Mul(ir.S(ir.BuiltinMyID), ir.S("b")))))),
	)
	// Initialization nest over the local block.
	body = append(body, ir.Loop("init", "j", ir.N(1), ir.Add(ir.S("nloc"), ir.N(2)),
		ir.Loop("", "i", ir.N(1), ir.S("N"),
			ir.SetA(arr(0), ir.IX(ir.S("i"), ir.S("j")),
				ir.Mul(ir.Add(ir.S("i"), ir.S("j")), ir.N(0.01))))))

	// Time loop: ring shifts plus random computation nests.
	var step []ir.Stmt
	step = append(step, g.shift(arr(g.r.Intn(nArrays)))...)
	nests := 1 + g.r.Intn(g.cfg.MaxNests)
	for n := 0; n < nests; n++ {
		step = append(step, g.nest(arr, nArrays, n))
		if g.r.Intn(3) == 0 {
			step = append(step, g.reduction(arr(g.r.Intn(nArrays)))...)
		}
	}
	if g.cfg.AccessShapes {
		body = append(body, &ir.ReadInput{Var: "H"})
		step = append(step, g.shapes(p)...)
		step = append(step, forwarding(p)...)
		step = append(step, numbering()...)
		step = append(step, counting(p)...)
		step = append(step, strips(p)...)
		step = append(step, rows(p)...)
	}
	body = append(body, ir.Loop("time", "t", ir.N(1), ir.S("STEPS"), step...))
	p.Body = body

	inputs := map[string]float64{
		"N":     float64(16 + 8*g.r.Intn(6)),
		"STEPS": float64(1 + g.r.Intn(g.cfg.MaxTimeSteps)),
	}
	if g.cfg.AccessShapes {
		p.Params = append(p.Params, "H")
		inputs["H"] = 1.5 + float64(g.r.Intn(3)) // never integral: 1.5, 2.5 or 3.5
	}
	return p, inputs
}

// shapes declares a 1-D, a 3-D and a 4-D array and emits the forms an
// evaluator is tempted to get wrong (all in bounds for N >= 16): a
// subscript that needs rounding, from an expression and from the
// non-integral input H; a subscript scalar reassigned between two accesses
// of the same element, in straight-line code, in a loop body and in one
// arm of an if that accesses it again before the arms join;
// a sum inside a subscript; a loop variable assigned in its own body;
// zero-trip loops, from ordered bounds and from a NaN bound, and a send of
// an empty section, each skipping code that computes an address used
// again behind it; a loop starting at -0; an else arm; and min, max, mod,
// idiv, ceildiv feeding 3-D and 4-D subscripts.
func (g *gen) shapes(p *ir.Program) []ir.Stmt {
	p.Arrays = append(p.Arrays,
		&ir.ArrayDecl{Name: "V", Dims: []ir.Expr{ir.S("N")}, Elem: 8},
		&ir.ArrayDecl{Name: "B3", Dims: []ir.Expr{ir.N(4), ir.N(3), ir.N(2)}, Elem: 8},
		&ir.ArrayDecl{Name: "B4", Dims: []ir.Expr{ir.N(3), ir.N(2), ir.N(2), ir.N(2)}, Elem: 8},
	)
	n := func(v int) ir.Expr { return ir.N(float64(v)) }
	q, s, t := ir.S("q"), ir.S("s"), ir.S("t")
	i3, j3, k3 := ir.S("i3"), ir.S("j3"), ir.S("k3")
	bump := func(idx ir.Expr, by ir.Expr) ir.Stmt { // V(idx) = V(idx) + by
		return ir.SetA("V", ir.IX(idx), ir.Add(ir.At("V", idx), by))
	}
	half := ir.Add(ir.Mul(q, ir.N(0.5)), ir.N(0.5)) // 1, 1.5, 2, 2.5, ...
	sumIdx := ir.SumE{Index: "q", Lo: n(1), Hi: n(1 + g.r.Intn(3)), Body: q}
	idiv := func(l, r ir.Expr) ir.Expr { return ir.Bin{Op: ir.OpIDiv, L: l, R: r} }
	armed := ir.Block(ir.SetS("s", n(4+g.r.Intn(4))), bump(s, n(2)))
	oneArm := &ir.If{Cond: ir.LT(ir.At("V", n(1)), t), Then: armed}
	if g.r.Intn(2) == 0 {
		oneArm = &ir.If{Cond: ir.LT(ir.At("V", n(1)), t), Then: ir.Block(bump(n(9), n(1))), Else: armed}
	}
	return ir.Block(
		bump(ir.S("H"), n(1)),
		ir.Loop("", "q", n(1), n(3+g.r.Intn(4)), bump(half, q)),
		ir.SetS("s", n(2+g.r.Intn(2))),
		bump(s, n(1)),
		ir.SetS("s", ir.Add(s, n(1))),
		bump(s, s),
		ir.Loop("", "q", n(1), n(2), bump(s, q), ir.SetS("s", ir.Add(s, n(1)))),
		oneArm,
		bump(s, ir.N(0.5)),
		bump(sumIdx, n(1)),
		ir.Loop("", "q", n(1), n(3), ir.SetS("q", ir.Add(q, n(5))), bump(q, n(1))),
		ir.Loop("", "q", n(5), n(4), bump(n(3), n(-100))),
		bump(n(3), n(1)),
		ir.Loop("", "q", n(1), ir.Sqrt(n(-1)), bump(n(1), n(-100))),
		&ir.Send{Dest: ir.Mul(ir.At("V", n(5)), n(0)), Tag: 99, Array: "V", Section: ir.Sec(n(3), n(2))},
		bump(n(5), n(1)),
		ir.Loop("", "q", ir.N(math.Copysign(0, -1)), n(g.r.Intn(2)), bump(ir.Add(q, n(1)), n(1))),
		&ir.If{Cond: ir.EQ(ir.Mod(t, n(2)), n(0)),
			Then: ir.Block(bump(n(1), n(1))), Else: ir.Block(bump(n(2), n(1)))},
		ir.Loop("", "k3", n(1), n(2), ir.Loop("", "j3", n(1), n(3), ir.Loop("", "i3", n(1), ir.MinE(ir.S("N"), n(4)),
			ir.SetA("B3", ir.IX(i3, j3, k3), ir.Add(ir.At("B3", i3, j3, k3),
				ir.At("V", ir.Add(ir.Mod(ir.Add(i3, j3), n(3)), n(1))))),
			ir.SetA("B4", ir.IX(j3, k3, idiv(ir.Add(i3, n(1)), n(2)), ir.CeilDiv(i3, n(2))),
				ir.Add(ir.At("B4", j3, k3, ir.MaxE(n(1), ir.Sub(k3, n(1))), ir.CeilDiv(i3, n(2))),
					ir.At("B3", i3, j3, k3))),
		))),
	)
}

// forwarding declares a 1-D array shaped like V, a 2-D one shaped like
// A0 and one that is not, and emits the forms that forwarding an element
// from a register, sharing a checked offset between arrays and running a
// loop-invariant assignment once per loop entry could get wrong (all in
// bounds for N >= 16): stores through two subscript scalars equal at run
// time, then a load; a store through a computed subscript and a 4-D store
// between a store and a load; a ring-shift receive into the array
// between two loads; an element loaded in one arm of an if, and one
// reloaded after a store in a loop body, each loaded again behind the
// join or the back-edge; arrays with equal and with different dimension
// expressions at the same subscripts; an invariant assignment in a
// zero-trip loop, one whose operand the body writes later, one that
// would divide by zero, and one that runs; an element loaded as a
// subscript that needs rounding, then loaded again; and an element copied
// to another array before a store of a new value to it.
func forwarding(p *ir.Program) []ir.Stmt {
	p.Arrays = append(p.Arrays,
		&ir.ArrayDecl{Name: "U", Dims: []ir.Expr{ir.S("N")}, Elem: 8},
		&ir.ArrayDecl{Name: "W2", Dims: []ir.Expr{ir.S("N"),
			ir.Add(ir.CeilDiv(ir.S("N"), ir.S(ir.BuiltinP)), ir.N(2))}, Elem: 8},
		&ir.ArrayDecl{Name: "S2", Dims: []ir.Expr{ir.S("N"), ir.N(3)}, Elem: 8},
	)
	n := func(v float64) ir.Expr { return ir.N(v) }
	v := func(idx ir.Expr) ir.Expr { return ir.At("V", idx) }
	setV := func(idx, rhs ir.Expr) ir.Stmt { return ir.SetA("V", ir.IX(idx), rhs) }
	myid, t, q, h := ir.S(ir.BuiltinMyID), ir.S("t"), ir.S("q"), ir.S("H")
	a1, a2, r, c := ir.S("a1"), ir.S("a2"), ir.S("r"), ir.S("c")
	tMod := func(m float64) ir.Expr { return ir.Mod(t, n(m)) }
	return ir.Block(
		ir.SetS("a1", ir.Add(n(4), tMod(2))),
		ir.SetS("a2", ir.Add(n(4), tMod(2))),
		setV(a1, ir.Add(v(a1), n(1))),
		setV(a2, ir.Add(n(7), t)),
		ir.SetS("x1", ir.Mul(v(a1), n(2))),
		setV(a1, ir.Add(v(a1), n(0.25))),
		setV(ir.Add(a1, n(0)), n(9)),
		ir.SetS("x2", ir.Add(v(a1), n(1))),
		ir.SetA("B4", ir.IX(n(1), n(1), n(1), n(1)), ir.Add(ir.At("B4", n(1), n(1), n(1), n(1)), n(1))),
		ir.SetA("B4", ir.IX(n(1), n(1), n(1), n(1)), ir.Mul(t, n(3))),
		ir.SetS("x3", ir.At("B4", n(1), n(1), n(1), n(1))),
		setV(n(8), ir.AddN(ir.Mul(myid, n(7)), n(100), ir.Mul(t, t))),
		ir.SetS("x4", ir.Add(v(n(7)), n(0))),
		&ir.If{Cond: ir.GT(myid, n(0)), Then: ir.Block(
			&ir.Send{Dest: ir.Sub(myid, n(1)), Tag: 98, Array: "V", Section: ir.Sec(n(8), n(8))})},
		&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), n(1))), Then: ir.Block(
			&ir.Recv{Src: ir.Add(myid, n(1)), Tag: 98, Array: "V", Section: ir.Sec(n(7), n(7))})},
		ir.SetS("x5", ir.Mul(v(n(7)), n(1))),
		setV(n(5), n(2.5)),
		&ir.If{Cond: ir.LT(v(n(1)), t), Then: ir.Block(ir.SetS("x6", ir.Add(v(n(5)), t)))},
		ir.SetS("x7", ir.Add(v(n(5)), n(1))),
		setV(n(3), ir.Add(v(n(3)), n(0))),
		ir.Loop("", "q", n(1), n(2), ir.SetS("x8", ir.Add(v(n(3)), n(1))), setV(n(3), ir.S("x8"))),
		ir.SetS("r", ir.Add(n(2), tMod(3))),
		ir.SetS("c", ir.Add(n(1), tMod(3))),
		ir.SetA("A0", ir.IX(r, c), ir.Add(ir.At("A0", r, c), n(1))),
		ir.SetA("W2", ir.IX(r, c), ir.Mul(ir.At("A0", r, c), n(2))),
		ir.SetA("S2", ir.IX(r, c), ir.Add(ir.At("W2", r, c), ir.At("A0", r, c))),
		ir.SetA("U", ir.IX(r), ir.Add(v(r), ir.At("S2", r, c))),
		ir.SetS("x9", ir.Sub(ir.At("U", r), ir.At("W2", r, c))),
		ir.SetS("inv", n(1)),
		ir.Loop("", "q", n(5), n(4), ir.SetS("inv", ir.Mul(h, n(2))), setV(n(1), ir.Add(v(n(1)), ir.S("inv")))),
		ir.SetS("z", n(1)),
		ir.Loop("", "q", n(1), n(3), ir.SetS("y", ir.Mul(ir.S("z"), n(2))),
			setV(n(4), ir.Add(v(n(4)), ir.S("y"))), ir.SetS("z", ir.Add(ir.S("z"), n(1)))),
		ir.SetS("zero", n(0)),
		ir.Loop("", "q", n(2), n(1), ir.SetS("w", ir.Bin{Op: ir.OpIDiv, L: h, R: ir.S("zero")})),
		ir.Loop("", "q", n(1), n(3), ir.SetS("inv2", ir.Add(ir.Mul(h, t), n(1))),
			setV(q, ir.Add(v(q), ir.S("inv2")))),
		setV(n(6), ir.Add(ir.Mul(h, n(0.5)), t)),
		ir.SetS("x10", ir.Add(ir.At("U", v(n(6))), v(n(6)))),
		ir.SetA("U", ir.IX(n(2)), v(n(2))),
		setV(n(2), ir.Mul(v(n(2)), n(3))),
		ir.SetS("x11", ir.Add(ir.At("U", n(2)), n(0))),
	)
}

// numbering emits, on arrays shapes and forwarding declare, the forms
// that computing a subscript once for its uses, and once for every
// iteration of an inner loop, could get wrong (all in bounds for N >= 16):
// a computed subscript used twice in one statement and again in the next;
// one whose scalar is written between two uses, in straight-line code, in
// one arm of an if and by the statement that first computes it; a rounded
// subscript stored through, then another; an outer loop's variable
// shifted in an inner loop that runs and in one that does not; the same
// subscript outside and inside a sum over the scalar it reads; and mod of
// negative, zero and -0 operands, as values and as subscripts.
func numbering() []ir.Stmt {
	n := func(v float64) ir.Expr { return ir.N(v) }
	v := func(idx ir.Expr) ir.Expr { return ir.At("V", idx) }
	setV := func(idx, rhs ir.Expr) ir.Stmt { return ir.SetA("V", ir.IX(idx), rhs) }
	myid, t, q, j, m, k, h := ir.S(ir.BuiltinMyID), ir.S("t"), ir.S("q"), ir.S("j"), ir.S("m"), ir.S("k"), ir.S("H")
	m1 := ir.Add(m, n(1))
	negZero := n(math.Copysign(0, -1))
	return ir.Block(
		ir.SetS("m", ir.Add(ir.Mod(t, n(3)), n(2))),
		setV(m1, ir.Add(v(m1), ir.Mul(v(m1), n(0.5)))),
		ir.SetS("x12", ir.Add(v(m1), n(1))),
		ir.SetS("m", ir.Add(m, n(2))),
		ir.SetS("x13", ir.Add(v(m1), n(0))),
		&ir.If{Cond: ir.GT(myid, n(0)), Then: ir.Block(ir.SetS("m", ir.Add(m, n(1))), setV(m1, ir.Add(v(m1), n(2))))},
		setV(m1, ir.Add(v(m1), n(1))),
		ir.SetS("m", ir.Sub(m, n(1))),
		ir.SetS("m", ir.AddN(ir.Call{Name: "floor", Arg: ir.Mul(ir.Add(n(0), v(m1)), n(0))}, m, n(2))),
		setV(m1, n(7)),
		ir.SetS("x19", ir.Add(v(ir.Sub(m, n(1))), n(0))),
		setV(h, n(1)),
		setV(ir.Mul(h, n(3)), n(2)),
		ir.SetS("x20", ir.Add(v(h), n(0))),
		ir.Loop("", "q", n(1), n(3),
			ir.Loop("", "j", n(1), ir.Sub(q, n(1)),
				ir.SetA("S2", ir.IX(ir.Add(q, n(1)), ir.Add(j, n(1))),
					ir.Add(ir.At("S2", ir.Add(q, n(1)), j), ir.At("S2", ir.Add(q, n(1)), ir.Add(j, n(1))))),
				setV(ir.Add(q, n(2)), ir.Add(v(ir.Add(q, n(2))), j)))),
		ir.SetS("k", n(4)),
		ir.Loop("", "q", n(1), n(2),
			setV(ir.Add(k, n(1)), ir.Add(v(ir.Add(k, n(1))),
				ir.SumE{Index: "k", Lo: n(1), Hi: n(3), Body: v(ir.Add(k, n(1)))})),
			ir.SetS("x14", ir.Add(v(ir.Add(k, n(1))), q))),
		ir.SetS("x15", ir.Mod(negZero, n(3))),
		ir.SetS("x16", ir.Mod(ir.Sub(n(-4), ir.Mul(t, n(2))), n(2))),
		ir.SetS("x17", ir.Mod(ir.Sub(n(-7), t), n(3))),
		ir.SetS("x18", ir.Mod(n(7), ir.Sub(n(-3), t))),
		setV(ir.Add(ir.Mod(ir.Sub(n(-5), t), n(4)), n(1)), ir.Add(ir.S("x15"), ir.S("x16"))),
		setV(ir.Add(ir.Mod(ir.Mul(t, negZero), n(4)), n(1)), ir.Add(v(ir.Add(ir.Mod(ir.Mul(t, negZero), n(4)), n(1))), n(1))),
	)
}

// counting emits, on arrays of its own, the forms a calibration run could
// get wrong (in bounds for N >= 16): a loop it counts (64 trips or more);
// one whose range intervals cannot prove (2q-q); a branch on an array
// value, after a loop and in one; a loop feeding a divisor and a later
// loop bound; a task reached on even steps only; a send received under
// another name whose values a branch reads.
func counting(p *ir.Program) []ir.Stmt {
	p.Arrays = append(p.Arrays,
		&ir.ArrayDecl{Name: "C1", Dims: []ir.Expr{ir.S("N")}, Elem: 8},
		&ir.ArrayDecl{Name: "C2", Dims: []ir.Expr{ir.Mul(ir.S("N"), ir.N(4))}, Elem: 8},
		&ir.ArrayDecl{Name: "C4", Dims: []ir.Expr{ir.N(4)}, Elem: 8},
		&ir.ArrayDecl{Name: "D1", Dims: []ir.Expr{ir.N(2)}, Elem: 8},
		&ir.ArrayDecl{Name: "D2", Dims: []ir.Expr{ir.N(2)}, Elem: 8},
	)
	n := func(v float64) ir.Expr { return ir.N(v) }
	myid, t, q := ir.S(ir.BuiltinMyID), ir.S("t"), ir.S("q")
	bump := func(a string, idx, by ir.Expr) ir.Stmt { return ir.SetA(a, ir.IX(idx), ir.Add(ir.At(a, idx), by)) }
	return ir.Block(
		ir.Loop("", "q", n(1), ir.Mul(ir.S("N"), n(4)), bump("C2", q, ir.Mul(q, n(0.5)))),
		ir.Loop("", "q", n(1), n(64), bump("C2", ir.Sub(ir.Mul(q, n(2)), q), t)),
		ir.Loop("", "q", n(1), n(4), bump("C1", q, ir.Mod(ir.Add(q, t), n(3)))),
		&ir.If{Cond: ir.GT(ir.At("C1", n(2)), n(2)), Then: ir.Block(ir.SetS("x21", ir.Add(ir.At("C2", n(3)), n(1))))},
		ir.Loop("", "q", n(1), n(4), &ir.If{Cond: ir.GT(ir.At("C1", q), n(1)), Then: ir.Block(ir.SetA("C2", ir.IX(q), n(0)))}),
		ir.Loop("", "q", n(1), n(4), ir.SetA("C4", ir.IX(q), ir.Add(ir.Mod(t, n(2)), n(2)))),
		ir.SetS("x22", ir.Div(t, ir.At("C4", n(2)))),
		ir.Loop("", "q", n(1), ir.At("C4", n(3)), bump("C2", q, q)),
		&ir.If{Cond: ir.EQ(ir.Mod(t, n(2)), n(0)), Then: ir.Block(
			ir.Loop("", "q", n(1), ir.S("N"), ir.SetA("C2", ir.IX(q), ir.Mul(ir.At("C2", q), n(0.5)))))},
		ir.SetA("D1", ir.IX(n(1)), ir.Add(myid, t)),
		&ir.If{Cond: ir.GT(myid, n(0)), Then: ir.Block(
			&ir.Send{Dest: ir.Sub(myid, n(1)), Tag: 97, Array: "D1", Section: ir.Sec(n(1), n(2))})},
		&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), n(1))), Then: ir.Block(
			&ir.Recv{Src: ir.Add(myid, n(1)), Tag: 97, Array: "D2", Section: ir.Sec(n(1), n(2))})},
		&ir.If{Cond: ir.GT(ir.At("D2", n(1)), n(2)), Then: ir.Block(ir.SetS("x23", ir.Mul(ir.At("D2", n(1)), t)))},
	)
}

// strips emits, on arrays of its own, the nests direct execution runs a
// strip of outer trips at a time and the near misses it must run trip by
// trip (all in bounds for N >= 16): a 3-D nest whose cell defines a
// scalar before it reads it, runs a data-dependent branch and adds to a
// face along a reversed index; a data-dependent branch with an else arm;
// and a branch on the step's parity around a triangular loop. Trip by
// trip: a scalar carried from one outer trip to the next, a reduction
// across the inner loops, a read at the outer index minus one, an inner
// bound that grows with the outer index, an arm dividing by a scalar that
// is zero where the arm is not taken, and a subscript that would leave
// its range on the last cell but for a guard.
func strips(p *ir.Program) []ir.Stmt {
	nn := ir.S("N")
	n := func(v float64) ir.Expr { return ir.N(v) }
	p.Arrays = append(p.Arrays,
		&ir.ArrayDecl{Name: "K1", Dims: []ir.Expr{n(4), n(4), nn}, Elem: 8},
		&ir.ArrayDecl{Name: "K2", Dims: []ir.Expr{n(4), nn}, Elem: 8},
		&ir.ArrayDecl{Name: "K3", Dims: []ir.Expr{n(4), nn}, Elem: 8},
	)
	t, so, sj, si, sg := ir.S("t"), ir.S("so"), ir.S("sj"), ir.S("si"), ir.S("sg")
	outer := func(lo ir.Expr, body ...ir.Stmt) ir.Stmt { return ir.Loop("", "so", lo, nn, body...) }
	over := func(v string, hi ir.Expr, body ...ir.Stmt) ir.Stmt { return ir.Loop("", v, n(1), hi, body...) }
	s1 := ir.At("K1", si, sj, so)
	// A quarter of the ranks' steps run them, as the row shapes.
	return ir.Block(&ir.If{Cond: ir.EQ(ir.Mod(ir.Add(ir.S(ir.BuiltinMyID), t), n(4)), n(1)), Then: ir.Block(
		outer(n(1), over("sj", n(4), over("si", n(4),
			ir.SetS("sg", ir.Sub(ir.Add(nn, n(1)), so)),
			ir.SetA("K1", ir.IX(si, sj, so), ir.AddN(ir.Mul(s1, n(0.5)), ir.Mul(si, sj), ir.Div(so, n(8)), ir.Mul(t, n(-0.75)))),
			&ir.If{Cond: ir.LT(s1, n(1)), Then: ir.Block(ir.SetA("K1", ir.IX(si, sj, so), ir.Mul(s1, n(-0.5))))},
			ir.SetA("K2", ir.IX(si, sg), ir.Add(ir.At("K2", si, sg), s1))))),
		outer(n(1), over("si", n(4), &ir.If{Cond: ir.GT(ir.At("K1", si, n(1), so), n(2)),
			Then: ir.Block(ir.SetA("K3", ir.IX(si, so), ir.At("K1", si, n(1), so))),
			Else: ir.Block(ir.SetA("K3", ir.IX(si, so), ir.Sub(n(0), ir.At("K1", si, n(2), so))))})),
		outer(n(1), over("sj", n(4), &ir.If{Cond: ir.EQ(ir.Mod(t, n(2)), n(1)), Then: ir.Block(
			over("si", sj, ir.SetA("K3", ir.IX(si, so), ir.Add(ir.At("K3", si, so), sj))))})),
		ir.SetS("sc", n(0)),
		outer(n(1), over("si", n(4), ir.SetA("K3", ir.IX(si, so), ir.Add(ir.S("sc"), si)),
			ir.SetS("sc", ir.Add(ir.Mul(ir.S("sc"), n(0.5)), n(1))))),
		ir.SetS("sr", n(0)),
		outer(n(1), over("sj", n(4), over("si", n(4), ir.SetS("sr", ir.Add(ir.S("sr"), s1))))),
		outer(n(2), over("si", n(4), ir.SetA("K2", ir.IX(si, so), ir.Add(ir.At("K2", si, ir.Sub(so, n(1))), n(1))))),
		outer(n(1), over("si", ir.MinE(so, n(4)), ir.SetA("K3", ir.IX(si, so), ir.Mul(si, so)))),
		outer(n(1), over("si", n(4), ir.SetS("sz", ir.Mod(ir.Add(si, so), n(2))),
			&ir.If{Cond: ir.GT(ir.S("sz"), n(0.5)), Then: ir.Block(
				ir.SetA("K3", ir.IX(si, so), ir.Div(ir.At("K1", si, n(1), so), ir.S("sz"))))})),
		outer(n(1), over("si", n(4), &ir.If{Cond: ir.LT(si, n(4)), Then: ir.Block(
			ir.SetA("K2", ir.IX(ir.Add(si, n(1)), so), ir.Mul(ir.At("K2", ir.Add(si, n(1)), so), n(0.5))))})),
	)})
}

// rows emits, on arrays of its own, the loops direct execution runs a
// strip of trips at a time and the near misses it must run trip by trip
// (all in bounds for N >= 16, M = 2N+48 trips): stores with no element
// shared between trips, with an intrinsic and a division by a literal; a
// sum and a max reduction, fused with a load and not; a reversed index,
// writing one column while reading two others, and a recurrence along
// one; a mod-wrapped subscript read and written every 7 trips; reads at
// offsets -1 and +1 of the written element along the index; a read of
// the written array in other columns; a stride of 2 reading the odd
// elements while writing the even; a read 64 elements behind the write
// in a loop of 64 trips and in one of 65; a loop one trip short of the
// minimum and one at it; a subscript scalar assigned twice in a trip and
// read as a value between; a scalar carried across trips; an element
// every trip adds to; a division by a scalar; a loop from -0 storing
// twice its scalar; and a copy of the loop scalar feeding mod of
// negative dividends, idiv and ceildiv by literals and a comparison as a
// value, and a min reduction; Tomcatv's backward substitution, a reversed
// index reading the written array one element on, clamped by min, and
// the same clamped read from another array; and a read one element
// behind the write through a scalar, which only the strip's proof sees.
func rows(p *ir.Program) []ir.Stmt {
	p.Arrays = append(p.Arrays,
		&ir.ArrayDecl{Name: "R1", Dims: []ir.Expr{ir.Add(ir.Mul(ir.S("N"), ir.N(2)), ir.N(112))}, Elem: 8},
		&ir.ArrayDecl{Name: "R2", Dims: []ir.Expr{ir.Add(ir.Mul(ir.S("N"), ir.N(2)), ir.N(48)), ir.N(3)}, Elem: 8},
		&ir.ArrayDecl{Name: "R3", Dims: []ir.Expr{ir.Add(ir.Mul(ir.S("N"), ir.N(2)), ir.N(48))}, Elem: 8},
		&ir.ArrayDecl{Name: "R4", Dims: []ir.Expr{ir.Add(ir.Mul(ir.S("N"), ir.N(2)), ir.N(48)), ir.N(2)}, Elem: 8},
	)
	n := func(v float64) ir.Expr { return ir.N(v) }
	t, q, i, m, h := ir.S("t"), ir.S("q"), ir.S("ri"), ir.S("rm"), ir.S("H")
	r1 := func(idx ir.Expr) ir.Expr { return ir.At("R1", idx) }
	r3 := func(idx ir.Expr) ir.Expr { return ir.At("R3", idx) }
	loop := func(lo, hi ir.Expr, body ...ir.Stmt) ir.Stmt { return ir.Loop("", "q", lo, hi, body...) }
	wrap := ir.Add(ir.Mod(q, n(7)), n(1))
	// A quarter of the ranks' steps run them, to keep the reference's time.
	return ir.Block(&ir.If{Cond: ir.EQ(ir.Mod(ir.Add(ir.S(ir.BuiltinMyID), t), n(4)), n(1)), Then: ir.Block(
		ir.SetS("rm", ir.Add(ir.Mul(ir.S("N"), n(2)), n(48))),
		loop(n(1), ir.Add(m, n(64)), ir.SetA("R1", ir.IX(q), ir.Add(ir.Mul(ir.Call{Name: "sin", Arg: q}, q), ir.Div(t, n(4))))),
		loop(n(1), m,
			ir.SetA("R2", ir.IX(q, n(1)), ir.Mul(q, n(0.5))),
			ir.SetA("R2", ir.IX(q, n(2)), ir.Sub(r1(q), t)),
			ir.SetA("R3", ir.IX(q), ir.Div(r1(q), n(3)))),
		ir.SetS("rs", n(0)),
		ir.SetS("rx", n(0)),
		loop(n(1), m, ir.SetS("rs", ir.Add(ir.S("rs"), ir.Mul(r1(q), n(0.1))))),
		loop(n(1), m, ir.SetS("rs", ir.Add(ir.S("rs"), r3(q))),
			ir.SetS("rx", ir.MaxE(ir.S("rx"), ir.Abs(ir.Sub(r1(q), ir.At("R2", q, n(2))))))),
		loop(n(1), m, ir.SetS("ri", ir.Sub(ir.Add(m, n(1)), q)),
			ir.SetA("R1", ir.IX(i), ir.Add(r1(i), ir.Mul(ir.At("R2", i, n(1)), n(0.5)))),
			ir.SetA("R2", ir.IX(i, n(3)), ir.Sub(ir.At("R2", i, n(2)), r1(i)))),
		loop(n(2), m, ir.SetS("ri", ir.Sub(ir.Add(m, n(1)), q)),
			ir.SetA("R3", ir.IX(i), ir.Add(r3(ir.Add(i, n(1))), n(1)))),
		loop(n(1), m, ir.SetA("R1", ir.IX(wrap), ir.Add(r1(wrap), q))),
		loop(n(2), ir.Sub(m, n(1)), ir.SetA("R3", ir.IX(q), ir.Add(r3(ir.Sub(q, n(1))), n(1)))),
		loop(n(2), ir.Sub(m, n(1)), ir.SetA("R3", ir.IX(q), ir.Mul(r3(ir.Add(q, n(1))), n(0.5)))),
		loop(n(1), m, ir.SetA("R2", ir.IX(q, n(3)), ir.Add(ir.At("R2", q, n(1)), ir.At("R2", q, n(2))))),
		loop(n(1), n(64), ir.SetA("R1", ir.IX(ir.Mul(q, n(2))), ir.Add(r1(ir.Sub(ir.Mul(q, n(2)), n(1))), t))),
		loop(n(1), n(64), ir.SetA("R1", ir.IX(ir.Add(q, n(64))), ir.Add(r1(q), n(1)))),
		loop(n(1), n(65), ir.SetA("R1", ir.IX(ir.Add(q, n(64))), ir.Add(r1(q), n(1)))),
		loop(n(1), n(63), ir.SetA("R3", ir.IX(q), ir.Add(r3(q), n(1)))),
		loop(n(1), n(64), ir.SetA("R3", ir.IX(q), ir.Add(r3(q), t))),
		loop(n(1), ir.Sub(m, n(1)), ir.SetS("rj", ir.Add(q, n(1))), ir.SetA("R3", ir.IX(ir.S("rj")), ir.Add(r3(ir.S("rj")), ir.S("rj"))),
			ir.SetS("rj", ir.Sub(ir.S("rj"), n(1))), ir.SetA("R2", ir.IX(ir.S("rj"), n(2)), ir.Mul(ir.At("R2", ir.S("rj"), n(2)), ir.S("rj")))),
		ir.SetS("rc", n(0)),
		loop(n(1), m, ir.SetS("rc", ir.Add(ir.Mul(ir.S("rc"), n(0.5)), r1(q))), ir.SetA("R2", ir.IX(q, n(1)), ir.S("rc"))),
		loop(n(1), m, ir.SetA("R1", ir.IX(n(5)), ir.Add(r1(n(5)), q))),
		loop(n(1), m, ir.SetA("R3", ir.IX(q), ir.Div(r3(q), h))),
		loop(n(math.Copysign(0, -1)), n(70), ir.SetA("R2", ir.IX(ir.Add(q, n(1)), n(3)), ir.Mul(q, n(2)))),
		ir.SetS("rn", n(1e9)),
		loop(n(1), m, ir.SetS("rt", q), ir.SetA("R4", ir.IX(q, n(1)), ir.Mod(ir.Sub(n(20), ir.S("rt")), n(6))),
			ir.SetA("R4", ir.IX(q, n(2)), ir.AddN(ir.Bin{Op: ir.OpIDiv, L: ir.Sub(ir.S("rt"), n(40)), R: n(3)}, ir.CeilDiv(ir.S("rt"), n(4)), ir.GT(ir.S("rt"), n(50)))),
			ir.SetS("rn", ir.MinE(ir.S("rn"), ir.Add(ir.At("R4", q, n(2)), r3(q))))),
		loop(n(1), ir.Sub(m, n(1)), ir.SetS("ri", ir.Sub(m, q)),
			ir.SetA("R3", ir.IX(i), ir.Sub(r3(i), ir.Mul(r1(i), r3(ir.MinE(ir.Add(i, n(1)), m)))))),
		loop(n(1), ir.Sub(m, n(1)), ir.SetS("ri", ir.Sub(m, q)),
			ir.SetA("R3", ir.IX(i), ir.Sub(r3(i), ir.Mul(r1(ir.MinE(ir.Add(i, n(1)), m)), n(0.5))))),
		ir.SetS("rk", n(1)),
		loop(n(2), m, ir.SetA("R3", ir.IX(q), ir.Add(r3(ir.Sub(q, ir.S("rk"))), n(1)))),
	)})
}

// shift emits a guarded ring shift of one boundary column: send left,
// receive from right (no deadlock under eager sends).
func (g *gen) shift(array string) []ir.Stmt {
	myid := ir.S(ir.BuiltinMyID)
	tag := 10 + g.r.Intn(5)
	return ir.Block(
		&ir.If{Cond: ir.GT(myid, ir.N(0)), Then: ir.Block(
			&ir.Send{Dest: ir.Sub(myid, ir.N(1)), Tag: tag, Array: array,
				Section: ir.Sec(ir.N(1), ir.S("N"), ir.N(2), ir.N(2))})},
		&ir.If{Cond: ir.LT(myid, ir.Sub(ir.S(ir.BuiltinP), ir.N(1))), Then: ir.Block(
			&ir.Recv{Src: ir.Add(myid, ir.N(1)), Tag: tag, Array: array,
				Section: ir.Sec(ir.N(1), ir.S("N"),
					ir.Add(ir.S("nloc"), ir.N(2)), ir.Add(ir.S("nloc"), ir.N(2)))})},
	)
}

// nest emits a random computation nest over the local block, sometimes
// containing a data-dependent branch (the Sweep3D fixup pattern).
func (g *gen) nest(arr func(int) string, nArrays, id int) ir.Stmt {
	i, j := ir.S("i"), ir.S("j")
	dst := arr(g.r.Intn(nArrays))
	src := arr(g.r.Intn(nArrays))
	var rhs ir.Expr
	switch g.r.Intn(4) {
	case 0:
		rhs = ir.Mul(ir.Add(ir.At(src, i, j), ir.At(src, i, ir.Add(j, ir.N(1)))), ir.N(0.5))
	case 1:
		rhs = ir.Add(ir.At(src, i, j), ir.Mul(ir.S("t"), ir.N(0.001)))
	case 2:
		rhs = ir.Sub(ir.Mul(ir.At(src, i, j), ir.N(0.9)),
			ir.Mul(ir.At(dst, i, j), ir.N(0.1)))
	default:
		rhs = ir.Abs(ir.Sub(ir.At(src, i, j), ir.At(src, ir.MaxE(ir.Sub(i, ir.N(1)), ir.N(1)), j)))
	}
	inner := []ir.Stmt{ir.SetA(dst, ir.IX(i, j), rhs)}
	if g.r.Intn(3) == 0 {
		// Data-dependent branch inside the collapsible nest.
		inner = append(inner, &ir.If{
			Cond: ir.LT(ir.At(dst, i, j), ir.N(0.25)),
			Then: ir.Block(ir.SetA(dst, ir.IX(i, j), ir.Mul(ir.At(dst, i, j), ir.N(1.5)))),
		})
	}
	return ir.Loop(fmt.Sprintf("nest%d", id), "j", ir.N(2), ir.Add(ir.S("nloc"), ir.N(1)),
		ir.Loop("", "i", ir.N(2), ir.Sub(ir.S("N"), ir.N(1)), inner...))
}

// reduction emits a local accumulation followed by an allreduce.
func (g *gen) reduction(array string) []ir.Stmt {
	ops := []string{"sum", "max", "min"}
	return ir.Block(
		ir.SetS("acc", ir.N(0)),
		ir.Loop("acc", "j", ir.N(2), ir.Add(ir.S("nloc"), ir.N(1)),
			ir.SetS("acc", ir.Add(ir.S("acc"), ir.At(array, ir.N(2), ir.S("j"))))),
		&ir.Allreduce{Op: ops[g.r.Intn(len(ops))], Vars: []string{"acc"}},
	)
}
