package interp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// rankState is what a rank's program leaves behind: every scalar by name
// and every array, as bit patterns so that -0 and NaN compare exactly.
type rankState struct {
	scalars map[string]uint64
	arrays  map[string][]uint64
	dims    map[string][]int
}

func newRankState() rankState {
	return rankState{map[string]uint64{}, map[string][]uint64{}, map[string][]int{}}
}

func (st rankState) setArray(name string, data []float64, dims []int) {
	bits := make([]uint64, len(data))
	for i, v := range data {
		bits[i] = math.Float64bits(v)
	}
	st.arrays[name], st.dims[name] = bits, dims
}

// inSubscriptOrder returns an array stored in Fortran order with its
// elements in subscript order, the last subscript fastest, as the
// reference evaluator stores them.
func inSubscriptOrder(a arrayVal) []float64 {
	strides, s := make([]int, len(a.dims)), 1
	for d := range a.dims {
		strides[d], s = s, s*a.dims[d]
	}
	out := make([]float64, 0, len(a.data))
	var walk func(d, off int)
	walk = func(d, off int) {
		if d == len(a.dims) {
			out = append(out, a.data[off])
			return
		}
		for v := 0; v < a.dims[d]; v++ {
			walk(d+1, off+v*strides[d])
		}
	}
	walk(0, 0)
	return out
}

// runFrames is Run keeping the program's code and every rank's final
// frame.
func runFrames(p *ir.Program, cfg Config) (*mpi.Report, *compiled, []*frame, error) {
	cp, err := compile(p, &cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	world, err := mpi.NewWorld(cfg.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	frames := make([]*frame, cfg.Ranks)
	rep, err := world.RunProgram(func(r *mpi.Rank) mpi.Program {
		f := newFrame(cp, r)
		frames[r.Rank()] = f
		return f
	})
	return rep, cp, frames, err
}

// runFlat is Run keeping every rank's final state.
func runFlat(p *ir.Program, cfg Config) (*mpi.Report, []rankState, error) {
	rep, cp, frames, err := runFrames(p, cfg)
	if cp == nil {
		return nil, nil, err
	}
	states := make([]rankState, cfg.Ranks)
	for i, f := range frames {
		if f == nil {
			continue
		}
		st := newRankState()
		for s, name := range cp.names {
			st.scalars[name] = math.Float64bits(f.regs[s])
		}
		for _, a := range f.arrays {
			st.setArray(a.name, inSubscriptOrder(a), a.dims)
		}
		states[i] = st
	}
	return rep, states, err
}

// runRef is the same run on the reference evaluator.
func runRef(p *ir.Program, cfg Config) (*mpi.Report, []rankState, error) {
	cp, err := refCompile(p)
	if err != nil {
		return nil, nil, err
	}
	world, err := mpi.NewWorld(cfg.Config)
	if err != nil {
		return nil, nil, err
	}
	frames := make([]*refFrame, cfg.Ranks)
	rep, err := world.Run(func(r *mpi.Rank) {
		f := newRefFrame(cp, r, &cfg)
		frames[r.Rank()] = f
		for _, st := range cp.body {
			st(f)
		}
		f.flush()
	})
	states := make([]rankState, cfg.Ranks)
	for i, f := range frames {
		if f == nil {
			continue
		}
		st := newRankState()
		for name, s := range cp.slots {
			st.scalars[name] = math.Float64bits(f.scalars[s])
		}
		for _, a := range f.arrays {
			st.setArray(a.name, a.data, a.dims)
		}
		states[i] = st
	}
	return rep, states, err
}

// differential runs p on the reference evaluator, with calibration and
// (when profile is set) branch profiling attached, and twice on the
// register code: without a calibration collector, which computes every
// value, for identical reports, final states and branch probabilities; and
// with one, which computes only what its clocks, branches, messages and
// faults observe, for identical reports, calibration statistics and branch
// probabilities. The second comparison is the exactness oracle of
// calibration by counting.
func differential(t *testing.T, what string, p *ir.Program, base Config, profile bool) {
	t.Helper()
	run := func(f func(*ir.Program, Config) (*mpi.Report, []rankState, error), collect bool) (*mpi.Report, []rankState, *Calibration, *BranchProfile) {
		cfg := base
		if collect {
			cfg.Calibration = NewCalibration()
		}
		if profile {
			cfg.BranchProfile = NewBranchProfile()
		}
		rep, states, err := f(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return rep, states, cfg.Calibration, cfg.BranchProfile
	}
	wantRep, wantStates, wantCal, wantBP := run(runRef, true)
	gotRep, gotStates, _, gotBP := run(runFlat, false)
	countRep, _, countCal, countBP := run(runFlat, true)
	for _, got := range []struct {
		form string
		rep  *mpi.Report
		bp   *BranchProfile
	}{{"computing", gotRep, gotBP}, {"counting", countRep, countBP}} {
		if !reflect.DeepEqual(got.rep, wantRep) {
			t.Errorf("%s: %s reports differ: time %v vs %v, rank 0 %+v vs %+v", what, got.form,
				got.rep.Time, wantRep.Time, got.rep.Ranks[0], wantRep.Ranks[0])
		}
		if profile && (!reflect.DeepEqual(got.bp.Probabilities(), wantBP.Probabilities()) || got.bp.Branches() != wantBP.Branches()) {
			t.Errorf("%s: %s branch profiles differ (%d vs %d branches)", what, got.form, got.bp.Branches(), wantBP.Branches())
		}
	}
	for r := range wantStates {
		if !reflect.DeepEqual(gotStates[r], wantStates[r]) {
			for name, v := range wantStates[r].scalars {
				if g := gotStates[r].scalars[name]; g != v {
					t.Errorf("%s: rank %d scalar %s = %v, reference %v", what, r, name,
						math.Float64frombits(g), math.Float64frombits(v))
				}
			}
			t.Fatalf("%s: rank %d final state differs", what, r)
		}
	}
	if !reflect.DeepEqual(countCal.Stats(), wantCal.Stats()) {
		t.Errorf("%s: calibration differs:\n%+v\n%+v", what, countCal.Stats(), wantCal.Stats())
	}
}

// TestOracleApps holds the register code to the reference evaluator on
// the four applications in their three forms: original, compiler-
// simplified (with task times measured by the reference) and
// timer-instrumented.
func TestOracleApps(t *testing.T) {
	m := machine.IBMSP()
	small := map[string]func(ranks int) map[string]float64{
		"tomcatv": func(int) map[string]float64 { return apps.TomcatvInputs(48, 2) },
		"nassp": func(ranks int) map[string]float64 {
			return apps.NASSPInputs(12, 1, apps.SquareSide(ranks))
		},
	}
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		prog := spec.Build()
		res, err := compiler.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ranks := range []int{1, 4, 16} {
			inputs := spec.Default(ranks)
			if f := small[name]; f != nil {
				inputs = f(ranks)
			}
			cfg := Config{Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Detailed}, Inputs: inputs}
			cal := NewCalibration()
			calCfg := cfg
			calCfg.Calibration = cal
			if _, _, err := runRef(res.Timer, calCfg); err != nil {
				t.Fatalf("%s/%d: calibration: %v", name, ranks, err)
			}
			am := cfg
			am.Comm, am.TaskTimes = mpi.Analytic, cal.TaskTimes()
			for _, profile := range []bool{false, true} {
				tag := fmt.Sprintf("%s/ranks=%d/profile=%v", name, ranks, profile)
				differential(t, tag+"/original", prog, cfg, profile)
				differential(t, tag+"/timer", res.Timer, cfg, profile)
				differential(t, tag+"/simplified", res.Simplified, am, profile)
			}
		}
	}
}

// TestOracleGenerated does the same on generated programs, with the
// shapes the lowering and the row path specialise on switched on,
// original and timer-instrumented.
//
// Each mutation below was applied to compile.go by hand and fails the
// first case named (TestOracleParallelEngine fails with it):
//
//   - no kill at an aliasing store (a store keeps its array's records at
//     other addresses): seed=0/ranks=1, x1 and x2 (stores through a1 and
//     a2, equal at run time, then a load through a1);
//   - no kill at unpack: seed=0/ranks=4, x5 (a receive into V(7) between
//     two loads of it);
//   - no kill at a join (a record made in an if's arm survives the join):
//     seed=0/ranks=1, x7;
//   - no kill at a loop head: seed=0/ranks=1, x8 (an element loaded, then
//     stored, in a loop body);
//   - sharing offsets by array rank instead of by dimension expressions:
//     seed=0/ranks=1 indexes past the end of S2 (addressed with A0's row
//     length);
//   - hoisting without the entry test (the head statements run before
//     forinit, their charges left in the body): seed=0/ranks=1, inv (the
//     zero-trip loop assigns);
//   - hoisting an assignment whose operand the body writes later:
//     TestOracleApps/tomcatv, rmax, and seed=0/ranks=1, y;
//   - rounding a subscript's element in the register that holds it:
//     seed=0/ranks=1, x10;
//   - recording a stored element in the register of the element it was
//     copied from: seed=0/ranks=1, x11;
//   - dropping the cannot-fault test passes alone: the hoisted statement
//     heads the body, so it runs on entry exactly where the first
//     iteration would have run it. With the entry test dropped too,
//     seed=0/ranks=1 faults (the zero-trip loop's idiv by zero);
//   - keeping a numbered subscript when its scalar is written:
//     seed=0/ranks=1, x13 (m written between two uses of V(m+1));
//   - keeping a subscript numbered in an if's arm at the join:
//     seed=0/ranks=1 faults (V(m+1) read through a register the skipped
//     arm never set), and TestOracleApps/sample/simplified;
//   - keeping the addresses keyed on a subscript whose number died:
//     seed=0/ranks=1, x19 (the statement that numbers m+1 writes m, and
//     the store behind it numbers the new m+1 in the same register);
//   - keying an address on any temporary, numbered or not: seed=0/ranks=1,
//     x20 (V(H) and then V(H*3), each rounded into the same temporary);
//   - hoisting a subscript without the invariance test: seed=0/ranks=1,
//     x10, and TestOracleApps/sample;
//   - keeping the numbered subscripts at a loop head: seed=0/ranks=1, x14
//     (V(k+1) outside and inside a sum over k).
//
// And the row path's (compile.go's rowable, exec.go's row, proof and
// rowCode), each also applied by hand:
//
//   - running a carried loop by row (rowable keeps a register read
//     before the trip writes it): seed=0/ranks=1, rc, and TestRowShapes;
//   - skipping the alias check (proof passes every pair):
//     seed=0/ranks=1 (R3 read one element behind through a scalar) and
//     TestRowShapes;
//   - not refusing a doomed loop its opRow (rowable skips doomed):
//     TestRowLoops (Tomcatv's backward) and TestRowShapes;
//   - refusing a shift of rowMin trips or more (doomed drops its rowMin
//     bound): TestRowShapes (the read 64 elements behind in 64 trips);
//   - keeping a strip going across a mod wrap (proof cuts no stored row
//     where it stops being monotone): seed=0/ranks=1, rc (R1 wrapped every
//     7 trips), and TestRowShapes;
//   - using the wrong stride on a reversed index (the absolute
//     difference of the first two offsets): TestRowShapes (the reversed
//     loop, writing R2's third column while reading two others, falls
//     back);
//   - folding a reduction out of trip order (backwards): seed=0/ranks=4,
//     rs, TestRowShapes and TestRowFaults/in-range;
//   - dropping the range check of the strip's addresses (rowCode's
//     opAddr1, opAddr2): TestRowFaults, last-trip and third-strip-load
//     (Go's index panic for the interpreter's fault), last-trip-2d (no
//     fault: the offset lands in the next column);
//   - letting a stored row repeat an offset (proof's s == 0 test):
//     seed=0/ranks=1 (R1(5) added to every trip) and TestRowShapes;
//   - not running again a slice instruction whose register is written
//     twice (rowable's twice): seed=0/ranks=1 (rj read as a value between
//     its two assignments);
//   - not leaving the body's registers at the last trip's values (row's
//     copy back): TestOracleApps/sample (w) and TestRowFaults/in-range;
//   - charging the last back-edge's iteration charge (opRow's ops -=
//     next.e): TestOracleApps/sample's reports;
//   - filling the loop scalar's first trip as lo + 0 (-0 + 0 is +0):
//     seed=0/ranks=1 (R2(1,3) from the loop from -0) and TestRowShapes.
//
// And the strip's (strip.go's stripable and boxed, exec.go's rowCode):
//
//   - stripping a carried outer loop (stripable skips defined):
//     TestOracleApps/sweep3d/ranks=1 (fsum, the flux sum stripped),
//     seed=0/ranks=1 (sc and sr) and TestRowLoops;
//   - if-converting an arm that can fault (stripable lets a division by
//     a register through): seed=0/ranks=1 faults (the arm dividing by sz,
//     zero where it is not taken), TestStripShapes, and TestRowLoops
//     (Tomcatv's forward elimination strips);
//   - dropping the mask on a store (rowCode's opStore stores every
//     trip): TestOracleApps/sweep3d/ranks=1 (PHI fixed up on every
//     k-plane), seed=0/ranks=1 (sr, summed over K1) and TestStripShapes;
//   - skipping the entry proof (row never calls boxed): TestRowFaults
//     (sweep3d MK=63 ends in "a nest left the range its entry proof
//     gave"), TestStripShapes (the guarded subscript strips) and
//     TestRowLoops (Tomcatv's nests strip, their inner rows wider).
func TestOracleGenerated(t *testing.T) {
	m := machine.IBMSP()
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: true})
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, prog)
		}
		timer := prog
		if seed%4 == 0 {
			res, err := compiler.Compile(prog)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			timer = res.Timer
		}
		for _, ranks := range []int{1, 4, 16} {
			cfg := Config{Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic}, Inputs: inputs}
			for _, profile := range []bool{false, true} {
				tag := fmt.Sprintf("seed=%d/ranks=%d/profile=%v", seed, ranks, profile)
				differential(t, tag, prog, cfg, profile)
				if timer != prog {
					differential(t, tag+"/timer", timer, cfg, profile)
				}
			}
		}
	}
}

// FuzzOracleGenerated holds the register code to the reference evaluator
// on the generated program of any seed, its access, counting and row
// shapes on, at 4 ranks.
func FuzzOracleGenerated(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: true})
		cfg := Config{Config: mpi.Config{Ranks: 4, Machine: machine.IBMSP(), Comm: mpi.Analytic}, Inputs: inputs}
		differential(t, fmt.Sprintf("seed=%d", seed), prog, cfg, seed%2 == 0)
	})
}

// TestRowShapes pins which of the generated row shapes run by row, in
// irgen's order (rows), and which get an opRow: the stores, the
// reductions, the reversed index, the mod wrap, the other columns, the
// stride of 2, the read one loop's trips behind, the loop at the minimum
// and the subscript scalar assigned twice do; the read that trails by
// fewer trips than the loop has, the loop one trip short and the element
// every trip adds to get an opRow and do not; the recurrence along the
// reversed index, the reads at -1 and +1 and Tomcatv's backward
// substitution, whose proof would fail every strip, the carried scalar
// and the division by a scalar get no opRow; and the loop from -0, the
// operator mix and the clamped read from another array run by row; the
// read behind the write through a scalar gets an opRow and does not.
func TestRowShapes(t *testing.T) {
	wantEntered := []bool{true, true, true, true, true, false, true, false, false, true, true, true, true, true, true, true, false, true, false, true, true, false, true, true}
	want := []bool{true, true, true, true, true, false, true, false, false, true, true, true, false, false, true, true, false, false, false, true, true, false, true, false}
	for seed := int64(0); seed < 3; seed++ {
		prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: true})
		inputs["STEPS"] = 1 // rank 0 runs the shapes in step 1
		cfg := Config{Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic}, Inputs: inputs}
		_, cp, frames, err := runFrames(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ran, entered := rowsRun(cp, frames)
		if len(ran) < len(want) || !slices.Equal(ran[len(ran)-len(want):], want) {
			t.Errorf("seed %d: the row shapes ran by row %v, want %v\n%s", seed, ran[max(0, len(ran)-len(want)):], want, cp.dump())
		}
		if len(entered) < len(wantEntered) || !slices.Equal(entered[len(entered)-len(wantEntered):], wantEntered) {
			t.Errorf("seed %d: the row shapes with an opRow %v, want %v\n%s", seed, entered[max(0, len(entered)-len(wantEntered)):], wantEntered, cp.dump())
		}
		differential(t, fmt.Sprintf("seed=%d/steps=1", seed), prog, cfg, false)
	}
}

// TestStripShapes pins which of the generated strip shapes (irgen's
// strips, in its order) run by strip and which get an opRow, nest by nest
// in program order: the 3-D nest with its fixup branch, the branch with an
// else arm and the triangular loop under the step's parity branch do,
// their middle loops, which write along the outer index, get no opRow;
// the carried scalar, the reduction (outer and middle loop), the read at
// the outer index minus one, the bound growing with it and the arm
// dividing by a scalar get no opRow; the guarded subscript gets one and
// does not run by strip, its entry proof failing on the last cell.
func TestStripShapes(t *testing.T) {
	wantEntered := []bool{true, false, true, true, false, false, false, false, false, false, false, true}
	want := []bool{true, false, true, true, false, false, false, false, false, false, false, false}
	for seed := int64(0); seed < 3; seed++ {
		prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: true})
		inputs["STEPS"] = 1 // rank 0 runs the shapes in step 1
		cfg := Config{Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic}, Inputs: inputs}
		_, cp, frames, err := runFrames(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ran, entered := stripsRun(cp, frames)
		if len(ran) < len(want) || !slices.Equal(ran[len(ran)-len(want):], want) {
			t.Errorf("seed %d: the strip shapes ran by strip %v, want %v\n%s", seed, ran[max(0, len(ran)-len(want)):], want, cp.dump())
		}
		if len(entered) < len(wantEntered) || !slices.Equal(entered[len(entered)-len(wantEntered):], wantEntered) {
			t.Errorf("seed %d: the strip shapes with an opRow %v, want %v\n%s", seed, entered[max(0, len(entered)-len(wantEntered)):], wantEntered, cp.dump())
		}
		differential(t, fmt.Sprintf("seed=%d/steps=1", seed), prog, cfg, true)
	}
}

// TestRowFaults holds a loop whose subscripts leave their range on some
// trip to the fault the trip-by-trip loop raises there, text and all, in
// a loop that would run by row; the same loop in range runs by row. So
// too a nest: Sweep3D with MK=63 blocks of KT=255 planes addresses SRC at
// k-plane 256 in its fifth block, whose entry proof fails, and the sweep
// nest faults trip by trip where the reference does, having run the four
// blocks in range by strip.
func TestRowFaults(t *testing.T) {
	arrays := []*ir.ArrayDecl{
		{Name: "A1", Dims: []ir.Expr{ir.N(99)}, Elem: 8},
		{Name: "A2", Dims: []ir.Expr{ir.N(99), ir.N(2)}, Elem: 8},
		{Name: "A3", Dims: []ir.Expr{ir.N(600)}, Elem: 8},
	}
	q, i, n := ir.S("q"), ir.S("i"), func(v float64) ir.Expr { return ir.N(v) }
	cases := []struct {
		name string
		body []ir.Stmt
		want string // "" runs to the end, by row
	}{
		{"last-trip", ir.Block(ir.Loop("", "q", n(1), n(100), ir.SetA("A1", ir.IX(q), ir.Add(ir.At("A1", q), q)))),
			"interp: index 100 out of bounds [1,99] in dim 1 of A1"},
		{"last-trip-2d", ir.Block(ir.Loop("", "q", n(1), n(100), ir.SetA("A2", ir.IX(q, n(1)), q))),
			"interp: index 100 out of bounds [1,99] in dim 1 of A2"},
		{"first-trip-reversed", ir.Block(ir.Loop("", "q", n(1), n(99), ir.SetS("i", ir.Sub(n(101), q)), ir.SetA("A2", ir.IX(i, n(2)), ir.At("A1", i)))),
			"interp: index 100 out of bounds [1,99] in dim 1 of A2"},
		{"third-strip-load", ir.Block(ir.Loop("", "q", n(1), n(700), ir.SetS("s", ir.Add(ir.S("s"), ir.At("A3", q))))),
			"interp: index 601 out of bounds [1,600] of A3"},
		{"in-range", ir.Block(ir.Loop("", "q", n(1), n(600), ir.SetS("i", ir.Sub(n(601), q)),
			ir.SetA("A3", ir.IX(i), ir.Add(ir.At("A3", i), ir.Mul(q, n(0.7)))), ir.SetS("s", ir.Add(ir.S("s"), ir.At("A3", i))))), ""},
	}
	for _, tc := range cases {
		p := &ir.Program{Name: tc.name, Arrays: arrays, Body: tc.body}
		_, wantStates, werr := runRef(p, baseConfig(1))
		_, cp, frames, err := runFrames(p, baseConfig(1))
		switch want := "sim: proc 0 (rank0) panicked: " + tc.want; {
		case tc.want != "" && (err == nil || err.Error() != want || werr == nil || werr.Error() != want):
			t.Errorf("%s: got %v, reference %v, want %s", tc.name, err, werr, want)
		case tc.want == "" && (err != nil || werr != nil):
			t.Errorf("%s: %v, reference %v", tc.name, err, werr)
		case tc.want == "":
			if _, states, _ := runFlat(p, baseConfig(1)); !reflect.DeepEqual(states, wantStates) {
				t.Errorf("%s: final state differs from the reference", tc.name)
			}
			if ran, _ := rowsRun(cp, frames); !slices.Equal(ran, []bool{true}) {
				t.Errorf("%s: ran by row %v\n%s", tc.name, ran, cp.dump())
			}
		}
	}

	p := apps.Sweep3D()
	cfg := baseConfig(4)
	cfg.Inputs = apps.Sweep3DInputs(4, 4, 255, 63, 2, 2)
	_, _, werr := runRef(p, cfg)
	_, cp, frames, err := runFrames(p, cfg)
	const want = "interp: index 256 out of bounds [1,255] in dim 3 of SRC"
	if err == nil || werr == nil || err.Error() != werr.Error() || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("sweep3d MK=63: got %v, reference %v, want %s", err, werr, want)
	}
	sweep := sweepRow(t, cp, p)
	for r, f := range frames {
		if n := f.rowTrips[sweep]; n%63 != 0 || n > 4*63 {
			t.Errorf("sweep3d MK=63: rank %d ran %d trips of the sweep by strip, want whole blocks of the first four", r, n)
		}
	}
}

// TestOracleParallelEngine reruns a few generated programs with several
// host workers on real goroutines: the per-rank branch counts merge under
// the profile's lock, ranks on different workers run the row shapes on
// row scratch borrowed from one pool, and the race stage watches both.
func TestOracleParallelEngine(t *testing.T) {
	m := machine.IBMSP()
	for seed := int64(0); seed < 6; seed++ {
		prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: true})
		cfg := Config{Config: mpi.Config{Ranks: 8, Machine: m, Comm: mpi.Detailed,
			HostWorkers: 3, RealParallel: true}, Inputs: inputs}
		seq := cfg
		seq.HostWorkers, seq.RealParallel = 1, false
		seq.BranchProfile, cfg.BranchProfile = NewBranchProfile(), NewBranchProfile()
		want, wantStates, err := runRef(prog, seq)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStates, err := runFlat(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || !reflect.DeepEqual(got.Ranks, want.Ranks) || !reflect.DeepEqual(gotStates, wantStates) {
			t.Fatalf("seed %d: parallel register code differs from the sequential reference", seed)
		}
		if !reflect.DeepEqual(cfg.BranchProfile.Probabilities(), seq.BranchProfile.Probabilities()) {
			t.Fatalf("seed %d: branch profiles differ", seed)
		}
	}
}

// TestFaultTexts pins, from the closure evaluator's output at the commit
// that replaced it, the error of every failing access form; the reference
// is run too, so a stale literal cannot go unnoticed.
func TestFaultTexts(t *testing.T) {
	n := func(v float64) ir.Expr { return ir.N(v) }
	arrays := []*ir.ArrayDecl{
		{Name: "A1", Dims: []ir.Expr{n(5)}, Elem: 8},
		{Name: "A2", Dims: []ir.Expr{n(5), n(4)}, Elem: 8},
		{Name: "A3", Dims: []ir.Expr{n(5), n(4), n(3)}, Elem: 8},
		{Name: "A4", Dims: []ir.Expr{n(5), n(4), n(3), n(2)}, Elem: 8},
	}
	load := func(a string, idx ...ir.Expr) []ir.Stmt { return ir.Block(ir.SetS("x", ir.At(a, idx...))) }
	store := func(a string, idx ...ir.Expr) []ir.Stmt { return ir.Block(ir.SetA(a, idx, n(1))) }
	bin := func(op ir.Op) []ir.Stmt {
		return ir.Block(ir.SetS("z", n(0)), ir.SetS("x", ir.Bin{Op: op, L: n(7), R: ir.S("z")}))
	}
	self := func(s ir.Stmt) []ir.Stmt { return ir.Block(s) }
	cases := []struct {
		name string
		body []ir.Stmt
		want string
	}{
		{"load1", load("A1", n(9)), "interp: index 9 out of bounds [1,5] of A1"},
		{"load1-low", load("A1", n(0)), "interp: index 0 out of bounds [1,5] of A1"},
		{"load1-nan", load("A1", ir.Sqrt(n(-1))), "interp: index -9223372036854775808 out of bounds [1,5] of A1"},
		{"load2", load("A2", n(2), n(7)), "interp: index (2,7) out of bounds of A2"},
		{"load2-both", load("A2", n(6), n(7)), "interp: index (6,7) out of bounds of A2"},
		{"load3", load("A3", n(2), n(7), n(9)), "interp: index 7 out of bounds [1,4] in dim 2 of A3"},
		{"load4", load("A4", n(2), n(3), n(1), n(3)), "interp: index 3 out of bounds [1,2] in dim 4 of A4"},
		{"load4-first", load("A4", n(0), n(9), n(9), n(9)), "interp: index 0 out of bounds [1,5] in dim 1 of A4"},
		{"store1", store("A1", n(9)), "interp: index 9 out of bounds [1,5] in dim 1 of A1"},
		{"store2", store("A2", n(6), n(7)), "interp: index 6 out of bounds [1,5] in dim 1 of A2"},
		{"store2-second", store("A2", n(5), n(7)), "interp: index 7 out of bounds [1,4] in dim 2 of A2"},
		{"store3", store("A3", n(1), n(1), n(4)), "interp: index 4 out of bounds [1,3] in dim 3 of A3"},
		{"store4", store("A4", n(1), n(5), n(1), n(3)), "interp: index 5 out of bounds [1,4] in dim 2 of A4"},
		{"store-rounded", store("A1", n(5.5)), "interp: index 6 out of bounds [1,5] in dim 1 of A1"},
		{"store-subscript-and-rhs", ir.Block(ir.SetA("A1", ir.IX(n(9)), ir.At("A2", n(9), n(9)))),
			"interp: index 9 out of bounds [1,5] in dim 1 of A1"},
		{"store-subscript-faults-itself", ir.Block(ir.SetA("A1", ir.IX(ir.At("A1", n(8))), ir.At("A2", n(9), n(9)))),
			"interp: index 8 out of bounds [1,5] of A1"},
		{"pack", self(&ir.Send{Dest: n(0), Tag: 1, Array: "A2", Section: ir.Sec(n(1), n(5), n(2), n(6))}),
			"interp: section [2:6] out of bounds [1,4] in dim 2 of A2"},
		{"pack-low", self(&ir.Send{Dest: n(0), Tag: 1, Array: "A1", Section: ir.Sec(n(0), n(2))}),
			"interp: section [0:2] out of bounds [1,5] in dim 1 of A1"},
		{"pack-before-dest", self(&ir.Send{Dest: ir.Div(n(1), ir.S("zero")), Tag: 1, Array: "A1", Section: ir.Sec(n(0), n(2))}),
			"interp: section [0:2] out of bounds [1,5] in dim 1 of A1"},
		{"dest-after-section", self(&ir.Send{Dest: ir.Div(n(1), ir.S("zero")), Tag: 1, Array: "A1", Section: ir.Sec(n(1), n(2))}),
			"symexpr: division by zero"},
		{"unpack", ir.Block(&ir.Send{Dest: n(0), Tag: 1, Array: "A1", Section: ir.Sec(n(1), n(2))},
			&ir.Recv{Src: n(0), Tag: 1, Array: "A2", Section: ir.Sec(n(5), n(5), n(4), n(5))}),
			"interp: section [4:5] out of bounds [1,4] in dim 2 of A2"},
		{"short-receive", ir.Block(&ir.Send{Dest: n(0), Tag: 1, Array: "A1", Section: ir.Sec(n(1), n(2))},
			&ir.Recv{Src: n(0), Tag: 1, Array: "A1", Section: ir.Sec(n(1), n(3))}),
			"interp: received 2 elements for a 3-element section of A1"},
		{"div", bin(ir.OpDiv), "symexpr: division by zero"},
		{"idiv", bin(ir.OpIDiv), "symexpr: integer division by zero"},
		{"ceildiv", bin(ir.OpCeilDiv), "symexpr: ceildiv by zero"},
		{"mod", bin(ir.OpMod), "symexpr: mod by zero"},
		{"missing-input", self(&ir.ReadInput{Var: "NOPE"}), `interp: missing program input "NOPE"`},
	}
	for _, tc := range cases {
		p := &ir.Program{Name: tc.name, Arrays: arrays, Body: tc.body}
		for _, ev := range []struct {
			name string
			run  func(*ir.Program, Config) (*mpi.Report, []rankState, error)
		}{{"reference", runRef}, {"register code", runFlat}} {
			_, _, err := ev.run(p, baseConfig(1))
			want := "sim: proc 0 (rank0) panicked: " + tc.want
			if err == nil || err.Error() != want {
				t.Errorf("%s on the %s:\n got %v\nwant %s", tc.name, ev.name, err, want)
			}
		}
	}
	// An empty section skips the communication and with it the peer.
	p := &ir.Program{Name: "empty", Arrays: arrays, Body: self(
		&ir.Send{Dest: ir.Div(n(1), ir.S("zero")), Tag: 1, Array: "A1", Section: ir.Sec(n(3), n(2))})}
	if _, _, err := runFlat(p, baseConfig(1)); err != nil {
		t.Errorf("empty section evaluated its peer: %v", err)
	}
}

// TestIntegralAnalysis checks the Z-rule on its boundary cases.
func TestIntegralAnalysis(t *testing.T) {
	body := ir.Block(
		&ir.ReadInput{Var: "N"},
		ir.SetS("a", ir.Add(ir.S("N"), ir.N(1))),     // integral input + 1
		ir.SetS("b", ir.Div(ir.S("a"), ir.N(2))),     // / leaves Z
		ir.SetS("c", ir.CeilDiv(ir.S("b"), ir.N(2))), // ceildiv re-enters it
		ir.SetS("d", ir.Mul(ir.S("H"), ir.N(2))),     // H is supplied as 2.5
		ir.SetS("e", ir.S("f")),                      // chains through f ...
		ir.SetS("f", ir.S("b")),                      // ... to b
		ir.SetS("g", ir.Abs(ir.MinE(ir.S("a"), ir.Mod(ir.S("c"), ir.N(3))))),
		ir.SetS("h", ir.Call{Name: "floor", Arg: ir.S("b")}),
		ir.SetS("r", ir.N(0)),
		&ir.Allreduce{Op: "sum", Vars: []string{"r"}},
		ir.Loop("", "i", ir.S("b"), ir.S("d"), ir.SetS("s", ir.SumE{Index: "k", Lo: ir.N(1), Hi: ir.S("i"), Body: ir.S("k")})),
		ir.SetS("u", ir.At("A", ir.N(1))),
	)
	p := &ir.Program{Name: "z", Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(2)}, Elem: 8}}, Body: body}
	cp, err := compile(p, &Config{Inputs: map[string]float64{"N": 8, "H": 2.5, "unused": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"P": true, "myid": true, "N": true, "a": true, "b": false, "c": true, "d": false,
		"H": false, "e": false, "f": false, "g": true, "h": true, "r": false, "i": true, "k": true, "s": true, "u": false}
	for name, integral := range want {
		slot, ok := cp.slots[name]
		if !ok {
			t.Fatalf("no scalar %s", name)
		}
		if cp.nonZ[slot] == integral {
			t.Errorf("%s: integral = %v, want %v", name, !cp.nonZ[slot], integral)
		}
	}
	var rounds int
	for _, in := range cp.code {
		if in.op == opRound {
			rounds++
		}
	}
	if rounds != 2 { // the loop's two bounds, and nothing else
		t.Errorf("%d rounding instructions, want 2\n%s", rounds, cp.dump())
	}
}

// TestCountingFaults holds a calibration run, which computes only what it
// observes, to the faults of full execution: an out-of-range subscript in
// a loop it would charge in one step, and in a statement it does not
// compute, and a zero divisor in one, each fault with the reference's
// text; a loop whose range the interval rules cannot prove runs trip by
// trip, in range, to the reference's report and calibration.
//
// Each mutation below was applied by hand and fails the case named:
//
//   - counting a loop that has a branch (the For case's count test lets
//     an If through): TestOracleApps/sample/ranks=1/profile=false/original
//     and TestOracleGenerated seed=0/ranks=1;
//   - skipping the range proof (span proves every subscript in range):
//     counted-store, counted-load and counted-mod here;
//   - treating a divisor statement as unobserved (slicer.Observed drops a
//     faulting assignment's reads and target): divide-by-element and
//     mod-by-scalar here, and TestTimerCounts (Tomcatv's forward and init
//     loops count);
//   - dropping the payload rule (the Send case of the slicer's fixpoint):
//     TestOracleGenerated seed=0/ranks=4 (D2's branch reads what D1's
//     stale values carry), core's TestPayloadReachesAM and check's
//     TestAuditCatchesDroppedPayload.
func TestCountingFaults(t *testing.T) {
	arrays := []*ir.ArrayDecl{{Name: "A1", Dims: []ir.Expr{ir.N(100)}, Elem: 8}}
	i, n := ir.S("i"), func(v float64) ir.Expr { return ir.N(v) }
	timed := func(body ...ir.Stmt) []ir.Stmt { return ir.Block(&ir.Timed{ID: "w_1", Units: n(1), Body: body}) }
	cases := []struct {
		name    string
		body    []ir.Stmt
		want    string // "" runs to the end
		counted bool   // the loop gets an opCount
	}{
		{"counted-store", timed(ir.Loop("", "i", n(1), n(101), ir.SetA("A1", ir.IX(i), n(1)))),
			"interp: index 101 out of bounds [1,100] in dim 1 of A1", true},
		{"counted-load", timed(ir.Loop("", "i", n(0), n(99), ir.SetS("x", ir.Add(ir.At("A1", i), n(1))))),
			"interp: index 0 out of bounds [1,100] of A1", true},
		{"counted-mod", timed(ir.Loop("", "i", n(1), n(200), ir.SetA("A1", ir.IX(ir.Add(ir.Mod(i, n(101)), n(1))), n(2)))),
			"interp: index 101 out of bounds [1,100] in dim 1 of A1", true},
		{"load", timed(ir.SetS("x", ir.Add(n(1), ir.At("A1", n(101))))), "interp: index 101 out of bounds [1,100] of A1", false},
		{"divide-by-element", timed(ir.SetS("x", ir.Div(n(7), ir.At("A1", n(2))))), "symexpr: division by zero", false},
		{"mod-by-scalar", timed(ir.SetS("z", n(0)), ir.SetA("A1", ir.IX(n(1)), ir.Mod(n(7), ir.S("z")))), "symexpr: mod by zero", false},
		{"unproven", timed(ir.Loop("", "i", n(1), n(100), ir.SetA("A1", ir.IX(ir.Sub(ir.Mul(i, n(2)), i)), ir.Add(ir.At("A1", i), n(1))))),
			"", true},
		{"proven", timed(ir.Loop("", "i", n(1), n(100), ir.SetA("A1", ir.IX(ir.MinE(ir.Add(i, n(1)), n(100))), ir.Add(ir.At("A1", i), n(1))))),
			"", true},
	}
	for _, tc := range cases {
		p := &ir.Program{Name: tc.name, Arrays: arrays, Body: tc.body}
		cfg := baseConfig(1)
		cfg.Calibration = NewCalibration()
		cp, err := compile(p, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(cp.counts) > 0; got != tc.counted {
			t.Errorf("%s: counted %v, want %v\n%s", tc.name, got, tc.counted, cp.dump())
		}
		var reps []*mpi.Report
		var cals []*Calibration
		for _, run := range []func(*ir.Program, Config) (*mpi.Report, []rankState, error){runRef, runFlat} {
			cfg.Calibration = NewCalibration()
			rep, _, err := run(p, cfg)
			want := "sim: proc 0 (rank0) panicked: " + tc.want
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || err.Error() != want) {
				t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
			}
			reps, cals = append(reps, rep), append(cals, cfg.Calibration)
		}
		if tc.want == "" && (!reflect.DeepEqual(reps[0], reps[1]) || !reflect.DeepEqual(cals[0].Stats(), cals[1].Stats())) {
			t.Errorf("%s: counting run differs from the reference: %+v vs %+v", tc.name, cals[1].Stats(), cals[0].Stats())
		}
	}
}
