package interp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

var opNames = [...]string{"halt", "mov", "round", "add", "sub", "mul", "div", "apply", "call",
	"addr1", "addr2", "addr3", "addrN", "load", "store", "addload", "subload",
	"jump", "bnlt", "bnle", "brz", "brprof", "count", "row", "forinit", "fornext", "charge",
	"flush", "section", "send", "recv", "unpack", "allreduce", "bcast", "result", "barrier", "fault", "delay", "tasktimes", "now", "timed"}

// dump disassembles the program for test failure messages and debugging:
// every operand is shown both as the register it would name and as the
// raw number, since only the opcode says which reading applies.
func (cp *compiled) dump() string {
	var sb strings.Builder
	reg := func(r int32) string {
		switch {
		case int(r) < len(cp.names):
			return cp.names[r]
		case r < cp.tempBase:
			return fmt.Sprintf("#%g", cp.constVals[int(r)-len(cp.names)])
		}
		return fmt.Sprintf("t%d", r-cp.tempBase)
	}
	for pc, in := range cp.code {
		fmt.Fprintf(&sb, "%4d %-9s %s %s %s %s %s   [%d %d %d %d %d]\n", pc, opNames[in.op],
			reg(in.a), reg(in.b), reg(in.c), reg(in.d), reg(in.e), in.a, in.b, in.c, in.d, in.e)
	}
	return sb.String()
}

func TestEveryOpcodeHasAName(t *testing.T) {
	if len(opNames) != int(opTimed)+1 {
		t.Fatalf("%d names for %d opcodes", len(opNames), int(opTimed)+1)
	}
}

// loopPath compiles p and returns the first pc of the body of the first
// innermost loop whose body satisfies pick, and the number of
// instructions on its common path, the back-edge included: every branch
// is taken, skipping the arm it guards.
func loopPath(t *testing.T, p *ir.Program, cfg Config, pick func(body []instr) bool) (cp *compiled, top, n int) {
	t.Helper()
	cp, err := compile(p, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	top = -1
	for pc, in := range cp.code {
		if in.op != opForNext {
			continue
		}
		body := cp.code[in.c:pc]
		if !slices.ContainsFunc(body, func(b instr) bool { return b.op == opForInit }) && pick(body) {
			top = int(in.c)
			break
		}
	}
	if top < 0 {
		t.Fatalf("no such loop\n%s", cp.dump())
	}
	n = 1
	for pc := top; cp.code[pc].op != opForNext; n++ {
		switch in := cp.code[pc]; in.op {
		case opBnLT, opBnLE, opBrZ:
			pc = int(in.c)
		default:
			pc++
		}
	}
	return cp, top, n
}

func anyLoop([]instr) bool { return true }

// loopLabels names every loop of p by the nearest labelled loop around
// it, and lists its innermost loops and its nests in program order.
func loopLabels(p *ir.Program) (label map[*ir.For]string, innermost, nests []*ir.For) {
	label = map[*ir.For]string{}
	var walk func(body []ir.Stmt, outer string)
	walk = func(body []ir.Stmt, outer string) {
		ir.Walk(body, func(s ir.Stmt) bool {
			f, ok := s.(*ir.For)
			if !ok {
				return true
			}
			l := f.Label
			if l == "" {
				l = outer
			}
			label[f] = l
			if !slices.ContainsFunc(f.Body, func(s ir.Stmt) bool {
				nested := false
				ir.Walk([]ir.Stmt{s}, func(s ir.Stmt) bool { _, isFor := s.(*ir.For); nested = nested || isFor; return true })
				return nested
			}) {
				innermost = append(innermost, f)
			} else {
				nests = append(nests, f)
			}
			walk(f.Body, l)
			return false
		})
	}
	walk(p.Body, "")
	return label, innermost, nests
}

// examplePrograms parses examples/programs/*.ir by file base name.
func examplePrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	progs := map[string]*ir.Program{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		progs[strings.TrimSuffix(filepath.Base(f), ".ir")] = p
	}
	return progs
}

// rowsRun reports, for each innermost loop of the code in program order,
// whether a frame ran trips of it by row, and whether it has an opRow.
func rowsRun(cp *compiled, frames []*frame) (ran, entered []bool) {
	for pc, in := range cp.code {
		if in.op != opForNext || slices.ContainsFunc(cp.code[in.c:pc], func(b instr) bool { return b.op == opForInit }) {
			continue
		}
		row := cp.code[in.c-1]
		entered = append(entered, row.op == opRow)
		ran = append(ran, row.op == opRow && slices.ContainsFunc(frames, func(f *frame) bool {
			return f != nil && f.rowTrips != nil && f.rowTrips[row.a] > 0
		}))
	}
	return ran, entered
}

// stripsRun reports, for each nest of the code in program order (a loop
// around a loop; sums count), whether a frame ran trips of it by strip,
// and whether it has an opRow.
func stripsRun(cp *compiled, frames []*frame) (ran, entered []bool) {
	for _, in := range cp.code {
		if in.op != opForInit {
			continue
		}
		next := cp.code[in.d]
		if !slices.ContainsFunc(cp.code[next.c:in.d], func(b instr) bool { return b.op == opForInit }) {
			continue
		}
		row := cp.code[next.c-1]
		entered = append(entered, row.op == opRow)
		ran = append(ran, row.op == opRow && slices.ContainsFunc(frames, func(f *frame) bool {
			return f != nil && f.rowTrips != nil && f.rowTrips[row.a] > 0
		}))
	}
	return ran, entered
}

// TestRowLoops pins which innermost loops of the apps and the example
// programs run by row in direct execution at 16 ranks (the apps' default
// inputs, the examples' N=512, STEPS=4), named by the nearest labelled
// loop around them, and which get an opRow; and the same of their nests
// and strips. Tomcatv's forward elimination divides by an element and
// gets no opRow; nor does its backward substitution, which writes RX(i)
// where the trip before read RX(min(i+1,N)), so the alias proof would
// fail every strip: its nest over jl runs by strip instead. Its other
// nests get an opRow and leave their trips to their inner loops, which
// run by row 254 trips wide. Sweep3D's cell branches; its inflow loops,
// its initialisation and the global flux sum get an opRow and run 4
// trips, below rowMin, and all but the sum, a reduction, run in nests
// that strip: the initialisation over k, the inflows and the sweep over
// a block's k-planes. NAS SP's 3-D loops get an opRow and run 8 trips;
// its nests strip over k, but for the z solve, which reads at k-1 and
// k+1 and strips over j, and the norm, a reduction. Ring's accumulation
// gets an opRow and runs 32 trips. SAMPLE's work loop runs by row where
// its default, wavefront, pattern runs it; the nearest-neighbour
// pattern's copy gets an opRow too.
func TestRowLoops(t *testing.T) {
	progs := examplePrograms(t)
	inputs := map[string]map[string]float64{}
	for name := range progs {
		inputs[name] = map[string]float64{"N": 512, "STEPS": 4}
	}
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		progs[name], inputs[name] = spec.Build(), spec.Default(16)
	}
	want := map[string][]string{
		"bcastpipe": {"fill"},
		"nassp":     nil,
		"ring":      nil,
		"sample":    {"work"},
		"stencil1d": {"smooth"},
		"sweep3d":   nil,
		"tomcatv":   {"init", "residual", "rmax", "update"},
	}
	wantEntered := map[string][]string{
		"bcastpipe": {"fill"},
		"ring":      {"acc"},
		"sample":    {"work", "work"},
		"nassp":     {"init", "rhs", "zsolve", "add", "rnorm"},
		"stencil1d": {"smooth"},
		"sweep3d":   {"init", "inflow-i", "inflow-j", "fluxsum"},
		"tomcatv":   {"init", "residual", "rmax", "update"},
	}
	wantStrips := map[string][]string{
		"nassp":   {"init", "rhs", "xsolve-fwd", "xsolve-bwd", "ysolve-fwd", "ysolve-bwd", "zsolve", "add"},
		"sweep3d": {"init", "inflow-i", "inflow-j", "sweep"},
		"tomcatv": {"backward"},
	}
	wantStripEntered := map[string][]string{
		"nassp": {"init", "init", "rhs", "rhs", "xsolve-fwd", "xsolve-fwd", "xsolve-bwd", "xsolve-bwd",
			"ysolve-fwd", "ysolve-fwd", "ysolve-bwd", "ysolve-bwd", "zsolve", "add", "add"},
		"sweep3d": {"init", "init", "inflow-i", "inflow-j", "sweep"},
		"tomcatv": {"init", "residual", "backward", "update"},
	}
	for name, p := range progs {
		label, innermost, nests := loopLabels(p)
		cfg := Config{Config: mpi.Config{Ranks: 16, Machine: machine.IBMSP()}, Inputs: inputs[name]}
		_, cp, frames, err := runFrames(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ran, entered := rowsRun(cp, frames)
		if len(ran) != len(innermost) {
			t.Fatalf("%s: %d innermost loops in the code, %d in the program", name, len(ran), len(innermost))
		}
		var got, gotEntered []string
		for i, r := range ran {
			if r {
				got = append(got, label[innermost[i]])
			}
			if entered[i] {
				gotEntered = append(gotEntered, label[innermost[i]])
			}
		}
		if !slices.Equal(got, want[name]) {
			t.Errorf("%s: loops run by row %q, want %q\n%s", name, got, want[name], cp.dump())
		}
		if !slices.Equal(gotEntered, wantEntered[name]) {
			t.Errorf("%s: loops with an opRow %q, want %q\n%s", name, gotEntered, wantEntered[name], cp.dump())
		}
		ran, entered = stripsRun(cp, frames)
		if len(ran) != len(nests) {
			t.Fatalf("%s: %d nests in the code, %d in the program", name, len(ran), len(nests))
		}
		got, gotEntered = nil, nil
		for i, r := range ran {
			if r {
				got = append(got, label[nests[i]])
			}
			if entered[i] {
				gotEntered = append(gotEntered, label[nests[i]])
			}
		}
		if !slices.Equal(got, wantStrips[name]) {
			t.Errorf("%s: nests run by strip %q, want %q\n%s", name, got, wantStrips[name], cp.dump())
		}
		if !slices.Equal(gotEntered, wantStripEntered[name]) {
			t.Errorf("%s: nests with an opRow %q, want %q\n%s", name, gotEntered, wantStripEntered[name], cp.dump())
		}
	}
}

// TestSweep3DStrips holds every trip of Sweep3D's sweep nest, in the
// direct-execution run of 256 ranks (the de_sweep3d_256 workload's), to
// running by strip: MK k-planes per block, ceil(KT/MK) blocks per octant
// and eight octants on every rank.
func TestSweep3DStrips(t *testing.T) {
	spec := apps.Registry()["sweep3d"]
	in := spec.Default(256)
	p := spec.Build()
	_, cp, frames, err := runFrames(p, Config{Config: mpi.Config{Ranks: 256, Machine: machine.IBMSP()}, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweepRow(t, cp, p)
	want := int64(in["MK"] * math.Ceil(in["KT"]/in["MK"]) * 8)
	for r, f := range frames {
		if got := f.rowTrips[sweep]; got != want {
			t.Fatalf("rank %d ran %d trips of the sweep by strip, want %d\n%s", r, got, want, cp.dump())
		}
	}
}

// sweepRow returns the row loop of Sweep3D's sweep nest.
func sweepRow(t *testing.T, cp *compiled, p *ir.Program) int32 {
	t.Helper()
	_, _, nests := loopLabels(p)
	k := 0
	for _, in := range cp.code {
		if in.op != opForInit {
			continue
		}
		next := cp.code[in.d]
		if !slices.ContainsFunc(cp.code[next.c:in.d], func(b instr) bool { return b.op == opForInit }) {
			continue
		}
		if k++; nests[k-1].Label == "sweep" && cp.code[next.c-1].op == opRow {
			return cp.code[next.c-1].a
		}
	}
	t.Fatalf("the sweep nest has no opRow\n%s", cp.dump())
	return -1
}

// TestSweep3DCellInstructions pins the length of the common path through
// Sweep3D's cell loop (the fixup branch not taken) in the direct-
// execution run of 256 ranks: 29 instructions before elements were
// forwarded from registers, offsets shared between arrays of one shape
// and the global k index hoisted out of the loop. The sweep nest runs by
// strip (TestSweep3DStrips), each instruction dispatched once per strip
// of k-planes; this per-trip cell is its fallback path, which runs when
// the entry proof fails, and the row code's instruction list.
func TestSweep3DCellInstructions(t *testing.T) {
	const most = 20
	spec := apps.Registry()["sweep3d"]
	cfg := Config{Config: mpi.Config{Ranks: 256, Machine: machine.IBMSP()}, Inputs: spec.Default(256)}
	// The cell loop is the innermost loop whose body branches.
	cp, top, n := loopPath(t, spec.Build(), cfg, func(body []instr) bool {
		return slices.ContainsFunc(body, func(b instr) bool { return b.op == opBnLT || b.op == opBnLE || b.op == opBrZ })
	})
	if n > most {
		t.Errorf("the cell loop at pc %d takes %d instructions, want at most %d\n%s", top, n, most, cp.dump())
	}
}

// TestSubscriptInstructions pins the loops whose subscripts are computed:
// SAMPLE's work loop (WA(mod(w,512)+1) = WA(mod(w,512)+1) + 0.5), Tomcatv's
// residual stencil and stencil1d.ir's smoothing loop, at 16 ranks. Before
// subscripts were numbered they took 10, 58 and 11 instructions: each use
// recomputed its subscript and checked its own address, and j±1 was
// recomputed in every iteration of the loop over i.
func TestSubscriptInstructions(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "stencil1d.ir"))
	if err != nil {
		t.Fatal(err)
	}
	stencil1d, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	reads := func(body []instr) (n int) {
		for _, b := range body {
			if b.op == opLoad || b.op == opAddLoad || b.op == opSubLoad {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		prog   *ir.Program
		inputs map[string]float64
		pick   func([]instr) bool
		most   int
	}{
		{"sample work", apps.Sample(), apps.Registry()["sample"].Default(16), anyLoop, 7},
		// The residual stencil is the innermost loop reading 14 elements.
		{"tomcatv stencil", apps.Tomcatv(), apps.Registry()["tomcatv"].Default(16),
			func(body []instr) bool { return reads(body) == 14 }, 40},
		{"stencil1d smooth", stencil1d, map[string]float64{"N": 32, "STEPS": 2}, anyLoop, 9},
	} {
		cfg := Config{Config: mpi.Config{Ranks: 16, Machine: machine.IBMSP()}, Inputs: tc.inputs}
		cp, top, n := loopPath(t, tc.prog, cfg, tc.pick)
		if n > tc.most {
			t.Errorf("%s: the loop at pc %d takes %d instructions, want at most %d\n%s", tc.name, top, n, tc.most, cp.dump())
		}
	}
}

// TestTimerCounts pins which innermost loops of the timer-instrumented
// programs get an opCount in a calibration run (charged in one step when
// they run 64 trips or more, in range), named by the nearest labelled
// loop around them, at 16 ranks. Sweep3D's cell keeps executing (its
// fixup branch reads PHI), and so do Tomcatv's forward elimination (DD is
// a divisor), its backward one (i feeds subscripts) and its
// initialisation (AA feeds the divisor); SAMPLE's work loop and
// stencil1d's smoothing loop get one.
func TestTimerCounts(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "stencil1d.ir"))
	if err != nil {
		t.Fatal(err)
	}
	stencil1d, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*ir.Program{"stencil1d": stencil1d}
	inputs := map[string]map[string]float64{"stencil1d": {"N": 32, "STEPS": 2}}
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		progs[name], inputs[name] = spec.Build(), spec.Default(16)
	}
	want := map[string][]string{
		"nassp":     {"init", "rhs", "xsolve-fwd", "xsolve-bwd", "ysolve-fwd", "ysolve-bwd", "zsolve", "add", "rnorm"},
		"sample":    {"work", "work"},
		"stencil1d": {"smooth"},
		"sweep3d":   {"fluxsum"},
		"tomcatv":   {"residual", "rmax", "update"},
	}
	for name, p := range progs {
		res, err := compiler.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		label, _, _ := loopLabels(res.Timer)
		cfg := Config{Config: mpi.Config{Ranks: 16, Machine: machine.IBMSP()}, Inputs: inputs[name], Calibration: NewCalibration()}
		cp, err := compile(res.Timer, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range cp.counts {
			got = append(got, label[f.loop])
		}
		if !slices.Equal(got, want[name]) {
			t.Errorf("%s: counted loops %q, want %q\n%s", name, got, want[name], cp.dump())
		}
	}
}
