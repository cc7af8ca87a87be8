package interp

import (
	"fmt"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

var opNames = [...]string{"halt", "mov", "round", "add", "sub", "mul", "div", "apply", "call",
	"addr1", "addr2", "addr3", "addrN", "load", "store", "addload", "subload",
	"jump", "bnlt", "bnle", "brz", "brprof", "forinit", "fornext", "charge",
	"flush", "section", "send", "recv", "unpack", "allreduce", "bcast", "result", "barrier", "missing", "delay", "tasktimes", "now", "timed"}

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

// TestSweep3DCellInstructions pins the length of the common path through
// Sweep3D's cell loop (the fixup branch not taken) in the direct-
// execution run of 256 ranks, which is nearly all of a DE prediction's
// host time: 29 instructions before elements were forwarded from
// registers, offsets shared between arrays of one shape and the global k
// index hoisted out of the loop.
func TestSweep3DCellInstructions(t *testing.T) {
	const most = 20
	spec := apps.Registry()["sweep3d"]
	cfg := Config{Config: mpi.Config{Ranks: 256, Machine: machine.IBMSP()}, Inputs: spec.Default(256)}
	cp, err := compile(spec.Build(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The cell loop is the innermost loop whose body branches.
	top := -1
	for pc, in := range cp.code {
		if in.op != opForNext {
			continue
		}
		inner, branches := true, false
		for _, b := range cp.code[in.c:pc] {
			inner = inner && b.op != opForInit
			branches = branches || b.op == opBnLT || b.op == opBnLE || b.op == opBrZ
		}
		if inner && branches {
			top = int(in.c)
			break
		}
	}
	if top < 0 {
		t.Fatalf("no cell loop\n%s", cp.dump())
	}
	n := 1
	for pc := top; cp.code[pc].op != opForNext; n++ {
		switch in := cp.code[pc]; in.op {
		case opBnLT, opBnLE, opBrZ:
			pc = int(in.c)
		default:
			pc++
		}
	}
	if n > most {
		t.Errorf("the cell loop at pc %d takes %d instructions, want at most %d\n%s", top, n, most, cp.dump())
	}
}
