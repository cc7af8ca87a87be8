package interp

import (
	"fmt"
	"strings"
	"testing"
)

var opNames = [...]string{"halt", "mov", "round", "add", "sub", "mul", "div", "apply", "call",
	"addr1", "addr2", "addr3", "addrN", "load", "store",
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
