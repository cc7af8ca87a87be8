package core

import (
	"errors"
	"strings"
	"testing"

	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// deadlockedRing is a program every static pass accepts except the
// deadlock detector: all ranks post a receive before any send.
func deadlockedRing() *ir.Program {
	myid, np := ir.S(ir.BuiltinMyID), ir.S(ir.BuiltinP)
	return &ir.Program{
		Name:   "ring",
		Arrays: []*ir.ArrayDecl{{Name: "A", Dims: []ir.Expr{ir.N(8)}, Elem: 8}},
		Body: ir.Block(
			&ir.Recv{Src: ir.Mod(ir.Add(myid, ir.Sub(np, ir.N(1))), np), Tag: 5,
				Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
			&ir.Send{Dest: ir.Mod(ir.Add(myid, ir.N(1)), np), Tag: 5,
				Array: "A", Section: ir.Sec(ir.N(1), ir.N(8))},
		),
	}
}

// The fail-fast hook must refuse to simulate a program with
// error-severity findings, and SkipChecks must bypass exactly that.
func TestRunRefusesCheckedErrors(t *testing.T) {
	r, err := NewRunner(deadlockedRing(), machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(Measured, 4, nil)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("expected a CheckError, got %v", err)
	}
	if ce.Result == nil || !ce.Result.HasErrors() {
		t.Fatal("CheckError carries no error findings")
	}
	// The cache must serve the repeat verification.
	if _, err := r.Run(DirectExec, 4, nil); !errors.As(err, &ce) {
		t.Fatalf("expected a cached CheckError, got %v", err)
	}
	if len(r.checkCache) != 1 {
		t.Fatalf("expected one cached configuration, have %d", len(r.checkCache))
	}
}

func TestSkipChecksEscapeHatch(t *testing.T) {
	r, err := NewRunner(deadlockedRing(), machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	r.SkipChecks = true
	// The simulation itself must then hit the deadlock dynamically; the
	// kernel detects the global stall and errors out rather than hanging.
	if _, err := r.Run(Measured, 4, nil); err == nil {
		t.Fatal("deadlocked ring simulated to completion")
	} else if errors.As(err, new(*CheckError)) {
		t.Fatalf("SkipChecks did not bypass verification: %v", err)
	}
}

// A refusal says what to do in the job spec's words, and a refused
// calibration configuration says it is the calibration: Fig. 14's 8x8
// process grid carried to the default 16 calibration ranks sends outside
// the process set. The run's own configuration stays plain.
func TestRefusalExplains(t *testing.T) {
	spec := &RunSpec{App: "sweep3d", Mode: "am", Ranks: 64,
		Inputs: map[string]float64{"IT": 2, "JT": 2, "KT": 4, "MK": 2, "NPX": 8, "NPY": 8}}
	spec.Normalize()
	_, err := Prepare(spec, mpi.Config{}, nil, nil)
	var ce *CheckError
	if !errors.As(err, &ce) || !ce.Calibration || ce.Result.Ranks != 16 {
		t.Fatalf("expected a refused calibration at 16 ranks, got %v", err)
	}
	want := "in sweep3d at 16 ranks, the calibration configuration, with the run's inputs {IT=2,JT=2,KT=4,MK=2,NPX=8,NPY=8}: " +
		"set cal_ranks to a rank count they fit, supply task_times, or set skip_checks to simulate anyway"
	if !strings.HasSuffix(err.Error(), want) {
		t.Errorf("refusal:\n got %s\nwant ...%s", err, want)
	}
	spec.Ranks = 16 // calibrated where it runs
	if _, err = Prepare(spec, mpi.Config{}, nil, nil); !errors.As(err, &ce) || ce.Calibration ||
		!strings.HasSuffix(err.Error(), "in sweep3d at 16 ranks (set skip_checks to simulate anyway)") {
		t.Errorf("run refusal: %v", err)
	}
}
