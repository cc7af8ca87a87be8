package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/sim"
)

// TestAbortReachesAComputingRank: a rank in a compute loop reaches no
// kernel call, so a cancelled run has to be noticed from the loop's
// back-edge — and must end as an abort, not as a failed rank. The loop
// below would run for minutes; the program is tried with a barrier
// behind the loop and with no communication at all.
func TestAbortReachesAComputingRank(t *testing.T) {
	spin := ir.Loop("", "k", ir.N(1), ir.N(2e9),
		ir.SetA("W", ir.IX(ir.N(1)), ir.Add(ir.At("W", ir.N(1)), ir.S("k"))))
	for name, body := range map[string][]ir.Stmt{
		"barrier": ir.Block(spin, &ir.Barrier{}),
		"local":   ir.Block(spin),
	} {
		p := &ir.Program{
			Name:   "spin",
			Arrays: []*ir.ArrayDecl{{Name: "W", Dims: []ir.Expr{ir.N(1)}, Elem: 8}},
			Body:   body,
		}
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			cfg := baseConfig(2)
			cfg.HostWorkers, cfg.RealParallel = workers, workers > 1
			cfg.Limits = sim.Limits{Ctx: ctx}
			start := time.Now()
			rep, err := Run(p, cfg)
			cancel()
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("%s, workers=%d: took %v to stop, want under 2s", name, workers, elapsed)
			}
			var abort *sim.AbortError
			if !errors.As(err, &abort) || !strings.Contains(abort.Reason, "canceled") {
				t.Fatalf("%s, workers=%d: err = %v, want a cancellation abort", name, workers, err)
			}
			if rep == nil || !rep.Partial {
				t.Errorf("%s, workers=%d: no partial report with the abort", name, workers)
			}
		}
	}
}

// sweepDE runs Sweep3D under direct execution on 16 ranks with an
// it x jt x 40 grid per rank and returns the report.
func sweepDE(t testing.TB, it, jt int) *mpi.Report {
	npx, npy := apps.ProcGrid(16)
	rep, err := Run(apps.Sweep3D(), Config{
		Config: mpi.Config{Ranks: 16, Machine: machine.IBMSP(), Comm: mpi.Analytic},
		Inputs: apps.Sweep3DInputs(it, jt, 40, 10, npx, npy),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAllocationsFollowMessagesNotCells: executing a cell allocates
// nothing. Four times the cells with the same messages allocates the same
// number of objects, and the whole run stays under one allocation per
// hundred abstract operations (the closure evaluator: four in ten).
func TestAllocationsFollowMessagesNotCells(t *testing.T) {
	small := testing.AllocsPerRun(3, func() { sweepDE(t, 4, 4) })
	large := testing.AllocsPerRun(3, func() { sweepDE(t, 8, 8) })
	if large > small*1.02 || large < small*0.98 {
		t.Errorf("allocations follow the cell count: %.0f at 4x4 cells, %.0f at 8x8", small, large)
	}
	m := machine.IBMSP()
	var ops float64
	for _, rs := range sweepDE(t, 4, 4).Ranks {
		ops += float64(rs.ComputeTime) / m.ComputeTime(1, rs.PeakBytes)
	}
	if perOp := small / ops; perOp > 0.01 {
		t.Errorf("%.0f allocations for %.0f abstract operations = %.4f per operation, want <= 0.01", small, ops, perOp)
	}
}
