package tables

import (
	"fmt"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/core"
	"mpisim/internal/interp"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// Ablation quantifies the design choices behind the paper's results on
// one workload (Tomcatv): what condensation granularity, program
// slicing, and the choice of communication model each contribute. It is
// not a table from the paper; it substantiates the claims its design
// sections make (§3.1-§3.3).
func Ablation(cfg Config) (*Table, error) {
	n := cfg.pick(160, 512)
	inputs := apps.TomcatvInputs(n, 2)
	const ranks = 4
	m := machineFor(machine.IBMSP(), cfg)
	prog := apps.Tomcatv()

	meas, err := interp.Run(prog, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Detailed},
		Inputs: inputs,
	})
	if err != nil {
		return nil, err
	}

	out := &Table{
		ID:     "ablation",
		Title:  fmt.Sprintf("Design-choice ablation (Tomcatv %dx%d, %d ranks)", n, n, ranks),
		Header: []string{"variant", "tasks", "predicted", "error", "AM memory"},
		Notes: []string{
			"error is the prediction's deviation from the measured (detailed) run",
			"abstract-comm additionally drops all event-level communication simulation",
		},
	}
	addRow := func(name string, opts compiler.Options, comm mpi.CommModel) error {
		res, err := compiler.CompileOpts(prog, opts)
		if err != nil {
			return err
		}
		cal := interp.NewCalibration()
		if _, err := interp.Run(res.Timer, interp.Config{
			Config:      mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Detailed},
			Inputs:      inputs,
			Calibration: cal,
		}); err != nil {
			return err
		}
		am, err := interp.Run(res.Simplified, interp.Config{
			Config: mpi.Config{Ranks: ranks, Machine: m, Comm: comm, TaskTimes: cal.TaskTimes()},
			Inputs: inputs,
		})
		if err != nil {
			return err
		}
		errPct := 100 * (am.Time - meas.Time) / meas.Time
		out.Rows = append(out.Rows, []string{
			name, fmt.Sprintf("%d", len(res.TaskVars)),
			fmt.Sprintf("%.5gs", am.Time),
			fmt.Sprintf("%+.1f%%", errPct),
			fmtBytes(am.TotalPeakBytes),
		})
		return nil
	}
	if err := addRow("paper (regions + slicing)", compiler.Options{}, mpi.Analytic); err != nil {
		return nil, err
	}
	if err := addRow("per-leaf condensation", compiler.Options{NoCondense: true}, mpi.Analytic); err != nil {
		return nil, err
	}
	if err := addRow("no program slicing", compiler.Options{NoSlice: true}, mpi.Analytic); err != nil {
		return nil, err
	}
	if err := addRow("abstract communication", compiler.Options{}, mpi.AbstractComm); err != nil {
		return nil, err
	}
	// Reference rows: the event-level simulators.
	de, err := interp.Run(prog, interp.Config{
		Config: mpi.Config{Ranks: ranks, Machine: m, Comm: mpi.Analytic},
		Inputs: inputs,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, []string{
		"MPI-SIM-DE (reference)", "-",
		fmt.Sprintf("%.5gs", de.Time),
		fmt.Sprintf("%+.1f%%", 100*(de.Time-meas.Time)/meas.Time),
		fmtBytes(de.TotalPeakBytes),
	})
	// Static task-time estimation (no calibration run at all).
	r, err := core.NewRunner(prog, m)
	if err != nil {
		return nil, err
	}
	r.Metrics = cfg.Metrics
	r.Tracer = cfg.Tracer
	r.Timeline = cfg.Timeline
	r.RunInfo = cfg.RunInfo
	if _, err := r.EstimateTaskTimes(ranks, inputs); err != nil {
		return nil, err
	}
	sRep, err := r.Run(core.Abstract, ranks, inputs)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, []string{
		"static w_i (no measurement)", fmt.Sprintf("%d", len(r.Compiled.TaskVars)),
		fmt.Sprintf("%.5gs", sRep.Time),
		fmt.Sprintf("%+.1f%%", 100*(sRep.Time-meas.Time)/meas.Time),
		fmtBytes(sRep.TotalPeakBytes),
	})
	return out, nil
}
