package tables

import (
	"fmt"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/hostmodel"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// --- Table 1: memory usage ------------------------------------------------

// Table1 reproduces the memory-usage comparison: total simulator memory
// for target-program state under direct execution vs the analytical
// model, and the reduction factor. The direct-execution column is the
// analytic estimate (validated against actual runs in the test suite),
// since — as in the paper — the largest configurations exist precisely
// because direct execution cannot hold them.
func Table1(cfg Config) (*Table, error) {
	type row struct {
		label  string
		prog   string
		ranks  int
		inputs map[string]float64
	}
	kt1 := cfg.pick(64, 255)
	kt2 := cfg.pick(100, 1000)
	p1 := cfg.pick(490, 4900)
	if cfg.RankCap > 0 && p1 > cfg.RankCap {
		p1 = cfg.RankCap
	}
	g1x, g1y := apps.ProcGrid(p1)
	g2x, g2y := apps.ProcGrid(64)
	nA := cfg.pick(32, 64)
	nC := cfg.pick(64, 162)
	nT := cfg.pick(256, 2048)
	rows := []row{
		{fmt.Sprintf("Sweep3D, 4x4x%d per proc", kt1), "sweep3d", p1,
			apps.Sweep3DInputs(4, 4, kt1, kt1/4, g1x, g1y)},
		{fmt.Sprintf("Sweep3D, 6x6x%d per proc", kt2), "sweep3d", 64,
			apps.Sweep3DInputs(6, 6, kt2, kt2/4, g2x, g2y)},
		{fmt.Sprintf("SP, class A (%d^3)", nA), "nassp", 4, apps.NASSPInputs(nA, 2, 2)},
		{fmt.Sprintf("SP, class C (%d^3)", nC), "nassp", 4, apps.NASSPInputs(nC, 2, 2)},
		{fmt.Sprintf("Tomcatv, %dx%d", nT, nT), "tomcatv", 64, apps.TomcatvInputs(nT, 2)},
	}
	out := &Table{
		ID:     "table1",
		Title:  "Memory usage in MPI-SIM-DE and MPI-SIM-AM",
		Header: []string{"configuration", "procs", "DE memory", "AM memory", "reduction"},
		Notes: []string{
			"memory is target-program array state; the paper additionally counts simulator overhead",
		},
	}
	reg := apps.Registry()
	for _, rw := range rows {
		r, err := core.NewRunner(reg[rw.prog].Build(), machineFor(machine.IBMSP(), cfg))
		if err != nil {
			return nil, err
		}
		deMem, err := r.DEMemory(rw.ranks, rw.inputs)
		if err != nil {
			return nil, err
		}
		amMem, err := r.AMMemory(rw.ranks, rw.inputs)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			rw.label, fmt.Sprintf("%d", rw.ranks),
			fmtBytes(deMem), fmtBytes(amMem),
			fmt.Sprintf("%.0fx", float64(deMem)/float64(amMem)),
		})
	}
	return out, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// --- Figures 10-11: simulator scalability --------------------------------

// sweepScalability produces the measured / DE / AM predicted-runtime
// curves for a fixed per-processor Sweep3D size, with direct execution
// hitting a memory wall at deCutoff target processors (the paper reports
// walls at 2500 processors for the 4x4x255 size and 400 for 6x6x1000;
// the wall models the aggregate memory of the 64-node host partition).
func sweepScalability(cfg Config, id string, it, jt, kt int, ranks []int,
	deCutoff, measCutoff int) (*Figure, error) {
	r, err := newRunner(apps.Sweep3D(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	inputsFor := func(p int) map[string]float64 {
		npx, npy := apps.ProcGrid(p)
		return apps.Sweep3DInputs(it, jt, kt, sweepBlockDepth(kt), npx, npy)
	}
	if _, err := r.Calibrate(4, inputsFor(4)); err != nil {
		return nil, err
	}
	perRank, err := r.DEMemory(1, inputsFor(1))
	if err != nil {
		return nil, err
	}
	r.MemoryLimit = perRank * int64(deCutoff)
	meas := Series{Name: "measured"}
	de := Series{Name: "MPI-SIM-DE"}
	am := Series{Name: "MPI-SIM-AM"}
	deWall := 0
	for _, p := range ranks {
		aRep, err := r.Run(core.Abstract, p, inputsFor(p))
		if err != nil {
			return nil, fmt.Errorf("AM ranks=%d: %w", p, err)
		}
		am.Points = append(am.Points, Point{float64(p), aRep.Time})
		if p <= measCutoff {
			mRep, err := r.Run(core.Measured, p, inputsFor(p))
			if err != nil {
				return nil, err
			}
			meas.Points = append(meas.Points, Point{float64(p), mRep.Time})
		}
		if p <= deCutoff {
			dRep, err := r.Run(core.DirectExec, p, inputsFor(p))
			if err != nil {
				if mpi.IsMemoryLimit(err) {
					deWall = p
					continue
				}
				return nil, err
			}
			de.Points = append(de.Points, Point{float64(p), dRep.Time})
		} else if deWall == 0 {
			deWall = p
		}
	}
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Validation and scalability of Sweep3D, %dx%dx%d per processor (IBM SP model)", it, jt, kt),
		XLabel: "target processors", YLabel: "predicted runtime (s)",
		Series: []Series{meas, am, de},
	}
	if deWall > 0 {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("direct execution exceeds the host memory budget beyond ~%d target processors", deCutoff))
	}
	fig.Notes = append(fig.Notes,
		"measured curve limited to the rank counts a real machine allocation would permit")
	return fig, nil
}

// Figure10 is the 4x4x255-per-processor scalability study: the paper
// simulates up to 10,000 target processors with the analytical model
// while direct execution stops near 2,500.
func Figure10(cfg Config) (*Figure, error) {
	ranks := cfg.ranksFor(
		[]int{16, 64, 256, 490, 1024, 2048, 4096},
		[]int{16, 64, 256, 1024, 2500, 4900, 10000})
	return sweepScalability(cfg, "fig10",
		4, 4, cfg.pick(64, 255), ranks, cfg.pick(256, 2500), cfg.pick(64, 128))
}

// Figure11 is the 6x6x1000-per-processor study: direct execution cannot
// go beyond a few hundred processors, the analytical model scales on.
func Figure11(cfg Config) (*Figure, error) {
	ranks := cfg.ranksFor(
		[]int{16, 64, 100, 196, 400, 784},
		[]int{16, 64, 100, 400, 1600, 6400})
	return sweepScalability(cfg, "fig11",
		6, 6, cfg.pick(100, 1000), ranks, cfg.pick(100, 400), cfg.pick(64, 128))
}

// --- Figures 12-16: simulator performance --------------------------------

// hostWorkloads runs DE and AM for a configuration and derives their
// host-cost workloads. The DE workload can be derived from the AM run
// when direct execution is infeasible: the communication structure is
// identical and the delay times are exactly the computation DE would
// execute.
func hostWorkloads(r *core.Runner, ranks int, inputs map[string]float64,
	deFromAM bool) (app float64, de, am hostmodel.Workload, err error) {
	aRep, err := r.Run(core.Abstract, ranks, inputs)
	if err != nil {
		return 0, de, am, err
	}
	am = hostmodel.FromReport(aRep, false, r.Lookahead())
	if deFromAM {
		de = hostmodel.FromReport(aRep, false, r.Lookahead())
		for i, rs := range aRep.Ranks {
			de.ExecSeconds[i] = float64(rs.DelayTime) +
				float64(rs.ComputeTime-rs.DelayTime) - float64(rs.CommCPUTime)
			if de.ExecSeconds[i] < 0 {
				de.ExecSeconds[i] = 0
			}
		}
		app = aRep.Time
		return app, de, am, nil
	}
	dRep, err := r.Run(core.DirectExec, ranks, inputs)
	if err != nil {
		return 0, de, am, err
	}
	de = hostmodel.FromReport(dRep, true, r.Lookahead())
	mRep, err := r.Run(core.Measured, ranks, inputs)
	if err != nil {
		return 0, de, am, err
	}
	return mRep.Time, de, am, nil
}

// absolutePerformance builds an app vs DE vs AM simulator-runtime figure
// with hosts == targets for every point (paper Figures 12 and 13).
func absolutePerformance(cfg Config, id, title string, runner *core.Runner,
	inputsFor func(int) map[string]float64, ranks []int, calRanks int) (*Figure, error) {
	if _, err := runner.Calibrate(calRanks, inputsFor(calRanks)); err != nil {
		return nil, err
	}
	hp := hostmodel.Default()
	appS := Series{Name: "application (measured)"}
	deS := Series{Name: "MPI-SIM-DE"}
	amS := Series{Name: "MPI-SIM-AM"}
	for _, p := range ranks {
		app, de, am, err := hostWorkloads(runner, p, inputsFor(p), false)
		if err != nil {
			return nil, fmt.Errorf("ranks=%d: %w", p, err)
		}
		deT, err := hp.Runtime(de, p)
		if err != nil {
			return nil, err
		}
		amT, err := hp.Runtime(am, p)
		if err != nil {
			return nil, err
		}
		appS.Points = append(appS.Points, Point{float64(p), app})
		deS.Points = append(deS.Points, Point{float64(p), deT})
		amS.Points = append(amS.Points, Point{float64(p), amT})
	}
	return &Figure{
		ID: id, Title: title,
		XLabel: "processors (hosts = targets)", YLabel: "runtime (s)",
		Series: []Series{appS, deS, amS},
		Notes:  []string{"simulator runtimes from the calibrated host-cost model (see DESIGN.md)"},
	}, nil
}

// Figure12 compares simulator runtime against the application for NAS SP
// class A: DE runs about twice as slow as the application, AM runs
// faster than the application.
func Figure12(cfg Config) (*Figure, error) {
	r, err := newRunner(apps.NASSP(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	// Class A at these processor counts is computation-dominated; the
	// scaled grid must be large enough to preserve that, or the pipeline
	// fill time would distort the DE-to-application ratio.
	nx := cfg.pick(56, 64)
	steps := cfg.pick(2, 50)
	inputsFor := func(ranks int) map[string]float64 {
		return apps.NASSPInputs(nx, steps, apps.SquareSide(ranks))
	}
	desc := fmt.Sprintf("%d^3, %d steps", nx, steps)
	return absolutePerformance(cfg, "fig12",
		"Absolute performance of MPI-Sim for NAS SP class A ("+desc+")",
		r, inputsFor, cfg.ranksFor([]int{4, 9, 16, 25}, []int{4, 9, 16, 25, 36, 64, 100}), 16)
}

// Figure13 is the same comparison for Tomcatv, where AM stays nearly
// flat while the application time falls from large to small.
func Figure13(cfg Config) (*Figure, error) {
	r, err := newRunner(apps.Tomcatv(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	inputsFor, desc := cfg.tomcatvInputsFor()
	return absolutePerformance(cfg, "fig13",
		"Absolute performance of MPI-Sim for Tomcatv ("+desc+")",
		r, inputsFor, cfg.ranksFor([]int{4, 8, 16, 32, 64}, []int{4, 8, 16, 32, 64}), 4)
}

// fig14Data computes simulator runtimes versus host processors for the
// fixed-total Sweep3D configuration on 64 target processors.
func fig14Data(cfg Config) (app float64, hosts []int, deT, amT []float64, err error) {
	r, err := newRunner(apps.Sweep3D(), machine.IBMSP(), cfg)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	total := cfg.pick(36, 150)
	inputsFor := func(p int) map[string]float64 { return sweepFixedTotalInputs(total, p) }
	if _, err := r.Calibrate(4, inputsFor(4)); err != nil {
		return 0, nil, nil, nil, err
	}
	const targets = 64
	app, de, am, err := hostWorkloads(r, targets, inputsFor(targets), false)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	hp := hostmodel.Default()
	hosts = []int{1, 2, 4, 8, 16, 32, 64}
	for _, h := range hosts {
		dt, err := hp.Runtime(de, h)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		at, err := hp.Runtime(am, h)
		if err != nil {
			return 0, nil, nil, nil, err
		}
		deT = append(deT, dt)
		amT = append(amT, at)
	}
	return app, hosts, deT, amT, nil
}

// Figure14 shows the runtime of both simulators for Sweep3D on 64 target
// processors as the number of host processors varies from 1 to 64.
func Figure14(cfg Config) (*Figure, error) {
	app, hosts, deT, amT, err := fig14Data(cfg)
	if err != nil {
		return nil, err
	}
	deS := Series{Name: "MPI-SIM-DE"}
	amS := Series{Name: "MPI-SIM-AM"}
	appS := Series{Name: "measured application"}
	for i, h := range hosts {
		deS.Points = append(deS.Points, Point{float64(h), deT[i]})
		amS.Points = append(amS.Points, Point{float64(h), amT[i]})
		appS.Points = append(appS.Points, Point{float64(h), app})
	}
	return &Figure{
		ID: "fig14", Title: "Parallel performance of MPI-Sim (Sweep3D, 64 target processors)",
		XLabel: "host processors", YLabel: "runtime (s)",
		Series: []Series{deS, amS, appS},
		Notes:  []string{"application time shown as a flat reference line"},
	}, nil
}

// Figure15 shows the self-relative speedup of MPI-SIM-AM from the same
// experiment; the paper reports about 15 at 64 hosts.
func Figure15(cfg Config) (*Figure, error) {
	_, hosts, _, amT, err := fig14Data(cfg)
	if err != nil {
		return nil, err
	}
	s := Series{Name: "MPI-SIM-AM speedup"}
	for i, h := range hosts {
		s.Points = append(s.Points, Point{float64(h), amT[0] / amT[i]})
	}
	return &Figure{
		ID: "fig15", Title: "Speedup of MPI-SIM-AM (Sweep3D, 64 target processors)",
		XLabel: "host processors", YLabel: "speedup",
		Series: []Series{s},
	}, nil
}

// Figure16 compares the simulators' runtimes on 64 host processors as
// the number of target processors (and with it the total problem size,
// fixed per-processor) grows. The DE workload beyond its memory wall is
// derived from the AM run's delay accounting.
func Figure16(cfg Config) (*Figure, error) {
	r, err := newRunner(apps.Sweep3D(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	kt := cfg.pick(100, 1000)
	inputsFor := func(p int) map[string]float64 {
		npx, npy := apps.ProcGrid(p)
		return apps.Sweep3DInputs(6, 6, kt, kt/4, npx, npy)
	}
	if _, err := r.Calibrate(4, inputsFor(4)); err != nil {
		return nil, err
	}
	hp := hostmodel.Default()
	targets := cfg.ranksFor([]int{64, 100, 196, 400, 784}, []int{64, 100, 400, 900, 1600})
	deS := Series{Name: "MPI-SIM-DE (modeled)"}
	amS := Series{Name: "MPI-SIM-AM"}
	for _, p := range targets {
		_, de, am, err := hostWorkloads(r, p, inputsFor(p), true)
		if err != nil {
			return nil, fmt.Errorf("targets=%d: %w", p, err)
		}
		dt, err := hp.Runtime(de, 64)
		if err != nil {
			return nil, err
		}
		at, err := hp.Runtime(am, 64)
		if err != nil {
			return nil, err
		}
		deS.Points = append(deS.Points, Point{float64(p), dt})
		amS.Points = append(amS.Points, Point{float64(p), at})
	}
	return &Figure{
		ID: "fig16", Title: fmt.Sprintf("Simulator runtime, 6x6x%d per processor, 64 host processors", kt),
		XLabel: "target processors", YLabel: "runtime (s)",
		Series: []Series{deS, amS},
		Notes:  []string{"DE workload beyond its memory wall is synthesized from the AM run's delay accounting"},
	}, nil
}
