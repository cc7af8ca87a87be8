package tables

import (
	"fmt"
	"math"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
)

// ranksFor picks the scaled or full rank list and applies RankCap.
func (cfg Config) ranksFor(scaled, full []int) []int {
	list := scaled
	if cfg.Full {
		list = full
	}
	if cfg.RankCap <= 0 {
		return list
	}
	var out []int
	for _, r := range list {
		if r <= cfg.RankCap {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		out = list[:1]
	}
	return out
}

func (cfg Config) pick(scaled, full int) int {
	if cfg.Full {
		return full
	}
	return scaled
}

// machineFor applies the experiment-wide topology/placement overrides
// to a freshly constructed machine model.
func machineFor(m *machine.Model, cfg Config) *machine.Model {
	if cfg.Topology != "" {
		m.Topology = cfg.Topology
	}
	if cfg.Placement != "" {
		m.Placement = cfg.Placement
	}
	return m
}

// newRunner builds a calibrated-capable runner.
func newRunner(prog *ir.Program, m *machine.Model, cfg Config) (*core.Runner, error) {
	r, err := core.NewRunner(prog, machineFor(m, cfg))
	if err != nil {
		return nil, err
	}
	r.HostWorkers = cfg.HostWorkers
	r.RealParallel = cfg.HostWorkers > 1
	r.Metrics = cfg.Metrics
	r.Tracer = cfg.Tracer
	r.Timeline = cfg.Timeline
	r.RunInfo = cfg.RunInfo
	return r, nil
}

// --- Figures 3-6: validation curves -------------------------------------

// validationCurves runs measured / DE / AM over a rank list.
func validationCurves(r *core.Runner, inputsFor func(int) map[string]float64,
	ranks []int, calRanks int, withDE bool) ([]Series, error) {
	if _, err := r.Calibrate(calRanks, inputsFor(calRanks)); err != nil {
		return nil, err
	}
	meas := Series{Name: "measured"}
	de := Series{Name: "MPI-SIM-DE"}
	am := Series{Name: "MPI-SIM-AM"}
	for _, p := range ranks {
		v, err := r.Validate(p, inputsFor(p), calRanks, inputsFor(calRanks))
		if err != nil {
			return nil, fmt.Errorf("ranks=%d: %w", p, err)
		}
		meas.Points = append(meas.Points, Point{float64(p), v.MeasuredTime})
		de.Points = append(de.Points, Point{float64(p), v.DETime})
		am.Points = append(am.Points, Point{float64(p), v.AMTime})
	}
	if withDE {
		return []Series{meas, am, de}, nil
	}
	return []Series{meas, am}, nil
}

// tomcatvInputsFor returns the fixed-size Tomcatv input builder.
func (cfg Config) tomcatvInputsFor() (func(int) map[string]float64, string) {
	n := cfg.pick(192, 2048)
	iter := cfg.pick(2, 100)
	return func(int) map[string]float64 { return apps.TomcatvInputs(n, iter) },
		fmt.Sprintf("%dx%d, %d iterations", n, n, iter)
}

// Figure3 validates Tomcatv: measured vs MPI-SIM-DE vs MPI-SIM-AM over
// processor counts (paper: 2048x2048 on the IBM SP, 4-64 processors).
func Figure3(cfg Config) (*Figure, error) {
	r, err := newRunner(apps.Tomcatv(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	inputsFor, desc := cfg.tomcatvInputsFor()
	series, err := validationCurves(r, inputsFor,
		cfg.ranksFor([]int{4, 8, 16, 32}, []int{4, 8, 16, 32, 64}), 16, true)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig3", Title: "Validation of MPI-Sim for Tomcatv (" + desc + ", IBM SP model)",
		XLabel: "processors", YLabel: "time (s)", Series: series,
		Notes: []string{"w_i calibrated at 16 processors, reused for all points (as in the paper)"},
	}, nil
}

// sweepFixedTotalInputs returns inputs for a fixed total grid divided
// over the process grid (the paper's 150^3 study).
func sweepFixedTotalInputs(total int, ranks int) map[string]float64 {
	npx, npy := apps.ProcGrid(ranks)
	it := (total + npx - 1) / npx
	jt := (total + npy - 1) / npy
	return apps.Sweep3DInputs(it, jt, total, sweepBlockDepth(total), npx, npy)
}

// sweepBlockDepth is the k-block depth MK of a Sweep3D run over kt
// planes: the largest divisor of kt not above a quarter of it (kt/4 when
// 4 divides kt, 51 for 255, 30 for 150), and 1 below four planes. The
// program sweeps ceil(KT/MK) whole blocks, so a depth that does not
// divide kt runs its last block past the k extent.
func sweepBlockDepth(kt int) int {
	mk := max(kt/4, 1)
	for kt%mk != 0 {
		mk--
	}
	return mk
}

// Figure4 validates Sweep3D at fixed total problem size (paper: 150^3,
// up to 64 processors).
func Figure4(cfg Config) (*Figure, error) {
	r, err := newRunner(apps.Sweep3D(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	total := cfg.pick(36, 150)
	inputsFor := func(ranks int) map[string]float64 { return sweepFixedTotalInputs(total, ranks) }
	series, err := validationCurves(r, inputsFor,
		cfg.ranksFor([]int{4, 8, 16, 32, 64}, []int{4, 8, 16, 32, 64}), 16, true)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID: "fig4", Title: fmt.Sprintf("Validation of Sweep3D, fixed total size %d^3 (IBM SP model)", total),
		XLabel: "processors", YLabel: "time (s)", Series: series,
	}, nil
}

// spInputsFor builds class inputs for NAS SP.
func (cfg Config) spInputsFor(classC bool) (func(int) map[string]float64, string) {
	nx := cfg.pick(40, 64) // "class A"
	if classC {
		nx = cfg.pick(80, 162) // "class C"
	}
	steps := cfg.pick(2, 50)
	return func(ranks int) map[string]float64 {
		return apps.NASSPInputs(nx, steps, apps.SquareSide(ranks))
	}, fmt.Sprintf("%d^3, %d steps", nx, steps)
}

// Figure5 validates NAS SP class A (measured vs MPI-SIM-AM; paper
// Figure 5). Task times come from the 16-processor class A run.
func Figure5(cfg Config) (*Figure, error) {
	return spValidation(cfg, false, "fig5")
}

// Figure6 validates NAS SP class C with task times still calibrated on
// class A (the paper's headline cross-class projection).
func Figure6(cfg Config) (*Figure, error) {
	return spValidation(cfg, true, "fig6")
}

func spValidation(cfg Config, classC bool, id string) (*Figure, error) {
	r, err := newRunner(apps.NASSP(), machine.IBMSP(), cfg)
	if err != nil {
		return nil, err
	}
	// Calibration is always on class A at 16 processors (paper §4.2).
	calInputsFor, _ := cfg.spInputsFor(false)
	if _, err := r.Calibrate(16, calInputsFor(16)); err != nil {
		return nil, err
	}
	inputsFor, desc := cfg.spInputsFor(classC)
	ranks := cfg.ranksFor([]int{4, 9, 16, 25}, []int{4, 9, 16, 25, 36, 64})
	meas := Series{Name: "measured"}
	am := Series{Name: "MPI-SIM-AM"}
	for _, p := range ranks {
		mRep, err := r.Run(core.Measured, p, inputsFor(p))
		if err != nil {
			return nil, err
		}
		aRep, err := r.Run(core.Abstract, p, inputsFor(p))
		if err != nil {
			return nil, err
		}
		meas.Points = append(meas.Points, Point{float64(p), mRep.Time})
		am.Points = append(am.Points, Point{float64(p), aRep.Time})
	}
	cls := "A"
	if classC {
		cls = "C"
	}
	return &Figure{
		ID: id, Title: fmt.Sprintf("Validation for NAS SP class %s (%s, IBM SP model)", cls, desc),
		XLabel: "processors", YLabel: "runtime (s)", Series: []Series{meas, am},
		Notes: []string{"task times calibrated on class A at 16 processors"},
	}, nil
}

// Figure7 summarizes the percent error of MPI-SIM-AM against measured
// for the three applications (paper Figure 7: all within 16%).
func Figure7(cfg Config) (*Figure, error) {
	out := &Figure{
		ID: "fig7", Title: "Percent error of MPI-SIM-AM predictions vs measured",
		XLabel: "processors", YLabel: "% error",
	}
	type app struct {
		name      string
		prog      *ir.Program
		inputsFor func(int) map[string]float64
		ranks     []int
		calRanks  int
	}
	tomIn, _ := cfg.tomcatvInputsFor()
	spIn, _ := cfg.spInputsFor(true)
	spCal, _ := cfg.spInputsFor(false)
	total := cfg.pick(36, 150)
	cases := []app{
		{"Tomcatv", apps.Tomcatv(), tomIn, cfg.ranksFor([]int{4, 16, 32}, []int{4, 8, 16, 32, 64}), 4},
		{"Sweep3D", apps.Sweep3D(), func(r int) map[string]float64 { return sweepFixedTotalInputs(total, r) },
			cfg.ranksFor([]int{4, 16, 64}, []int{4, 16, 64}), 4},
		{"SP, Class C", apps.NASSP(), spIn, cfg.ranksFor([]int{4, 16}, []int{4, 16, 36, 64}), 16},
	}
	for _, a := range cases {
		r, err := newRunner(a.prog, machine.IBMSP(), cfg)
		if err != nil {
			return nil, err
		}
		calIn := a.inputsFor(a.calRanks)
		if a.name == "SP, Class C" {
			calIn = spCal(a.calRanks)
		}
		if _, err := r.Calibrate(a.calRanks, calIn); err != nil {
			return nil, err
		}
		s := Series{Name: a.name}
		for _, p := range a.ranks {
			v, err := r.Validate(p, a.inputsFor(p), a.calRanks, calIn)
			if err != nil {
				return nil, fmt.Errorf("%s ranks=%d: %w", a.name, p, err)
			}
			s.Points = append(s.Points, Point{float64(p), 100 * v.AMError})
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// --- Figures 8-9: SAMPLE on the Origin 2000 ------------------------------

// sampleSweep runs the SAMPLE kernel over a computation-granularity
// sweep and returns, per pattern, (ratio, measured, predicted, %diff).
func sampleSweep(cfg Config) (map[string][][4]float64, error) {
	m := machineFor(machine.Origin2000(), cfg)
	ranks := 8
	works := []int{200, 1000, 5000, 20000, 100000, 400000}
	if cfg.Full {
		works = []int{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000}
	}
	out := map[string][][4]float64{}
	for _, pat := range []struct {
		name string
		id   int
	}{{"wavefront", apps.PatternWavefront}, {"nearest-neighbour", apps.PatternNearestNeighbour}} {
		r, err := core.NewRunner(apps.Sample(), m)
		if err != nil {
			return nil, err
		}
		r.Metrics = cfg.Metrics
		r.Tracer = cfg.Tracer
		r.Timeline = cfg.Timeline
		r.RunInfo = cfg.RunInfo
		for _, work := range works {
			inputs := apps.SampleInputs(pat.id, work, 500, cfg.pick(6, 20), 2, 4)
			r.TaskTimes = nil
			v, err := r.Validate(ranks, inputs, ranks, inputs)
			if err != nil {
				return nil, fmt.Errorf("%s work=%d: %w", pat.name, work, err)
			}
			// Communication-to-computation ratio measured from the run.
			var comm, comp float64
			for _, rs := range v.MeasuredRep.Ranks {
				comm += float64(rs.BlockedTime) + float64(rs.CommCPUTime)
				comp += float64(rs.ComputeTime) - float64(rs.CommCPUTime)
			}
			ratio := comm / comp
			diff := 100 * (v.AMTime - v.MeasuredTime) / v.MeasuredTime
			out[pat.name] = append(out[pat.name],
				[4]float64{ratio, v.MeasuredTime, v.AMTime, diff})
		}
	}
	return out, nil
}

// Figure8 plots SAMPLE measured vs predicted execution time against the
// communication-to-computation ratio for both patterns (Origin 2000).
func Figure8(cfg Config) (*Figure, error) {
	data, err := sampleSweep(cfg)
	if err != nil {
		return nil, err
	}
	out := &Figure{
		ID: "fig8", Title: "Validation of SAMPLE on the Origin 2000 model",
		XLabel: "comm/comp ratio", YLabel: "time (s)",
		Notes: []string{"8 ranks on a 2x4 grid; ratio measured from the detailed run"},
	}
	for _, name := range []string{"wavefront", "nearest-neighbour"} {
		meas := Series{Name: name + "-measured"}
		pred := Series{Name: name + "-MPI-SIM-AM"}
		for _, row := range data[name] {
			x := roundSig(row[0], 2)
			meas.Points = append(meas.Points, Point{x, row[1]})
			pred.Points = append(pred.Points, Point{x, row[2]})
		}
		out.Series = append(out.Series, meas, pred)
	}
	return out, nil
}

// Figure9 plots the percent variation of predicted from measured time as
// the communication-to-computation ratio grows (paper: accurate when
// computation dominates, up to ~15% when communication dominates).
func Figure9(cfg Config) (*Figure, error) {
	data, err := sampleSweep(cfg)
	if err != nil {
		return nil, err
	}
	out := &Figure{
		ID: "fig9", Title: "Effect of communication-to-computation ratio on SAMPLE predictions",
		XLabel: "comm/comp ratio", YLabel: "% difference",
	}
	for _, name := range []string{"wavefront", "nearest-neighbour"} {
		s := Series{Name: name}
		for _, row := range data[name] {
			s.Points = append(s.Points, Point{roundSig(row[0], 2), row[3]})
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

func roundSig(x float64, digits int) float64 {
	if x == 0 {
		return 0
	}
	mag := math.Pow(10, float64(digits-1)-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}
