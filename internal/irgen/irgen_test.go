package irgen

import (
	"math"
	"testing"

	"mpisim/internal/compiler"
	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

func TestGeneratedProgramsValidate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p, _ := Program(seed, Config{})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a, ia := Program(7, Config{})
	b, ib := Program(7, Config{})
	if a.String() != b.String() {
		t.Fatal("same seed produced different programs")
	}
	if ia["N"] != ib["N"] || ia["STEPS"] != ib["STEPS"] {
		t.Fatal("same seed produced different inputs")
	}
	c, _ := Program(8, Config{})
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical programs")
	}
}

// Property: every generated program runs deadlock-free under every
// engine with identical results.
func TestGeneratedProgramsEngineEquivalence(t *testing.T) {
	m := machine.IBMSP()
	for seed := int64(0); seed < 12; seed++ {
		p, inputs := Program(seed, Config{})
		base, err := interp.Run(p, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		par, err := interp.Run(p, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed, HostWorkers: 3, RealParallel: true},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if par.Time != base.Time {
			t.Fatalf("seed %d: parallel %g != sequential %g", seed, par.Time, base.Time)
		}
	}
}

// Property (the paper's core invariant): for any generated program, the
// compiler-simplified version with w_i calibrated at the same
// configuration reproduces direct execution closely. The tolerance
// covers the statistical folding of generated data-dependent branches.
func TestGeneratedProgramsAMMatchesDE(t *testing.T) {
	m := machine.IBMSP()
	worst := 0.0
	for seed := int64(0); seed < 20; seed++ {
		p, inputs := Program(seed, Config{})
		res, err := compiler.Compile(p)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		cal := interp.NewCalibration()
		if _, err := interp.Run(res.Timer, interp.Config{
			Config:      mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Detailed},
			Inputs:      inputs,
			Calibration: cal,
		}); err != nil {
			t.Fatalf("seed %d: timer: %v", seed, err)
		}
		de, err := interp.Run(p, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Analytic},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatalf("seed %d: DE: %v", seed, err)
		}
		am, err := interp.Run(res.Simplified, interp.Config{
			Config: mpi.Config{Ranks: 4, Machine: m, Comm: mpi.Analytic, TaskTimes: cal.TaskTimes()},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatalf("seed %d: AM: %v", seed, err)
		}
		e := math.Abs(am.Time-de.Time) / de.Time
		if e > worst {
			worst = e
		}
		if e > 0.10 {
			t.Errorf("seed %d: AM %g vs DE %g, error %.3f > 10%%\n%s",
				seed, am.Time, de.Time, e, res.Summary())
		}
		// The simplified program must also use less memory whenever the
		// original held full-size arrays.
		if am.TotalPeakBytes >= de.TotalPeakBytes {
			t.Errorf("seed %d: AM memory %d >= DE %d",
				seed, am.TotalPeakBytes, de.TotalPeakBytes)
		}
	}
	t.Logf("worst AM-vs-DE error over generated programs: %.4f", worst)
}

// Property: the memory estimate matches actual allocation for generated
// programs.
func TestGeneratedProgramsMemoryEstimate(t *testing.T) {
	m := machine.IBMSP()
	for seed := int64(30); seed < 40; seed++ {
		p, inputs := Program(seed, Config{})
		est, err := interp.MemoryEstimate(p, 3, inputs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := interp.Run(p, interp.Config{
			Config: mpi.Config{Ranks: 3, Machine: m, Comm: mpi.Analytic},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.TotalPeakBytes != est {
			t.Fatalf("seed %d: estimate %d != actual %d", seed, est, rep.TotalPeakBytes)
		}
	}
}

// Property: every generated program round-trips through the text format.
func TestGeneratedProgramsRoundTripThroughText(t *testing.T) {
	for seed := int64(50); seed < 90; seed++ {
		p, _ := Program(seed, Config{})
		text := p.String()
		back, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, text)
		}
		if back.String() != text {
			t.Fatalf("seed %d: round trip changed program", seed)
		}
	}
}

// Property: compilation is deterministic — compiling the same program
// twice yields byte-identical simplified and timer programs.
func TestCompileDeterministic(t *testing.T) {
	for seed := int64(90); seed < 110; seed++ {
		p, _ := Program(seed, Config{})
		a, err := compiler.Compile(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := compiler.Compile(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Simplified.String() != b.Simplified.String() {
			t.Fatalf("seed %d: simplified program not deterministic", seed)
		}
		if a.Timer.String() != b.Timer.String() {
			t.Fatalf("seed %d: timer program not deterministic", seed)
		}
		if a.Graph.String() != b.Graph.String() {
			t.Fatalf("seed %d: condensed graph not deterministic", seed)
		}
	}
}
