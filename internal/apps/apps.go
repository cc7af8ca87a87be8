// Package apps defines the paper's four workloads as IR programs:
//
//   - Tomcatv — the SPEC92 mesh-generation benchmark, in the (*,BLOCK)
//     HPF distribution compiled to MPI (paper §4.1): column-block
//     decomposition, per-iteration halo exchange of boundary columns,
//     residual reduction, local line solves.
//   - Sweep3D — the DOE ASCI wavefront kernel: 2D process decomposition,
//     8 octant sweeps pipelined in k-blocks, including the data-dependent
//     flux-fixup branch the paper discusses (§3.1).
//   - NAS SP — an ADI-style scalar-pentadiagonal solver on a square
//     process grid with pipelined line solves in x and y and grid sizes
//     stored in an array (the executable-scaling-function case of §3.3).
//   - SAMPLE — the synthetic communication kernel with wavefront and
//     nearest-neighbour patterns and a tunable computation/communication
//     ratio (§4.2).
//
// Every program is written once; the compiler derives the simplified and
// timer variants, exactly as dhpf does in the paper.
package apps

import (
	"fmt"
	"sort"

	"mpisim/internal/ir"
)

// Spec couples a program with an input builder for the registry used by
// the command-line tools.
type Spec struct {
	Name    string
	Build   func() *ir.Program
	Default func(ranks int) map[string]float64
	// RankRule refuses a rank count the program cannot run on, which
	// Default must not be called with; nil accepts every count.
	RankRule func(ranks int) error
	// Describe explains the input parameters.
	Describe string
}

// CheckRanks applies the spec's rank rule.
func (s Spec) CheckRanks(ranks int) error {
	if s.RankRule == nil {
		return nil
	}
	return s.RankRule(ranks)
}

// Registry returns all applications keyed by name.
func Registry() map[string]Spec {
	return map[string]Spec{
		"tomcatv": {
			Name:     "tomcatv",
			Build:    Tomcatv,
			Default:  func(int) map[string]float64 { return TomcatvInputs(256, 3) },
			Describe: "N (grid side), ITER (time steps)",
		},
		"sweep3d": {
			Name:  "sweep3d",
			Build: Sweep3D,
			Default: func(ranks int) map[string]float64 {
				npx, npy := ProcGrid(ranks)
				return Sweep3DInputs(4, 4, 40, 10, npx, npy)
			},
			Describe: "IT,JT,KT (per-proc grid), MK (k-block), NPX,NPY (proc grid)",
		},
		"nassp": {
			Name:  "nassp",
			Build: NASSP,
			Default: func(ranks int) map[string]float64 {
				q := SquareSide(ranks)
				return NASSPInputs(32, 2, q)
			},
			RankRule: func(ranks int) error {
				if _, ok := squareSide(ranks); !ok {
					return fmt.Errorf("NAS SP needs a square rank count (P = Q*Q), got %d", ranks)
				}
				return nil
			},
			Describe: "NX (grid side), STEPS, Q (proc grid side, P=Q*Q)",
		},
		"sample": {
			Name:  "sample",
			Build: Sample,
			Default: func(ranks int) map[string]float64 {
				npx, npy := ProcGrid(ranks)
				return SampleInputs(PatternWavefront, 20000, 1000, 10, npx, npy)
			},
			Describe: "PATTERN (1=wavefront,2=nearest-neighbour), WORK, MSG, ITERS, NPX, NPY",
		},
	}
}

// Names returns the registered application names, sorted.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ProcGrid factors ranks into the most square NPX x NPY grid.
func ProcGrid(ranks int) (npx, npy int) {
	npx = 1
	for f := 1; f*f <= ranks; f++ {
		if ranks%f == 0 {
			npx = f
		}
	}
	return npx, ranks / npx
}

// SquareSide returns the integer square root of ranks, panicking unless
// ranks is a perfect square (NAS SP requires square process grids).
func SquareSide(ranks int) int {
	q, ok := squareSide(ranks)
	if !ok {
		panic(fmt.Sprintf("apps: NAS SP needs a square rank count, got %d", ranks))
	}
	return q
}

func squareSide(ranks int) (int, bool) {
	for q := 1; q*q <= ranks; q++ {
		if q*q == ranks {
			return q, true
		}
	}
	return 0, false
}

// Shared IR shorthand used by the program definitions.
var (
	myid = ir.S(ir.BuiltinMyID)
	nprc = ir.S(ir.BuiltinP)
	one  = ir.N(1)
	zero = ir.N(0)
	two  = ir.N(2)
)

// and returns the 0/1 conjunction of two truth-valued expressions.
func and(a, b ir.Expr) ir.Expr { return ir.Mul(a, b) }
