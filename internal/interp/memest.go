package interp

import (
	"fmt"

	"mpisim/internal/ir"
)

// MemoryEstimate returns the total bytes of target-program array state a
// direct-execution simulation of the program would allocate across all
// ranks, by evaluating the array dimension expressions per rank without
// running the program. It reproduces how the paper reasons about the
// memory wall of MPI-SIM-DE for configurations too large to actually run
// (Table 1, Figures 10 and 11).
func MemoryEstimate(p *ir.Program, ranks int, inputs map[string]float64) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	cp, err := compile(p, &Config{Inputs: inputs})
	if err != nil {
		return 0, err
	}
	var total int64
	f := &frame{cp: cp, regs: make([]float64, int(cp.tempBase+cp.numTemps))}
	for rank := 0; rank < ranks; rank++ {
		b, ok := f.arrayBytes(ranks, rank)
		if !ok {
			return 0, fmt.Errorf("interp: the array extents of rank %d fault", rank)
		}
		total += b
	}
	return total, nil
}
