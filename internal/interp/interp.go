// Package interp executes IR programs on the simulated MPI library.
//
// It is the reproduction's equivalent of running the generated MPI code
// under MPI-Sim: the computational statements are directly executed (real
// array arithmetic, with an abstract-operation count converted to target
// time through the machine model), communication statements are trapped
// and simulated in detail, and the compiler-emitted constructs (Delay,
// ReadTaskTimes, Timed) implement the paper's simplified and
// timer-instrumented program variants.
package interp

import (
	"math"
	"sort"
	"sync"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
)

// Config controls one interpretation run: the simulation configuration
// (ranks, machine, communication model, engine, collection switches,
// hooks, faults, limits — mpi.Config, handed to mpi.NewWorld as is) plus
// what only the interpreter consumes.
type Config struct {
	mpi.Config
	// Inputs supplies the program's ReadInput values (problem sizes).
	Inputs map[string]float64
	// Calibration, when non-nil, collects w_i measurements from Timed
	// regions (the timer-instrumented program of Figure 2).
	Calibration *Calibration
	// BranchProfile, when non-nil, records the taken frequency of every
	// If statement executed (the paper's profiling support for the
	// statistical folding of eliminated branches, §3.1).
	BranchProfile *BranchProfile
}

// Run executes the program, every rank on its own, and returns the
// simulation report.
func Run(p *ir.Program, cfg Config) (*mpi.Report, error) { return RunClasses(p, cfg, nil) }

// Calibration accumulates per-task timing from Timed regions across all
// ranks of a calibration run. w_i is total elapsed time divided by total
// scaling units, i.e. the mean cost of one unit, which is exactly the
// paper's measurement of task-time parameters on a reference
// configuration.
type Calibration struct {
	mu  sync.Mutex
	acc map[string]*calEntry
}

type calEntry struct {
	seconds float64
	units   float64
	samples int64
	// Welford online moments over the per-sample unit costs
	// (seconds/units of each region execution), for fit residuals.
	n        int64
	mean, m2 float64
	min, max float64
}

// NewCalibration returns an empty collector.
func NewCalibration() *Calibration {
	return &Calibration{acc: map[string]*calEntry{}}
}

// Add records one timed region execution.
func (c *Calibration) Add(id string, seconds, units float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.acc[id]
	if e == nil {
		e = &calEntry{}
		c.acc[id] = e
	}
	e.seconds += seconds
	e.units += units
	e.samples++
	if units > 0 {
		v := seconds / units
		e.n++
		d := v - e.mean
		e.mean += d / float64(e.n)
		e.m2 += d * (v - e.mean)
		if e.n == 1 || v < e.min {
			e.min = v
		}
		if e.n == 1 || v > e.max {
			e.max = v
		}
	}
}

// TaskTimes returns the measured w_i table, keyed by task-time parameter
// name, directly usable as Config.TaskTimes for a simplified-program run.
func (c *Calibration) TaskTimes() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.acc))
	for id, e := range c.acc {
		if e.units > 0 {
			out[id] = e.seconds / e.units
		} else {
			out[id] = 0
		}
	}
	return out
}

// IDs returns the recorded task identifiers, sorted.
func (c *Calibration) IDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.acc))
	for id := range c.acc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Samples returns how many region executions were recorded for id.
func (c *Calibration) Samples(id string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.acc[id]; e != nil {
		return e.samples
	}
	return 0
}

// CalStat summarizes the quality of one coefficient's fit: the fitted
// w_i (total seconds / total units), the per-sample spread of unit
// costs, and the sample count. RelStddev is the coefficient of
// variation of the per-sample unit cost — the fit residual a
// calibration report surfaces (large values mean w_i is not a constant
// and the simplified program's linear model is suspect for that task).
type CalStat struct {
	ID        string  `json:"id"`
	W         float64 `json:"w"`
	Samples   int64   `json:"samples"`
	Mean      float64 `json:"mean"`
	Stddev    float64 `json:"stddev"`
	RelStddev float64 `json:"rel_stddev"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
}

// Stats returns per-coefficient fit statistics, sorted by id.
func (c *Calibration) Stats() []CalStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CalStat, 0, len(c.acc))
	for id, e := range c.acc {
		s := CalStat{ID: id, Samples: e.samples, Mean: e.mean, Min: e.min, Max: e.max}
		if e.units > 0 {
			s.W = e.seconds / e.units
		}
		if e.n > 1 {
			s.Stddev = math.Sqrt(e.m2 / float64(e.n-1))
			if s.Mean != 0 {
				s.RelStddev = s.Stddev / s.Mean
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BranchProfile accumulates branch-taken counts across all ranks of a
// profiling run, keyed by the If statement's identity.
type BranchProfile struct {
	mu     sync.Mutex
	counts map[*ir.If]*branchCount
}

type branchCount struct{ taken, total int64 }

// NewBranchProfile returns an empty collector.
func NewBranchProfile() *BranchProfile {
	return &BranchProfile{counts: map[*ir.If]*branchCount{}}
}

// merge adds one rank's counts, kept per branch ordinal while the rank
// ran, to the profile: one lock per rank instead of one per executed If.
func (bp *BranchProfile) merge(ifs []*ir.If, counts []branchCount) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i, n := range counts {
		if n.total == 0 {
			continue
		}
		c := bp.counts[ifs[i]]
		if c == nil {
			c = &branchCount{}
			bp.counts[ifs[i]] = c
		}
		c.taken += n.taken
		c.total += n.total
	}
}

// Probabilities returns the measured taken probability per branch,
// usable as the compiler's branch-probability table.
func (bp *BranchProfile) Probabilities() map[*ir.If]float64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make(map[*ir.If]float64, len(bp.counts))
	for s, c := range bp.counts {
		if c.total > 0 {
			out[s] = float64(c.taken) / float64(c.total)
		}
	}
	return out
}

// Branches returns how many distinct branches were observed.
func (bp *BranchProfile) Branches() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.counts)
}
