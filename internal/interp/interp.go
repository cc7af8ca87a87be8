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
	"fmt"
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

// Run executes the program and returns the simulation report.
func Run(p *ir.Program, cfg Config) (*mpi.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp, err := compile(p)
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	return world.Run(func(r *mpi.Rank) {
		f := newFrame(cp, r, &cfg)
		for _, st := range cp.body {
			st(f)
		}
		f.flush()
	})
}

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

// Record adds one branch execution.
func (bp *BranchProfile) Record(s *ir.If, taken bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	c := bp.counts[s]
	if c == nil {
		c = &branchCount{}
		bp.counts[s] = c
	}
	c.total++
	if taken {
		c.taken++
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

// frame is the per-rank execution state.
type frame struct {
	cp      *compiled
	r       *mpi.Rank
	cfg     *Config
	scalars []float64
	arrays  []*arrayVal
	// ops is the pending abstract-operation count, flushed to simulated
	// compute time at communication and timer boundaries.
	ops float64
	// workingSet is the rank's total allocated array bytes; it selects
	// the machine's cache factor.
	workingSet int64
}

type arrayVal struct {
	name  string
	data  []float64
	dims  []int
	bytes int64
}

func newFrame(cp *compiled, r *mpi.Rank, cfg *Config) *frame {
	f := &frame{
		cp:      cp,
		r:       r,
		cfg:     cfg,
		scalars: make([]float64, cp.numScalars),
		arrays:  make([]*arrayVal, len(cp.arrays)),
	}
	// Bind built-ins and inputs before evaluating array dimensions, as
	// Fortran binds its parameter constants before declarations.
	f.scalars[cp.slotP] = float64(r.Size())
	f.scalars[cp.slotMyID] = float64(r.Rank())
	//simvet:allow maprange each input binds its own scalar slot; order-independent
	for name, v := range cfg.Inputs {
		if slot, ok := cp.slots[name]; ok {
			f.scalars[slot] = v
		}
	}
	for i, ad := range cp.arrays {
		dims := make([]int, len(ad.dimFns))
		total := 1
		for d, fn := range ad.dimFns {
			v := int(fn(f))
			if v < 1 {
				v = 1
			}
			dims[d] = v
			total *= v
		}
		bytes := int64(total) * ad.elem
		f.arrays[i] = &arrayVal{name: ad.name, data: make([]float64, total), dims: dims, bytes: bytes}
		f.workingSet += bytes
		r.TrackAlloc(bytes)
	}
	return f
}

// flush converts pending abstract operations into simulated compute time.
func (f *frame) flush() {
	if f.ops == 0 {
		return
	}
	f.r.Compute(f.cfg.Machine.ComputeTime(f.ops, f.workingSet))
	f.ops = 0
}

// linear computes the row-major linear index for 1-based subscripts,
// bounds-checked.
func (a *arrayVal) linear(idx []int) int {
	lin := 0
	for d, v := range idx {
		if v < 1 || v > a.dims[d] {
			panic(fmt.Sprintf("interp: index %d out of bounds [1,%d] in dim %d of %s",
				v, a.dims[d], d+1, a.name))
		}
		lin = lin*a.dims[d] + (v - 1)
	}
	return lin
}

// sectionElems returns the element count of a section given evaluated
// bounds; empty ranges yield zero.
func sectionElems(bounds [][2]int) int {
	total := 1
	for _, b := range bounds {
		n := b[1] - b[0] + 1
		if n <= 0 {
			return 0
		}
		total *= n
	}
	return total
}

// pack copies a section into a fresh slice (snapshot semantics: the
// simulated network must not alias rank-local state).
func (a *arrayVal) pack(bounds [][2]int) []float64 {
	n := sectionElems(bounds)
	out := make([]float64, 0, n)
	if n == 0 {
		return out
	}
	idx := make([]int, len(bounds))
	for d := range bounds {
		lo := bounds[d][0]
		if lo < 1 || bounds[d][1] > a.dims[d] {
			panic(fmt.Sprintf("interp: section [%d:%d] out of bounds [1,%d] in dim %d of %s",
				bounds[d][0], bounds[d][1], a.dims[d], d+1, a.name))
		}
		idx[d] = lo
	}
	for {
		out = append(out, a.data[a.linear(idx)])
		// Odometer increment, last dimension fastest.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= bounds[d][1] {
				break
			}
			idx[d] = bounds[d][0]
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}

// unpack copies received data into a section.
func (a *arrayVal) unpack(bounds [][2]int, data []float64) {
	n := sectionElems(bounds)
	if n == 0 {
		return
	}
	if len(data) != n {
		panic(fmt.Sprintf("interp: received %d elements for a %d-element section of %s",
			len(data), n, a.name))
	}
	idx := make([]int, len(bounds))
	for d := range bounds {
		if bounds[d][0] < 1 || bounds[d][1] > a.dims[d] {
			panic(fmt.Sprintf("interp: section [%d:%d] out of bounds [1,%d] in dim %d of %s",
				bounds[d][0], bounds[d][1], a.dims[d], d+1, a.name))
		}
		idx[d] = bounds[d][0]
	}
	for i := 0; ; i++ {
		a.data[a.linear(idx)] = data[i]
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= bounds[d][1] {
				break
			}
			idx[d] = bounds[d][0]
			d--
		}
		if d < 0 {
			break
		}
	}
}
