package tracein

// The reference extrapolation: Extrapolate as it was before it folded —
// every target rank cloned from its source rank into a per-rank list —
// kept as the oracle TestExtrapolateMatchesReference holds the folding
// one to. Only the input changed: the source's per-rank calls are its
// expansion.

import (
	"fmt"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/symexpr"
)

// RefExtrapolate is Extrapolate as the reference computes it: the
// header and every target rank's calls.
func RefExtrapolate(t *Trace, opts ExtrapolateOptions) (Header, [][]mpi.Call, error) {
	p0 := t.Header.Ranks
	p := opts.Ranks
	srcCalls := make([][]mpi.Call, p0)
	for r := range srcCalls {
		srcCalls[r] = t.CallsOf(r)
	}
	if p < p0 || p%p0 != 0 {
		return Header{}, nil, fmt.Errorf("tracein: extrapolation target %d must be a multiple of the trace's %d ranks", p, p0)
	}
	if p > MaxRanks {
		return Header{}, nil, fmt.Errorf("tracein: extrapolation target %d exceeds the supported maximum %d", p, MaxRanks)
	}
	warn := opts.Warn
	if warn == nil {
		warn = func(string, ...interface{}) {}
	}

	inputs := make(map[string]float64, len(t.Header.Inputs)+len(opts.Inputs))
	for k, v := range t.Header.Inputs {
		inputs[k] = v
	}
	for k, v := range opts.Inputs {
		inputs[k] = v
	}

	// Parse each task's scaling function once; failures degrade that
	// task to factor 1.
	scales := make(map[string]symexpr.Expr, len(t.Header.TaskScale))
	for task, src := range t.Header.TaskScale {
		e, err := ir.ParseExpr(src)
		if err != nil {
			warn("tracein: task %s: unparseable scaling function %q: %v (delays replay unscaled)", task, src, err)
			continue
		}
		se, err := ir.ToSym(e)
		if err != nil {
			warn("tracein: task %s: scaling function %q is not closed-form: %v (delays replay unscaled)", task, src, err)
			continue
		}
		scales[task] = se
	}
	warned := map[string]bool{}

	hdr := t.Header
	hdr.Ranks = p
	hdr.ExtrapolatedFrom = p0
	if len(inputs) > 0 {
		hdr.Inputs = inputs
	}
	out := make([][]mpi.Call, p)

	half := p0 / 2
	for i := 0; i < p; i++ {
		s := i % p0
		envOld := scaleEnv(t.Header.Inputs, p0, s)
		envNew := scaleEnv(inputs, p, i)
		// Minimal-signed-residue peer remap around the larger ring.
		remap := func(peer int) int {
			if peer < 0 {
				return peer // receive wildcard
			}
			d := ((peer-s+half)%p0+p0)%p0 - half
			np := (i + d) % p
			if np < 0 {
				np += p
			}
			return np
		}
		factors := map[string]float64{}
		src := srcCalls[s]
		calls := make([]mpi.Call, len(src))
		for j, c := range src {
			switch c.Op {
			case "delay":
				if c.Task != "" {
					f, ok := factors[c.Task]
					if !ok {
						f = taskFactor(scales, c.Task, envOld, envNew, warn, warned)
						factors[c.Task] = f
					}
					c.Sec *= f
				}
			case "send", "recv":
				c.Peer = remap(c.Peer)
			case "sendrecv":
				c.Peer = remap(c.Peer)
				c.Peer2 = remap(c.Peer2)
			case "scatter":
				if c.Sizes != nil {
					if i == c.Root {
						c.Sizes = tileSizes(c.Sizes, p)
					} else {
						// Clones of the root-source rank are not the root in
						// the larger world; their size vector is meaningless
						// (and the canonical format rejects it).
						c.Sizes = nil
					}
				}
			case "alltoall":
				if c.Sizes != nil {
					c.Sizes = tileSizes(c.Sizes, p)
				}
			}
			calls[j] = c
		}
		out[i] = calls
	}
	return hdr, out, nil
}
