package tracein

import (
	"fmt"

	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/symexpr"
)

// ExtrapolateOptions configure a weak-scaling extrapolation.
type ExtrapolateOptions struct {
	// Ranks is the target rank count; it must be a positive multiple of
	// the source trace's rank count.
	Ranks int
	// Inputs override or extend the recorded problem-size inputs for
	// the scaled run (weak scaling typically grows the global problem
	// with the machine; per-rank inputs stay put).
	Inputs map[string]float64
	// Warn receives diagnostics about scaling functions that could not
	// be applied (nil discards them). Each affected task is reported
	// once; its delays then replay unscaled.
	Warn func(format string, args ...interface{})
}

// Extrapolate clones a recorded trace from its P0 ranks to a larger
// rank count P (a multiple of P0), the weak-scaling prediction move of
// trace-driven simulators:
//
//   - Target rank i replays the call sequence of source rank i mod P0.
//   - Point-to-point peers are remapped by relative offset: the
//     minimal signed residue δ of (peer − src) mod P0 is re-applied
//     around the larger ring, preserving ring, stencil and fan-in
//     block structure. (Offsets of exactly P0/2 are ambiguous and
//     resolve to −P0/2.) Receive wildcards stay wildcards.
//   - Collective roots are kept absolute (root < P0 ≤ P) and the
//     collectives naturally widen to all P ranks — the true source of
//     weak-scaling communication loss.
//   - Per-task delays are rescaled by the ratio of the task's symbolic
//     scaling function (Header.TaskScale) evaluated at the new and old
//     environments {inputs..., P, myid}. Tasks without a resolvable
//     scaling function replay unscaled, with a warning.
//   - Message and collective payload sizes are kept (the weak-scaling
//     assumption: per-rank data volume is constant); per-destination
//     size vectors are tiled periodically.
//
// Each target rank's sequence is built in one reused buffer and folded
// as it is made, so the result holds the target's classes, never P
// sequences.
func Extrapolate(t *Trace, opts ExtrapolateOptions) (*Trace, error) {
	p0 := t.Header.Ranks
	p := opts.Ranks
	if p0 < 1 || p0 != len(t.class) {
		return nil, fmt.Errorf("tracein: malformed source trace (%d ranks, %d mapped)", p0, len(t.class))
	}
	if p < p0 || p%p0 != 0 {
		return nil, fmt.Errorf("tracein: extrapolation target %d must be a multiple of the trace's %d ranks", p, p0)
	}
	if p > MaxRanks {
		return nil, fmt.Errorf("tracein: extrapolation target %d exceeds the supported maximum %d", p, MaxRanks)
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

	half := p0 / 2
	return fold(hdr, nil, func(i int, buf []mpi.Call) []mpi.Call {
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
		calls := t.appendCalls(buf, s)
		for j := range calls {
			c := &calls[j]
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
		}
		return calls
	}), nil
}

// scaleEnv builds the evaluation environment of a scaling function:
// the problem inputs plus the builtin P and myid.
func scaleEnv(inputs map[string]float64, p, myid int) symexpr.Env {
	env := make(symexpr.Env, len(inputs)+2)
	for k, v := range inputs {
		env[k] = v
	}
	env[ir.BuiltinP] = float64(p)
	env[ir.BuiltinMyID] = float64(myid)
	return env
}

// taskFactor evaluates the delay rescale ratio for one task, degrading
// to 1 (with a once-per-task warning) when the function cannot be
// evaluated or yields a degenerate ratio.
func taskFactor(scales map[string]symexpr.Expr, task string,
	envOld, envNew symexpr.Env,
	warn func(string, ...interface{}), warned map[string]bool) float64 {
	warnOnce := func(format string, args ...interface{}) {
		if !warned[task] {
			warned[task] = true
			warn(format, args...)
		}
	}
	e, ok := scales[task]
	if !ok {
		warnOnce("tracein: task %s: no scaling function recorded (delays replay unscaled)", task)
		return 1
	}
	old, err := e.Eval(envOld)
	if err != nil {
		warnOnce("tracein: task %s: scaling function does not evaluate at the recorded configuration: %v (delays replay unscaled)", task, err)
		return 1
	}
	if old <= 0 {
		warnOnce("tracein: task %s: scaling function is %g at the recorded configuration (delays replay unscaled)", task, old)
		return 1
	}
	next, err := e.Eval(envNew)
	if err != nil {
		warnOnce("tracein: task %s: scaling function does not evaluate at the target configuration: %v (delays replay unscaled)", task, err)
		return 1
	}
	if next < 0 {
		next = 0
	}
	return next / old
}

// tileSizes extends a per-destination size vector to p entries by
// periodic repetition.
func tileSizes(sizes []int64, p int) []int64 {
	out := make([]int64, p)
	for d := range out {
		out[d] = sizes[d%len(sizes)]
	}
	return out
}
