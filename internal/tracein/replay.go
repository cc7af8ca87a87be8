package tracein

import (
	"fmt"

	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// Replay runs the trace through the simulation kernel and returns the
// report, exactly as if the traced program had been simulated directly:
// every rank re-issues its recorded API call sequence with nil payloads
// (timing depends only on sizes, so the schedule is identical), while
// communication is re-simulated against cfg's machine, topology,
// placement, fault scenario and limits.
//
// cfg.Ranks defaults to the trace's rank count and must match it when
// set. cfg.Machine defaults to the header's machine model. The
// communication timing model always comes from the header: replay
// reproduces the recorded schedule under the model it was recorded
// with rather than re-modeling it.
func Replay(t *Trace, cfg mpi.Config) (*mpi.Report, error) {
	if t.Header.Ranks != len(t.Calls) {
		return nil, fmt.Errorf("tracein: header declares %d ranks but trace has %d call sequences", t.Header.Ranks, len(t.Calls))
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = t.Header.Ranks
	}
	if cfg.Ranks != t.Header.Ranks {
		return nil, fmt.Errorf("tracein: config has %d ranks but the trace has %d (use Extrapolate to change the rank count)", cfg.Ranks, t.Header.Ranks)
	}
	if cfg.Machine == nil {
		if t.Header.Machine == "" {
			return nil, fmt.Errorf("tracein: no machine model (config has none and the trace header names none)")
		}
		m, err := machine.ByName(t.Header.Machine)
		if err != nil {
			return nil, err
		}
		cfg.Machine = m
	}
	comm, err := t.Header.CommModel()
	if err != nil {
		return nil, err
	}
	cfg.Comm = comm
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.RunProgram(func(r *mpi.Rank) mpi.Program {
		return &replayer{r: r, calls: t.Calls[r.Rank()]}
	})
}

// replayer is one rank's program: a pc into its recorded calls.
type replayer struct {
	r     *mpi.Rank
	calls []mpi.Call
	pc    int
}

// Step implements mpi.Program: re-issue calls until the list ends or one
// waits.
func (p *replayer) Step() bool {
	for p.pc < len(p.calls) {
		c := &p.calls[p.pc]
		p.pc++
		if replayCall(p.r, c); p.r.Waiting() {
			return false
		}
	}
	return true
}

// replayCall re-issues one recorded operation. Payloads are nil
// throughout; recorded sizes carry the timing.
func replayCall(r *mpi.Rank, c *mpi.Call) {
	switch c.Op {
	case "compute":
		r.Compute(c.Sec)
	case "delay":
		r.DelayTask(c.Task, c.Sec)
	case "send":
		r.Send(c.Peer, c.Tag, c.Bytes, nil)
	case "recv":
		r.StartRecv(c.Peer, c.Tag, c.Bytes)
	case "sendrecv":
		r.StartSendrecv(c.Peer, c.Tag, c.Bytes, nil, c.Peer2, c.Tag2)
	case "bcast":
		r.StartBcast(c.Root, nil, c.Bytes)
	case "reduce":
		r.StartReduce(c.Root, nil, c.Bytes, mpi.OpSum)
	case "allreduce":
		r.StartAllreduce(nil, c.Bytes, mpi.OpSum)
	case "barrier":
		r.StartBarrier()
	case "gather":
		r.StartGather(c.Root, nil, c.Bytes)
	case "scatter":
		if c.Sizes != nil {
			r.StartScatterSizes(c.Root, c.Sizes, c.Bytes)
		} else {
			r.StartScatter(c.Root, nil, c.Bytes)
		}
	case "allgather":
		r.StartAllgather(nil, c.Bytes)
	case "alltoall":
		if c.Sizes != nil {
			r.StartAlltoallSizes(c.Sizes, c.Bytes)
		} else {
			r.StartAlltoall(nil, c.Bytes)
		}
	default:
		panic(fmt.Sprintf("tracein: unknown op %q reached replay (parser must reject it)", c.Op))
	}
}
