package tracein

import (
	"fmt"

	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// Replay runs the trace through the simulation kernel and returns the
// report, exactly as if the traced program had been simulated directly:
// every rank re-issues its class's recorded API call sequence, shifted
// to it (mpi.Replay), with nil payloads (timing depends only on sizes,
// so the schedule is identical), while communication is re-simulated against cfg's machine, topology,
// placement, fault scenario and limits.
//
// cfg.Ranks defaults to the trace's rank count and must match it when
// set. cfg.Machine defaults to the header's machine model. The
// communication timing model always comes from the header: replay
// reproduces the recorded schedule under the model it was recorded
// with rather than re-modeling it.
func Replay(t *Trace, cfg mpi.Config) (*mpi.Report, error) {
	if t.Header.Ranks != len(t.class) {
		return nil, fmt.Errorf("tracein: header declares %d ranks but the trace maps %d", t.Header.Ranks, len(t.class))
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
		k := t.class[r.Rank()]
		return mpi.Replay(r, t.streams[k], r.Rank()-t.reps[k])
	})
}
