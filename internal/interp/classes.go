package interp

import (
	"mpisim/internal/ir"
	"mpisim/internal/mpi"
)

// RunClasses is Run for a program whose ranks fall into classes
// (check.Partition): rank r with rep[r] >= 0 issues rank rep[r]'s call
// stream, peers shifted by r − rep[r]. Each representative runs once on
// an mpi.Detached rank and its class replays its stream (mpi.Replay),
// holding its own arrays' bytes. A rank is interpreted when rep[r] < 0,
// when its representative faults (the fault is then its own), and when
// its extents fault or put it in another cache regime. cfg.Metrics
// counts the ranks executed and replayed.
func RunClasses(p *ir.Program, cfg Config, rep []int32) (*mpi.Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp, err := compile(p, &cfg)
	if err != nil {
		return nil, err
	}
	world, err := mpi.NewWorld(cfg.Config)
	if err != nil {
		return nil, err
	}
	type stream struct {
		calls []mpi.Call
		bytes int64
	}
	streams := map[int32]stream{} // by representative; none for one that faulted
	bytes := make([]int64, cfg.Ranks)
	var executed, replayed int64
	f := &frame{cp: cp, regs: make([]float64, int(cp.tempBase+cp.numTemps))}
	for i := range bytes {
		k := int32(-1)
		if i < len(rep) {
			k = rep[i]
		}
		if k == int32(i) {
			if calls, b, ok := cp.represent(cfg.Config, i); ok {
				streams[k] = stream{calls, b}
			}
		}
		bytes[i] = -1
		if s, ok := streams[k]; ok {
			if b, ok := f.arrayBytes(cfg.Ranks, i); ok && cfg.Machine.CacheFactor(b) == cfg.Machine.CacheFactor(s.bytes) {
				bytes[i] = b
			}
		}
		if bytes[i] < 0 || k == int32(i) {
			executed++
		} else {
			replayed++
		}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("interp_ranks_executed_total", "ranks the interpreter executed: each class representative once, and every rank that runs on its own").Add(0, executed)
		reg.Counter("interp_ranks_replayed_total", "ranks that replayed their class representative's call stream").Add(0, replayed)
	}
	return world.RunProgram(func(r *mpi.Rank) mpi.Program {
		i := r.Rank()
		if bytes[i] < 0 {
			return newFrame(cp, r)
		}
		r.TrackAlloc(bytes[i])
		return mpi.Replay(r, streams[rep[i]].calls, i-int(rep[i]))
	})
}

// represent executes rank rank on a detached rank, whose receives and
// collectives bring no data (the partition shows its stream reads none),
// and returns its calls and arrays' bytes; ok is false when it faults.
func (cp *compiled) represent(cfg mpi.Config, rank int) (calls []mpi.Call, bytes int64, ok bool) {
	defer func() {
		if recover() != nil {
			calls, bytes, ok = nil, 0, false
		}
	}()
	r := mpi.Detached(cfg, rank)
	f := newFrame(cp, r)
	f.exec()
	return r.CallLog(), f.workingSet, true
}

// arrayBytes is the target memory of rank rank of size ranks: its
// arrays' extents evaluated on f, no data allocated; ok is false where
// they fault, as newFrame would.
func (f *frame) arrayBytes(size, rank int) (total int64, ok bool) {
	defer func() {
		if recover() != nil {
			total, ok = 0, false
		}
	}()
	f.bind(size, rank)
	for i := range f.cp.arrays {
		total += int64(f.extents(&f.cp.arrays[i], nil)) * f.cp.arrays[i].elem
	}
	return total, true
}
