package tracein_test

import (
	"bytes"
	"runtime"
	"testing"

	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// benchBody is a synthetic ring workload: per step, a compute span and
// a neighbor sendrecv; a closing barrier.
func benchBody(p, steps int) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		me := r.Rank()
		next, prev := (me+1)%p, (me-1+p)%p
		for s := 0; s < steps; s++ {
			r.Compute(1e-6)
			r.Sendrecv(next, s, 4096, nil, prev, s)
		}
		r.Barrier()
	}
}

// ringProgram is benchBody in the form the product runs ranks in: a
// resumable mpi.Program, one continuation process per rank.
type ringProgram struct {
	r        *mpi.Rank
	p, steps int
	s        int
	closing  bool
}

func (g *ringProgram) Step() bool {
	r := g.r
	me := r.Rank()
	next, prev := (me+1)%g.p, (me-1+g.p)%g.p
	for g.s < g.steps {
		r.Compute(1e-6)
		r.StartSendrecv(next, g.s, 4096, nil, prev, g.s)
		g.s++
		if r.Waiting() {
			return false
		}
	}
	if !g.closing {
		g.closing = true
		r.StartBarrier()
		if r.Waiting() {
			return false
		}
	}
	return true
}

// BenchmarkTraceReplay compares direct simulation of the workload — a Go
// mpi.Program under World.RunProgram — with replaying its recorded trace
// through the same kernel and the same rank scheduler. ci.sh gates
// replay throughput at no worse than 25% below direct: the trace
// frontend walks a call slice instead of executing the program, so its
// per-event cost must stay in the same regime. The replay row starts
// from a parsed Trace; parse+replay starts from the file's bytes, which
// is what a -tracein user waits for, and ci.sh holds it to 5x direct.
func BenchmarkTraceReplay(b *testing.B) {
	const p, steps = 16, 200
	cfg := mpi.Config{Ranks: p, Machine: machine.IBMSP(), Comm: mpi.Analytic}
	body := benchBody(p, steps)

	rcfg := cfg
	rcfg.RecordCalls = true
	rep, err := mpi.Run(rcfg, body)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := tracein.Record(rep, tracein.Header{
		Machine: "ibmsp",
		Comm:    "analytic",
	})
	if err != nil {
		b.Fatal(err)
	}

	var file bytes.Buffer
	if err := tracein.Write(&file, tr); err != nil {
		b.Fatal(err)
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		var events int64
		for i := 0; i < b.N; i++ {
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := w.RunProgram(func(r *mpi.Rank) mpi.Program {
				return &ringProgram{r: r, p: p, steps: steps}
			})
			if err != nil {
				b.Fatal(err)
			}
			events += rep.Kernel.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		var events int64
		for i := 0; i < b.N; i++ {
			rep, err := tracein.Replay(tr, mpi.Config{Machine: cfg.Machine})
			if err != nil {
				b.Fatal(err)
			}
			events += rep.Kernel.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("parse+replay", func(b *testing.B) {
		b.ReportAllocs()
		var events int64
		for i := 0; i < b.N; i++ {
			tr, err := tracein.ParseBytes(file.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			rep, err := tracein.Replay(tr, mpi.Config{Machine: cfg.Machine})
			if err != nil {
				b.Fatal(err)
			}
			events += rep.Kernel.Events
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkTraceCodec measures the two sides of the v1 format on a
// recorded 1,024-rank sweep3d trace (the replay_sweep3d_1k workload's
// file): MB/s of trace text and allocations per event line.
func BenchmarkTraceCodec(b *testing.B) {
	tr := recordSweep3D(b, 1024)
	var file bytes.Buffer
	if err := tracein.Write(&file, tr); err != nil {
		b.Fatal(err)
	}
	lines := tr.Events() + 1
	run := func(b *testing.B, op func()) {
		var before, after runtime.MemStats
		b.SetBytes(int64(file.Len()))
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(lines), "allocs/line")
	}
	b.Run("parse", func(b *testing.B) {
		run(b, func() {
			if _, err := tracein.ParseBytes(file.Bytes()); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("write", func(b *testing.B) {
		var out bytes.Buffer
		out.Grow(file.Len())
		run(b, func() {
			out.Reset()
			if err := tracein.Write(&out, tr); err != nil {
				b.Fatal(err)
			}
		})
	})
}
