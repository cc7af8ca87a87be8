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
// per-event cost must stay in the same regime. The recording folds to
// three rank classes (rank 0, the last rank, the rest), so the 16
// replayers walk three shared call streams, shifted, and the v2 file
// holds three ranks' lines and a members line. The replay row starts
// from a parsed Trace; parse+replay starts from the file's bytes, which
// is what a -tracein user waits for (~2.2x direct; 3.6-4.6x when the file
// held every rank), and ci.sh holds it to 5x direct.
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

// BenchmarkTraceCodec measures the format on a recorded 1,024-rank
// sweep3d trace (the replay_sweep3d_1k workload's file: 308,256 calls in
// nine classes): parse and write of its v2 form, parse_v1 of the
// per-rank v1 form a parent build wrote (read through the same scanner,
// then folded), and fold, what Record adds to a recording — MB/s of
// trace text and allocations per line of the file each row reads or
// writes.
func BenchmarkTraceCodec(b *testing.B) {
	tr := recordSweep3D(b, 1024)
	var v2, v1 bytes.Buffer
	if err := tracein.Write(&v2, tr); err != nil {
		b.Fatal(err)
	}
	if err := tracein.RefWriteV1(&v1, tr); err != nil {
		b.Fatal(err)
	}
	calls := make([][]mpi.Call, tr.Header.Ranks)
	for r := range calls {
		calls[r] = tr.CallsOf(r)
	}
	run := func(b *testing.B, file []byte, op func()) {
		var before, after runtime.MemStats
		lines := bytes.Count(file, []byte("\n"))
		b.SetBytes(int64(len(file)))
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(lines), "allocs/line")
	}
	parse := func(file []byte) func() {
		return func() {
			if _, err := tracein.ParseBytes(file); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("parse", func(b *testing.B) { run(b, v2.Bytes(), parse(v2.Bytes())) })
	b.Run("parse_v1", func(b *testing.B) { run(b, v1.Bytes(), parse(v1.Bytes())) })
	b.Run("write", func(b *testing.B) {
		var out bytes.Buffer
		out.Grow(v2.Len())
		run(b, v2.Bytes(), func() {
			out.Reset()
			if err := tracein.Write(&out, tr); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("fold", func(b *testing.B) {
		run(b, v2.Bytes(), func() {
			if _, err := tracein.New(tr.Header, calls); err != nil {
				b.Fatal(err)
			}
		})
	})
}
