package dtg

import (
	"math"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/interp"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// tracedSweep runs a small Sweep3D with tracing: a wavefront gives the
// DAG non-trivial cross-rank structure.
func tracedSweep(t *testing.T) *mpi.Report {
	t.Helper()
	rep, err := interp.Run(apps.Sweep3D(), interp.Config{
		Config: mpi.Config{Ranks: 4, Machine: machine.IBMSP(), Comm: mpi.Detailed, CollectTrace: true},
		Inputs: apps.Sweep3DInputs(4, 4, 16, 8, 2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBuildRequiresTrace(t *testing.T) {
	if _, err := Build(&mpi.Report{}); err == nil {
		t.Fatal("expected error for untraced report")
	}
}

func TestGraphStructure(t *testing.T) {
	g, err := Build(tracedSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	// Edges must go forward in node time (the recorded execution is a
	// valid schedule).
	const eps = 1e-12
	for _, e := range g.Edges {
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		if from.End > to.Start+e.Delay+eps && from.Rank != to.Rank {
			t.Fatalf("message edge violates schedule: %+v -> %+v", from, to)
		}
		if from.Rank == to.Rank && from.End > to.Start+eps {
			t.Fatalf("program-order edge backwards: %+v -> %+v", from, to)
		}
	}
	// There must be cross-rank edges (the wavefront).
	cross := 0
	for _, e := range g.Edges {
		if g.Nodes[e.From].Rank != g.Nodes[e.To].Rank {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no message edges")
	}
}

func TestCriticalPathMatchesSimulation(t *testing.T) {
	rep := tracedSweep(t)
	g, err := Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	cp := g.CriticalPath()
	if cp > rep.Time*(1+1e-9) {
		t.Fatalf("critical path %g exceeds simulated time %g", cp, rep.Time)
	}
	// For this tightly synchronized code the DAG replay should recover
	// most of the simulated time.
	if cp < 0.8*rep.Time {
		t.Fatalf("critical path %g too far below simulated %g", cp, rep.Time)
	}
}

func TestZeroLatencyBound(t *testing.T) {
	g, err := Build(tracedSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Summarize()
	if s.ZeroLatency > s.CriticalPath {
		t.Fatalf("zero-latency replay %g exceeds full replay %g", s.ZeroLatency, s.CriticalPath)
	}
	if s.ZeroLatency <= 0 {
		t.Fatal("zero-latency replay is zero")
	}
	// Average parallelism lies in (0, ranks].
	if s.AvgParallelism <= 0 || s.AvgParallelism > 4+1e-9 {
		t.Fatalf("avg parallelism = %g", s.AvgParallelism)
	}
	if !strings.Contains(s.String(), "critical path") {
		t.Fatalf("stats render: %s", s)
	}
}

func TestSingleRankGraph(t *testing.T) {
	rep, err := interp.Run(apps.Tomcatv(), interp.Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Detailed, CollectTrace: true},
		Inputs: apps.TomcatvInputs(32, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	// A single rank's critical path is its total work.
	if math.Abs(g.CriticalPath()-g.TotalWork()) > 1e-12 {
		t.Fatalf("single-rank CP %g != work %g", g.CriticalPath(), g.TotalWork())
	}
	// Parallelism of a serial run is 1.
	if math.Abs(g.AvgParallelism()-1) > 1e-9 {
		t.Fatalf("avg parallelism = %g", g.AvgParallelism())
	}
}

func TestReplayScalesWithLatency(t *testing.T) {
	g, err := Build(tracedSweep(t))
	if err != nil {
		t.Fatal(err)
	}
	prev := g.Replay(0)
	for _, scale := range []float64{0.5, 1, 2, 4} {
		cur := g.Replay(scale)
		if cur < prev {
			t.Fatalf("replay not monotone in latency scale at %g", scale)
		}
		prev = cur
	}
}
