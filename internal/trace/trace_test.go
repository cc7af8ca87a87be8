package trace

import (
	"strings"
	"testing"

	"mpisim/internal/interp"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
)

// tracedRun runs a small two-rank program with tracing.
func tracedRun(t *testing.T) *mpi.Report {
	t.Helper()
	myid := ir.S(ir.BuiltinMyID)
	p := &ir.Program{
		Name:   "traced",
		Arrays: []*ir.ArrayDecl{{Name: "D", Dims: []ir.Expr{ir.N(64)}, Elem: 8}},
		Body: ir.Block(
			ir.Loop("work", "i", ir.N(1), ir.N(5000),
				ir.SetA("D", ir.IX(ir.Add(ir.Mod(ir.S("i"), ir.N(64)), ir.N(1))), ir.S("i"))),
			&ir.If{Cond: ir.EQ(myid, ir.N(0)), Then: ir.Block(
				&ir.Send{Dest: ir.N(1), Tag: 1, Array: "D", Section: ir.Sec(ir.N(1), ir.N(64))})},
			&ir.If{Cond: ir.EQ(myid, ir.N(1)), Then: ir.Block(
				&ir.Recv{Src: ir.N(0), Tag: 1, Array: "D", Section: ir.Sec(ir.N(1), ir.N(64))})},
		),
	}
	rep, err := interp.Run(p, interp.Config{
		Config: mpi.Config{Ranks: 2, Machine: machine.IBMSP(), Comm: mpi.Detailed, CollectTrace: true},
		Inputs: map[string]float64{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSegmentsCoverActivity(t *testing.T) {
	rep := tracedRun(t)
	if rep.Traces == nil || len(rep.Traces) != 2 {
		t.Fatal("traces missing")
	}
	for rank, segs := range rep.Traces {
		if len(segs) == 0 {
			t.Fatalf("rank %d has no segments", rank)
		}
		var last float64
		var total float64
		for _, s := range segs {
			if s.End <= s.Start {
				t.Fatalf("rank %d: empty segment %+v", rank, s)
			}
			if s.Start < last {
				t.Fatalf("rank %d: segments overlap/out of order", rank)
			}
			last = s.End
			total += s.End - s.Start
		}
		// Activity must account for most of the rank's span.
		if total < 0.9*float64(rep.Ranks[rank].FinishTime) {
			t.Fatalf("rank %d: segments cover %.3g of %.3g",
				rank, total, rep.Ranks[rank].FinishTime)
		}
	}
}

func TestTimelineRender(t *testing.T) {
	rep := tracedRun(t)
	out, err := Timeline(rep, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("timeline missing compute glyph:\n%s", out)
	}
	// Rank 1 blocks waiting for rank 0's message only if it arrives
	// after its compute; both ranks compute equally so blocking is tiny.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, scale, 2 ranks
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	// Minimum width enforcement.
	if _, err := Timeline(rep, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, err := Timeline(&mpi.Report{}, 40); err == nil {
		t.Fatal("expected error for untraced report")
	}
	if _, err := Timeline(&mpi.Report{Traces: [][]mpi.Segment{}}, 40); err == nil {
		t.Fatal("expected error for empty simulation")
	}
}

func TestUtilization(t *testing.T) {
	rep := tracedRun(t)
	u, err := Utilize(rep)
	if err != nil {
		t.Fatal(err)
	}
	if u.Fraction[mpi.SegCompute] <= 0.5 {
		t.Errorf("compute fraction = %v, expected dominant", u.Fraction[mpi.SegCompute])
	}
	sum := 0.0
	for _, v := range u.Fraction {
		sum += v
	}
	if sum > 1.0001 {
		t.Errorf("fractions sum to %v > 1", sum)
	}
	s := u.Summary()
	if !strings.Contains(s, "compute") || !strings.Contains(s, "%") {
		t.Errorf("summary:\n%s", s)
	}
	if _, err := Utilize(&mpi.Report{}); err == nil {
		t.Fatal("expected error for untraced report")
	}
}

func TestDelaySegments(t *testing.T) {
	// An AM-style run: delays must show as '=' segments.
	p := &ir.Program{
		Name: "delayed",
		Body: ir.Block(
			&ir.ReadTaskTimes{Names: []string{"w_1"}},
			&ir.Delay{Seconds: ir.Mul(ir.S("w_1"), ir.N(1e6)), Task: "w_1"},
		),
	}
	rep, err := interp.Run(p, interp.Config{
		Config: mpi.Config{Ranks: 1, Machine: machine.IBMSP(), Comm: mpi.Analytic, TaskTimes: map[string]float64{"w_1": 1e-8}, CollectTrace: true},
		Inputs: map[string]float64{},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Timeline(rep, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=") {
		t.Fatalf("delay glyph missing:\n%s", out)
	}
	u, _ := Utilize(rep)
	if u.Fraction[mpi.SegDelay] < 0.9 {
		t.Fatalf("delay fraction = %v", u.Fraction[mpi.SegDelay])
	}
}
