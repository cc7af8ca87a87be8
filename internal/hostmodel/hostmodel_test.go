package hostmodel

import (
	"testing"

	"mpisim/internal/mpi"
	"mpisim/internal/sim"
)

func uniformWorkload(ranks int, exec float64) Workload {
	w := Workload{
		ExecSeconds: make([]float64, ranks),
		Events:      make([]float64, ranks),
		Messages:    make([]float64, ranks),
		SimTime:     1.0,
		Lookahead:   4e-5,
	}
	for i := range w.ExecSeconds {
		w.ExecSeconds[i] = exec
		w.Events[i] = 100
		w.Messages[i] = 200
	}
	return w
}

// TestDefaultPinned pins the calibrated coefficients: figs 12-16 are
// generated from them, so any change breaks the byte-identical
// regeneration of results/*.txt.
func TestDefaultPinned(t *testing.T) {
	want := Params{
		ExecFactor:  2.0,
		EventCost:   2e-5,
		MessageCost: 2e-5,
		ByteCost:    2.5e-9,
		WindowBase:  5e-7,
		WindowSync:  2e-6,
	}
	if Default() != want {
		t.Fatalf("Default() changed: %+v", Default())
	}
}

func TestRuntimeValidation(t *testing.T) {
	p := Default()
	if _, err := p.Runtime(Workload{}, 1); err == nil {
		t.Fatal("expected error for empty workload")
	}
	if _, err := p.Runtime(uniformWorkload(4, 1), 0); err == nil {
		t.Fatal("expected error for zero hosts")
	}
}

func TestRuntimeDecreasesWithHosts(t *testing.T) {
	p := Default()
	w := uniformWorkload(64, 0.5)
	prev, err := p.Runtime(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{2, 4, 8, 16, 32, 64} {
		cur, err := p.Runtime(w, h)
		if err != nil {
			t.Fatal(err)
		}
		if cur >= prev {
			t.Fatalf("runtime did not decrease at %d hosts: %g >= %g", h, cur, prev)
		}
		prev = cur
	}
}

func TestSpeedupBoundedByHosts(t *testing.T) {
	p := Default()
	w := uniformWorkload(64, 0.5)
	for _, h := range []int{2, 4, 16, 64} {
		s, err := p.Speedup(w, h)
		if err != nil {
			t.Fatal(err)
		}
		if s <= 1 || s > float64(h) {
			t.Fatalf("speedup at %d hosts = %g, must be in (1, %d]", h, s, h)
		}
	}
}

func TestSpeedupSaturates(t *testing.T) {
	// With many windows (communication-bound), speedup at 64 hosts must
	// saturate well below 64 — the paper reports about 15 for Sweep3D.
	p := Default()
	w := uniformWorkload(64, 0.02) // little computation
	w.SimTime = 5.0                // many windows
	s64, err := p.Speedup(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := p.Speedup(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s64 >= 40 {
		t.Fatalf("speedup did not saturate: %g", s64)
	}
	// Efficiency must drop between 8 and 64 hosts.
	if s64/64 >= s8/8 {
		t.Fatalf("efficiency did not drop: s8=%g s64=%g", s8, s64)
	}
}

func TestHostsClampedToRanks(t *testing.T) {
	p := Default()
	w := uniformWorkload(4, 0.1)
	a, _ := p.Runtime(w, 4)
	b, _ := p.Runtime(w, 400)
	if a != b {
		t.Fatalf("clamping failed: %g vs %g", a, b)
	}
}

func TestAMCheaperThanDE(t *testing.T) {
	p := Default()
	de := uniformWorkload(16, 1.0)
	am := de
	am.ExecSeconds = make([]float64, 16) // delays: no executed computation
	for _, h := range []int{1, 4, 16} {
		dt, _ := p.Runtime(de, h)
		at, _ := p.Runtime(am, h)
		if at >= dt {
			t.Fatalf("AM (%g) not cheaper than DE (%g) at %d hosts", at, dt, h)
		}
	}
}

func TestDEAboutTwiceApplication(t *testing.T) {
	// When computation dominates, DE at hosts==targets runs about
	// ExecFactor times the application (Figure 12's observation).
	p := Default()
	w := uniformWorkload(16, 2.0)
	w.Events = make([]float64, 16)
	w.Messages = make([]float64, 16)
	rt, _ := p.Runtime(w, 16)
	app := 2.0 // per-rank compute == app time for a balanced app
	ratio := rt / app
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("DE/app ratio = %g, want about 2", ratio)
	}
}

func TestFromReport(t *testing.T) {
	rep := &mpi.Report{
		Time: 3.5,
		Ranks: []mpi.RankStats{
			{ProcStats: sim.ProcStats{ComputeTime: 2.0, MsgsSent: 5, MsgsRecvd: 7}, DelayTime: 0.5},
			{ProcStats: sim.ProcStats{ComputeTime: 1.0, MsgsSent: 3, MsgsRecvd: 2}, DelayTime: 1.0},
		},
	}
	w := FromReport(rep, true, 4e-5)
	if w.Ranks() != 2 {
		t.Fatalf("Ranks = %d", w.Ranks())
	}
	if w.ExecSeconds[0] != 1.5 || w.ExecSeconds[1] != 0 {
		t.Fatalf("ExecSeconds = %v", w.ExecSeconds)
	}
	if w.Messages[0] != 12 || w.Events[0] != 8 {
		t.Fatalf("Messages/Events = %v %v", w.Messages, w.Events)
	}
	am := FromReport(rep, false, 4e-5)
	if am.ExecSeconds[0] != 0 {
		t.Fatalf("AM exec must be zero, got %v", am.ExecSeconds)
	}
	if w.SimTime != 3.5 || w.Lookahead != 4e-5 {
		t.Fatalf("SimTime/Lookahead = %v %v", w.SimTime, w.Lookahead)
	}
}

func TestCriticalPathFloor(t *testing.T) {
	p := Default()
	w := uniformWorkload(8, 0.1)
	w.DirectExec = true
	w.Blocked = make([]float64, 8)
	// One rank blocked 1s on upstream computation: the simulator must
	// replay it at ExecFactor speed regardless of host count.
	w.Blocked[7] = 1.0
	rt, err := p.Runtime(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	floor := p.ExecFactor * (0.1 + 1.0 - w.Messages[7]*w.Lookahead)
	if rt < floor {
		t.Fatalf("runtime %g below critical-path floor %g", rt, floor)
	}
	// Without direct execution (AM), no floor applies.
	w.DirectExec = false
	am, err := p.Runtime(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if am >= rt {
		t.Fatalf("AM runtime %g not below DE %g", am, rt)
	}
}

func TestByteCostCharged(t *testing.T) {
	p := Default()
	small := uniformWorkload(4, 0)
	big := small
	big.Bytes = make([]float64, 4)
	for i := range big.Bytes {
		big.Bytes[i] = 1e9
	}
	a, _ := p.Runtime(small, 1)
	b, _ := p.Runtime(big, 1)
	if b <= a {
		t.Fatalf("byte cost not charged: %g vs %g", b, a)
	}
}

func TestWallPerVirtualSecond(t *testing.T) {
	p := Default()
	w := uniformWorkload(16, 0.5)
	rt, err := p.Runtime(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.WallPerVirtualSecond(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := rt / w.SimTime; got != want {
		t.Fatalf("WallPerVirtualSecond = %g, want Runtime/SimTime = %g", got, want)
	}
	w.SimTime = 0
	if _, err := p.WallPerVirtualSecond(w, 4); err == nil {
		t.Fatal("expected error for zero simulated time")
	}
}
