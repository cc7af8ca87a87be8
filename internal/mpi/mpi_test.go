package mpi

import (
	"math"
	"strings"
	"testing"

	"mpisim/internal/machine"
)

func testConfig(ranks int) Config {
	return Config{Ranks: ranks, Machine: machine.IBMSP(), Comm: Analytic}
}

func mustRun(t *testing.T, cfg Config, body func(*Rank)) *Report {
	t.Helper()
	rep, err := Run(cfg, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{Ranks: 0, Machine: machine.IBMSP()}); err == nil {
		t.Fatal("expected error for 0 ranks")
	}
	if _, err := NewWorld(Config{Ranks: 2}); err == nil {
		t.Fatal("expected error for missing machine")
	}
	bad := *machine.IBMSP()
	bad.OpTime = 0
	if _, err := NewWorld(Config{Ranks: 2, Machine: &bad}); err == nil {
		t.Fatal("expected error for invalid machine")
	}
}

func TestRankIdentity(t *testing.T) {
	seen := make([]bool, 4)
	mustRun(t, testConfig(4), func(r *Rank) {
		if r.Size() != 4 {
			panic("wrong size")
		}
		seen[r.Rank()] = true
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d body did not run", i)
		}
	}
}

func TestSendRecvPayload(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, 800, []float64{1, 2, 3})
		} else {
			size, data := r.Recv(0, 7)
			if size != 800 {
				panic("wrong size")
			}
			v := data.([]float64)
			if v[0] != 1 || v[2] != 3 {
				panic("wrong payload")
			}
		}
	})
}

func TestRecvTimeAnalytic(t *testing.T) {
	m := machine.IBMSP()
	var recvDone float64
	mustRun(t, Config{Ranks: 2, Machine: m, Comm: Analytic}, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, 1000, nil)
		} else {
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	want := m.Net.SendOverhead + m.Net.AnalyticDelay(1000) + m.Net.RecvOverhead
	if math.Abs(recvDone-want) > 1e-12 {
		t.Fatalf("recv completion %v, want %v", recvDone, want)
	}
}

func TestDetailedAtLeastAnalytic(t *testing.T) {
	// Under load, the detailed model (NIC occupancy) must be no faster
	// than the analytic model.
	body := func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 20; i++ {
				r.Send(1, i, 100000, nil)
			}
		} else {
			for i := 0; i < 20; i++ {
				r.Recv(0, i)
			}
		}
	}
	m := machine.IBMSP()
	a := mustRun(t, Config{Ranks: 2, Machine: m, Comm: Analytic}, body)
	d := mustRun(t, Config{Ranks: 2, Machine: m, Comm: Detailed}, body)
	if d.Time < a.Time {
		t.Fatalf("detailed (%v) faster than analytic (%v)", d.Time, a.Time)
	}
}

func TestNonOvertaking(t *testing.T) {
	// A large message followed by a tiny one between the same pair must
	// be received in send order.
	mustRun(t, testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 5, 10_000_000, "big")
			r.Send(1, 5, 1, "small")
		} else {
			_, first := r.Recv(0, 5)
			_, second := r.Recv(0, 5)
			if first != "big" || second != "small" {
				panic("messages overtook each other")
			}
		}
	})
}

func TestSendrecvShift(t *testing.T) {
	// Classic shift: everyone sends right, receives from left.
	const n = 5
	mustRun(t, testConfig(n), func(r *Rank) {
		right := (r.Rank() + 1) % n
		left := (r.Rank() - 1 + n) % n
		_, data := r.Sendrecv(right, 1, 8, []float64{float64(r.Rank())}, left, 1)
		got := data.([]float64)[0]
		if got != float64(left) {
			panic("wrong shift data")
		}
	})
}

func TestIsendIrecvWait(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Isend(1, 3, 64, "x")
			req.Wait() // no-op for sends
		} else {
			req := r.Irecv(0, 3)
			size, data := req.Wait()
			if size != 64 || data != "x" {
				panic("irecv wrong")
			}
			// Waiting again returns the same result.
			size2, _ := req.Wait()
			if size2 != 64 {
				panic("double wait wrong")
			}
		}
	})
}

func TestWaitall(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 0, 8, nil)
			r.Send(2, 0, 8, nil)
		} else {
			reqs := []*Request{r.Irecv(0, 0)}
			r.Waitall(reqs)
		}
	})
}

func TestSelfSend(t *testing.T) {
	mustRun(t, testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(0, 9, 128, "self")
			_, data := r.Recv(0, 9)
			if data != "self" {
				panic("self message lost")
			}
		}
	})
}

func TestDelayForwardsClock(t *testing.T) {
	rep := mustRun(t, testConfig(1), func(r *Rank) {
		r.Delay(2.5)
		r.Delay(-1) // clamped to zero
	})
	if rep.Time != 2.5 {
		t.Fatalf("Time = %v, want 2.5", rep.Time)
	}
	if rep.Ranks[0].DelayTime != 2.5 {
		t.Fatalf("DelayTime = %v, want 2.5", rep.Ranks[0].DelayTime)
	}
}

func TestComputeNegativePanics(t *testing.T) {
	_, err := Run(testConfig(1), func(r *Rank) { r.Compute(-1) })
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative compute error, got %v", err)
	}
}

func TestReadTaskTime(t *testing.T) {
	cfg := testConfig(4)
	cfg.TaskTimes = map[string]float64{"w_1": 3.25e-8}
	vals := make([]float64, 4)
	mustRun(t, cfg, func(r *Rank) {
		vals[r.Rank()] = r.ReadTaskTime("w_1")
	})
	for i, v := range vals {
		if v != 3.25e-8 {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestBcastValues(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for root := 0; root < n; root += max(1, n/3) {
			got := make([]float64, n)
			cfg := testConfig(n)
			root := root
			mustRun(t, cfg, func(r *Rank) {
				var data []float64
				if r.Rank() == root {
					data = []float64{42.5}
				}
				out := r.Bcast(root, data, 8)
				got[r.Rank()] = out[0]
			})
			for i, v := range got {
				if v != 42.5 {
					t.Fatalf("n=%d root=%d: rank %d got %v", n, root, i, v)
				}
			}
		}
	}
}

func TestBcastNilData(t *testing.T) {
	// Simplified programs broadcast timing-only messages.
	mustRun(t, testConfig(5), func(r *Rank) {
		out := r.Bcast(0, nil, 1024)
		if out != nil {
			panic("expected nil data")
		}
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 9} {
		var rootGot []float64
		mustRun(t, testConfig(n), func(r *Rank) {
			out := r.Reduce(0, []float64{float64(r.Rank() + 1), 1}, 16, OpSum)
			if r.Rank() == 0 {
				rootGot = out
			} else if out != nil {
				panic("non-root got a reduce result")
			}
		})
		want := float64(n * (n + 1) / 2)
		if rootGot[0] != want || rootGot[1] != float64(n) {
			t.Fatalf("n=%d: reduce got %v, want [%v %v]", n, rootGot, want, n)
		}
	}
}

func TestReduceNonzeroRoot(t *testing.T) {
	const n = 6
	var got []float64
	mustRun(t, testConfig(n), func(r *Rank) {
		out := r.Reduce(4, []float64{1}, 8, OpSum)
		if r.Rank() == 4 {
			got = out
		}
	})
	if got[0] != n {
		t.Fatalf("reduce at root 4: got %v, want %v", got[0], n)
	}
}

func TestAllreduceOps(t *testing.T) {
	const n = 7
	sums := make([]float64, n)
	maxs := make([]float64, n)
	mins := make([]float64, n)
	mustRun(t, testConfig(n), func(r *Rank) {
		me := float64(r.Rank())
		sums[r.Rank()] = r.Allreduce([]float64{me}, 8, OpSum)[0]
		maxs[r.Rank()] = r.Allreduce([]float64{me}, 8, OpMax)[0]
		mins[r.Rank()] = r.Allreduce([]float64{me}, 8, OpMin)[0]
	})
	for i := 0; i < n; i++ {
		if sums[i] != 21 || maxs[i] != 6 || mins[i] != 0 {
			t.Fatalf("rank %d: sum=%v max=%v min=%v", i, sums[i], maxs[i], mins[i])
		}
	}
}

func TestAllreduceResultNotShared(t *testing.T) {
	// Mutating one rank's allreduce result must not affect another's.
	const n = 3
	results := make([][]float64, n)
	mustRun(t, testConfig(n), func(r *Rank) {
		out := r.Allreduce([]float64{1}, 8, OpSum)
		out[0] += float64(r.Rank()) * 100
		results[r.Rank()] = out
	})
	if results[0][0] == results[1][0] || results[1][0] == results[2][0] {
		t.Fatalf("allreduce results aliased: %v", results)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 6
	after := make([]float64, n)
	mustRun(t, testConfig(n), func(r *Rank) {
		// Stagger arrival times.
		r.Compute(float64(r.Rank()) * 1e-3)
		r.Barrier()
		after[r.Rank()] = r.Now()
	})
	// Everyone must leave the barrier no earlier than the last arrival.
	for i := 0; i < n; i++ {
		if after[i] < float64(n-1)*1e-3 {
			t.Fatalf("rank %d left barrier at %v, before last arrival", i, after[i])
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 5
	var gathered [][]float64
	scattered := make([]float64, n)
	mustRun(t, testConfig(n), func(r *Rank) {
		g := r.Gather(0, []float64{float64(r.Rank() * 10)}, 8)
		if r.Rank() == 0 {
			gathered = g
		}
		var chunks [][]float64
		if r.Rank() == 0 {
			chunks = make([][]float64, n)
			for i := range chunks {
				chunks[i] = []float64{float64(i + 100)}
			}
		}
		mine := r.Scatter(0, chunks, 8)
		scattered[r.Rank()] = mine[0]
	})
	for i := 0; i < n; i++ {
		if gathered[i][0] != float64(i*10) {
			t.Fatalf("gather[%d] = %v", i, gathered[i])
		}
		if scattered[i] != float64(i+100) {
			t.Fatalf("scatter[%d] = %v", i, scattered[i])
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6} {
		results := make([][][]float64, n)
		mustRun(t, testConfig(n), func(r *Rank) {
			results[r.Rank()] = r.Allgather([]float64{float64(r.Rank())}, 8)
		})
		for rk := 0; rk < n; rk++ {
			for src := 0; src < n; src++ {
				if results[rk][src][0] != float64(src) {
					t.Fatalf("n=%d rank %d slot %d = %v", n, rk, src, results[rk][src])
				}
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	const n = 4
	results := make([][][]float64, n)
	mustRun(t, testConfig(n), func(r *Rank) {
		chunks := make([][]float64, n)
		for d := range chunks {
			chunks[d] = []float64{float64(r.Rank()*100 + d)}
		}
		results[r.Rank()] = r.Alltoall(chunks, 8)
	})
	for rk := 0; rk < n; rk++ {
		for src := 0; src < n; src++ {
			want := float64(src*100 + rk)
			if results[rk][src][0] != want {
				t.Fatalf("alltoall[%d][%d] = %v, want %v", rk, src, results[rk][src][0], want)
			}
		}
	}
}

func TestCollectivesCountAndTime(t *testing.T) {
	rep := mustRun(t, testConfig(4), func(r *Rank) {
		r.Barrier()
		r.Allreduce([]float64{1}, 8, OpSum)
	})
	if rep.Time <= 0 {
		t.Fatal("collectives consumed no simulated time")
	}
	for i, rs := range rep.Ranks {
		// Barrier = reduce+bcast, Allreduce = reduce+bcast: 4 each.
		if rs.Collectives != 4 {
			t.Fatalf("rank %d Collectives = %d, want 4", i, rs.Collectives)
		}
	}
}

func TestMemoryTracking(t *testing.T) {
	rep := mustRun(t, testConfig(2), func(r *Rank) {
		r.TrackAlloc(1000)
		r.TrackAlloc(500)
		r.TrackFree(300)
	})
	for _, rs := range rep.Ranks {
		if rs.PeakBytes != 1500 {
			t.Fatalf("PeakBytes = %d, want 1500", rs.PeakBytes)
		}
		if rs.CurBytes != 1200 {
			t.Fatalf("CurBytes = %d, want 1200", rs.CurBytes)
		}
	}
	if rep.TotalPeakBytes != 3000 {
		t.Fatalf("TotalPeakBytes = %d, want 3000", rep.TotalPeakBytes)
	}
	if rep.MaxRankPeakBytes != 1500 {
		t.Fatalf("MaxRankPeakBytes = %d", rep.MaxRankPeakBytes)
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	cfg := testConfig(2)
	cfg.MemoryLimit = 1000
	_, err := Run(cfg, func(r *Rank) {
		r.TrackAlloc(800) // 2 ranks x 800 > 1000
	})
	if err == nil {
		t.Fatal("expected memory limit error")
	}
	if !strings.Contains(err.Error(), "memory limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestIsMemoryLimit(t *testing.T) {
	err := &MemoryLimitError{Used: 10, Limit: 5}
	if !IsMemoryLimit(err) {
		t.Fatal("IsMemoryLimit(MemoryLimitError) = false")
	}
	if IsMemoryLimit(nil) {
		t.Fatal("IsMemoryLimit(nil) = true")
	}
	if IsMemoryLimit(errOther) {
		t.Fatal("IsMemoryLimit(other error) = true")
	}
}

var errOther = fmtError("other")

type fmtError string

func (e fmtError) Error() string { return string(e) }

func TestParallelEngineEquivalence(t *testing.T) {
	// The same program must yield identical predicted time under the
	// sequential engine and the conservative parallel engine.
	body := func(r *Rank) {
		n := r.Size()
		for iter := 0; iter < 3; iter++ {
			right := (r.Rank() + 1) % n
			left := (r.Rank() - 1 + n) % n
			r.Compute(1e-4 * float64(r.Rank()+1))
			r.Sendrecv(right, iter, 4096, nil, left, iter)
			r.Allreduce([]float64{float64(r.Rank())}, 8, OpSum)
		}
	}
	base := mustRun(t, Config{Ranks: 8, Machine: machine.IBMSP()}, body)
	for _, hw := range []int{2, 4, 8} {
		for _, real := range []bool{false, true} {
			cfg := Config{Ranks: 8, Machine: machine.IBMSP(), HostWorkers: hw, RealParallel: real}
			got := mustRun(t, cfg, body)
			if got.Time != base.Time {
				t.Fatalf("hostWorkers=%d real=%v: time %v != %v", hw, real, got.Time, base.Time)
			}
		}
	}
}

func TestSendInvalidRank(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) { r.Send(5, 0, 1, nil) })
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("expected invalid rank error, got %v", err)
	}
}

func TestBcastRootValidation(t *testing.T) {
	_, err := Run(testConfig(2), func(r *Rank) { r.Bcast(7, nil, 8) })
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected root range error, got %v", err)
	}
}

func TestAnyTagAndAnySource(t *testing.T) {
	mustRun(t, testConfig(3), func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(2, 11, 8, "from0")
		case 1:
			// guarantee ordering: rank1 sends later in simulated time
			r.Compute(1)
			r.Send(2, 12, 8, "from1")
		case 2:
			_, d1 := r.Recv(AnySource, AnyTag)
			_, d2 := r.Recv(AnySource, AnyTag)
			if d1 != "from0" || d2 != "from1" {
				panic("any-source order wrong")
			}
		}
	})
}

func TestCommMatrix(t *testing.T) {
	cfg := testConfig(3)
	cfg.CollectMatrix = true
	rep := mustRun(t, cfg, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, 100, nil)
			r.Send(1, 2, 50, nil)
			r.Send(2, 3, 25, nil)
		}
		switch r.Rank() {
		case 1:
			r.Recv(0, 1)
			r.Recv(0, 2)
		case 2:
			r.Recv(0, 3)
		}
	})
	if rep.MsgMatrix == nil {
		t.Fatal("matrix not collected")
	}
	if rep.MsgMatrix[0][1] != 2 || rep.MsgMatrix[0][2] != 1 {
		t.Fatalf("MsgMatrix = %v", rep.MsgMatrix)
	}
	if rep.ByteMatrix[0][1] != 150 || rep.ByteMatrix[0][2] != 25 {
		t.Fatalf("ByteMatrix = %v", rep.ByteMatrix)
	}
	// Without the flag the matrices stay nil.
	rep2 := mustRun(t, testConfig(2), func(r *Rank) {})
	if rep2.MsgMatrix != nil {
		t.Fatal("matrix collected without the flag")
	}
}

func TestAbstractCommModel(t *testing.T) {
	cfg := testConfig(4)
	cfg.Comm = AbstractComm
	rep := mustRun(t, cfg, func(r *Rank) {
		r.Send((r.Rank()+1)%4, 1, 1000, nil)
		n, payload := r.RecvSized((r.Rank()+3)%4, 1, 1000)
		if payload != nil {
			panic("abstract comm transported a payload")
		}
		if n != 1000 {
			panic("wrong declared size")
		}
		r.Allreduce([]float64{1}, 8, OpSum)
		r.Barrier()
		r.Bcast(0, nil, 64)
	})
	if rep.Kernel.Delivered != 0 {
		t.Fatalf("abstract model delivered %d kernel messages", rep.Kernel.Delivered)
	}
	if rep.Time <= 0 {
		t.Fatal("abstract comm charged no time")
	}
}

func TestAbstractCommCheaperThanAnalytic(t *testing.T) {
	body := func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Allreduce([]float64{float64(i)}, 8, OpSum)
		}
	}
	a := mustRun(t, testConfig(8), body)
	cfg := testConfig(8)
	cfg.Comm = AbstractComm
	ab := mustRun(t, cfg, body)
	// Closed-form costs approximate the tree: same order of magnitude.
	if ab.Time <= 0 || ab.Time > 3*a.Time {
		t.Fatalf("abstract %g vs analytic %g diverge", ab.Time, a.Time)
	}
}

func TestDelayByTask(t *testing.T) {
	rep := mustRun(t, testConfig(2), func(r *Rank) {
		r.DelayTask("w_1", 0.5)
		r.DelayTask("w_2", 0.25)
		r.DelayTask("w_1", 0.5)
		r.Delay(0.1) // unattributed
	})
	if rep.DelayByTask["w_1"] != 2.0 || rep.DelayByTask["w_2"] != 0.5 {
		t.Fatalf("DelayByTask = %v", rep.DelayByTask)
	}
	for _, rs := range rep.Ranks {
		if rs.DelayTime != 1.35 {
			t.Fatalf("DelayTime = %v", rs.DelayTime)
		}
	}
}

// A delay that is not finite is refused naming its task, before it
// reaches a clock.
func TestDelayTaskRefusesNonFinite(t *testing.T) {
	for _, sec := range []float64{math.NaN(), math.Inf(1)} {
		w, err := NewWorld(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.Run(func(r *Rank) { r.DelayTask("w_4", sec) })
		if err == nil || !strings.Contains(err.Error(), "task w_4") {
			t.Fatalf("DelayTask(%v): %v, want a refusal naming w_4", sec, err)
		}
	}
}

func TestAbstractGatherScatterAllgatherAlltoall(t *testing.T) {
	cfg := testConfig(4)
	cfg.Comm = AbstractComm
	rep := mustRun(t, cfg, func(r *Rank) {
		r.Gather(0, []float64{1}, 8)
		r.Scatter(0, nil, 8)
		r.Allgather([]float64{2}, 8)
		r.Alltoall(nil, 8)
	})
	if rep.Kernel.Delivered != 0 {
		t.Fatalf("abstract collectives delivered %d messages", rep.Kernel.Delivered)
	}
	if rep.Time <= 0 {
		t.Fatal("abstract collectives cost nothing")
	}
	for _, rs := range rep.Ranks {
		if rs.Collectives != 4 {
			t.Fatalf("Collectives = %d", rs.Collectives)
		}
	}
}

func TestRecvSizedIgnoredByEventModels(t *testing.T) {
	// Under event models, the declared size is ignored; the real message
	// size is returned.
	mustRun(t, testConfig(2), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, 640, nil)
		} else {
			n, _ := r.RecvSized(0, 1, 9999)
			if n != 640 {
				panic("RecvSized did not return the real size")
			}
		}
	})
}

func TestDetailedSelfSend(t *testing.T) {
	cfg := testConfig(1)
	cfg.Comm = Detailed
	rep := mustRun(t, cfg, func(r *Rank) {
		r.Send(0, 1, 4096, "x")
		_, d := r.Recv(0, 1)
		if d != "x" {
			panic("self payload lost")
		}
	})
	if rep.Time <= 0 {
		t.Fatal("self send free under detailed model")
	}
}
