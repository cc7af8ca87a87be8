package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// runKernel builds a kernel with n procs from body and runs it.
func runKernel(t *testing.T, cfg Config, n int, body func(*Proc)) *Result {
	t.Helper()
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	for i := 0; i < n; i++ {
		k.Spawn("p", body)
	}
	res, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewKernel(Config{Workers: 0}); err == nil {
		t.Fatal("expected error for Workers=0")
	}
	if _, err := NewKernel(Config{Workers: 2, Lookahead: 0}); err == nil {
		t.Fatal("expected error for parallel engine without lookahead")
	}
	if _, err := NewKernel(Config{Workers: 1}); err != nil {
		t.Fatalf("sequential engine should not need lookahead: %v", err)
	}
}

func TestEmptyKernel(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime != 0 {
		t.Fatalf("EndTime = %v, want 0", res.EndTime)
	}
}

func TestRunTwice(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) {})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err == nil {
		t.Fatal("expected error on second Run")
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) {})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Spawn("b", func(p *Proc) {})
}

func TestAdvanceAccumulates(t *testing.T) {
	res := runKernel(t, Config{Workers: 1}, 1, func(p *Proc) {
		p.Advance(1.5)
		p.Advance(2.5)
	})
	if res.EndTime != 4 {
		t.Fatalf("EndTime = %v, want 4", res.EndTime)
	}
	if res.Procs[0].ComputeTime != 4 {
		t.Fatalf("ComputeTime = %v, want 4", res.Procs[0].ComputeTime)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) { p.Advance(-1) })
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative advance error, got %v", err)
	}
}

func TestPingPong(t *testing.T) {
	const latency = Time(1e-5)
	k, _ := NewKernel(Config{Workers: 1})
	var t0End, t1End Time
	k.Spawn("sender", func(p *Proc) {
		p.Advance(1e-3)
		p.Send(1, "ping", 8, p.Now()+latency)
		m := p.RecvSrcTag(Any, Any)
		if m.Payload != "pong" {
			panic("wrong payload")
		}
		t0End = p.Now()
	})
	k.Spawn("receiver", func(p *Proc) {
		m := p.RecvSrcTag(Any, Any)
		if m.Payload != "ping" {
			panic("wrong payload")
		}
		p.Advance(2e-3)
		p.Send(0, "pong", 8, p.Now()+latency)
		t1End = p.Now()
	})
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// receiver: recv completes at 1e-3+1e-5, computes 2e-3, ends there.
	wantT1 := Time(1e-3 + 1e-5 + 2e-3)
	if t1End != wantT1 {
		t.Fatalf("receiver end = %v, want %v", t1End, wantT1)
	}
	wantT0 := wantT1 + latency
	if t0End != wantT0 {
		t.Fatalf("sender end = %v, want %v", t0End, wantT0)
	}
	if res.EndTime != wantT0 {
		t.Fatalf("EndTime = %v, want %v", res.EndTime, wantT0)
	}
	if res.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2", res.Delivered)
	}
}

func TestRecvBeforeSendBlocks(t *testing.T) {
	// Receiver posts Recv long before the message is sent; blocked time
	// must be accounted.
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("late-sender", func(p *Proc) {
		p.Advance(5)
		p.Send(1, nil, 4, p.Now()+1)
	})
	k.Spawn("early-receiver", func(p *Proc) {
		p.RecvSrcTag(Any, Any)
		if p.Now() != 6 {
			panic("wrong completion time")
		}
	})
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs[1].BlockedTime != 6 {
		t.Fatalf("BlockedTime = %v, want 6", res.Procs[1].BlockedTime)
	}
}

func TestRecvAfterArrivalDoesNotRewindClock(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("sender", func(p *Proc) {
		p.Send(1, nil, 4, p.Now()+1)
	})
	k.Spawn("busy-receiver", func(p *Proc) {
		p.Advance(10) // runs past the arrival time
		p.Sleep(11)   // yield so the delivery is processed
		p.RecvSrcTag(Any, Any)
		if p.Now() != 11 {
			panic("clock rewound or advanced unexpectedly")
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicMatchOrder(t *testing.T) {
	// Two messages arrive at the same time; the lower sender id must be
	// matched first.
	k, _ := NewKernel(Config{Workers: 1})
	order := []int{}
	k.Spawn("s0", func(p *Proc) { p.Send(2, nil, 1, 5) })
	k.Spawn("s1", func(p *Proc) { p.Send(2, nil, 1, 5) })
	k.Spawn("r", func(p *Proc) {
		p.Sleep(6)
		m1 := p.RecvSrcTag(Any, Any)
		m2 := p.RecvSrcTag(Any, Any)
		order = append(order, m1.From, m2.From)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("match order = %v, want [0 1]", order)
	}
}

func TestSelectiveMatch(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	const tagA, tagB = 1, 2
	k.Spawn("s", func(p *Proc) {
		p.SendTag(1, tagA, "a", 1, 1)
		p.SendTag(1, tagB, "b", 1, 2)
	})
	k.Spawn("r", func(p *Proc) {
		// Ask for "b" first even though "a" arrives earlier.
		mb := p.RecvSrcTag(Any, tagB)
		ma := p.RecvSrcTag(Any, tagA)
		if mb.Payload != "b" || ma.Payload != "a" {
			panic("wrong selective match")
		}
		if p.Now() != 2 {
			panic("clock must not rewind after out-of-order match")
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) { p.RecvSrcTag(Any, Any) })
	k.Spawn("b", func(p *Proc) { p.RecvSrcTag(Any, Any) })
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestSleep(t *testing.T) {
	res := runKernel(t, Config{Workers: 1}, 1, func(p *Proc) {
		p.Sleep(3)
		p.Sleep(1) // into the past: no-op
		if p.Now() != 3 {
			panic("sleep wrong")
		}
	})
	if res.EndTime != 3 {
		t.Fatalf("EndTime = %v, want 3", res.EndTime)
	}
}

func TestSendValidation(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) { p.Send(99, nil, 1, 1) })
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "unknown proc") {
		t.Fatalf("expected unknown proc error, got %v", err)
	}
	k2, _ := NewKernel(Config{Workers: 1})
	k2.Spawn("a", func(p *Proc) { p.Advance(5); p.Send(0, nil, 1, 1) })
	if _, err := k2.Run(); err == nil || !strings.Contains(err.Error(), "before local time") {
		t.Fatalf("expected causality error, got %v", err)
	}
}

// A NaN time is refused where it would enter the event order: the
// kernel's (time, proc, seq) order is total only over finite times.
func TestNaNTimesRefused(t *testing.T) {
	nan := Time(math.NaN())
	for name, body := range map[string]func(p *Proc){
		"Advance": func(p *Proc) { p.Advance(nan) },
		"Send":    func(p *Proc) { p.Send(0, nil, 1, nan) },
		"SendVia": func(p *Proc) { p.SendVia(0, 0, 0, nil, 1, nan, 0) },
		"Sleep":   func(p *Proc) { p.Sleep(nan) },
	} {
		k, _ := NewKernel(Config{Workers: 1})
		k.Spawn("a", body)
		if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("%s(NaN): %v, want a refusal", name, err)
		}
	}
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("a", func(p *Proc, _ *Message) Cont {
		p.WaitSleep(nan)
		return nil
	})
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("WaitSleep(NaN): %v, want a refusal", err)
	}
}

// ringProgram returns a body where each proc passes a token around a ring
// R times, with random per-hop computation drawn deterministically from
// the proc id.
func ringProgram(n, rounds int, latency Time) func(*Proc) {
	return func(p *Proc) {
		next := (p.ID() + 1) % n
		r := rand.New(rand.NewSource(int64(p.ID()) + 1))
		for round := 0; round < rounds; round++ {
			if p.ID() == 0 && round == 0 {
				p.Advance(Time(r.Float64()) * 1e-3)
				p.Send(next, round, 8, p.Now()+latency)
			}
			m := p.RecvSrcTag(Any, Any)
			p.Advance(Time(r.Float64()) * 1e-3)
			last := p.ID() == 0 && round == rounds-1
			if !last {
				nr := m.Payload.(int)
				if p.ID() == 0 {
					nr++
				}
				p.Send(next, nr, 8, p.Now()+latency)
			}
		}
	}
}

func TestRingCompletes(t *testing.T) {
	res := runKernel(t, Config{Workers: 1}, 8, ringProgram(8, 3, 1e-5))
	if res.EndTime <= 0 {
		t.Fatal("ring did not advance time")
	}
	// 8 procs x 3 rounds of one message each, minus the final hop that is
	// not sent: 23 messages... token passes: each round has 8 sends except
	// the last round where proc 7->0 still occurs but 0 stops. Count via
	// stats instead of hardcoding: every delivered message was sent.
	var sent int64
	for _, ps := range res.Procs {
		sent += ps.MsgsSent
	}
	if sent != res.Delivered {
		t.Fatalf("sent %d != delivered %d", sent, res.Delivered)
	}
}

// engineResults runs the same ring under a given worker count.
func engineResult(t *testing.T, workers int, real bool) *Result {
	t.Helper()
	cfg := Config{Workers: workers, Lookahead: 1e-5, RealParallel: real}
	if workers == 1 {
		cfg.Lookahead = 0
	}
	return runKernel(t, cfg, 12, ringProgram(12, 5, 1e-5))
}

// TestEngineEquivalence is the core determinism property: the sequential
// engine, the modeled parallel engine and the really-parallel engine must
// produce identical simulated results for any worker count.
func TestEngineEquivalence(t *testing.T) {
	ref := engineResult(t, 1, false)
	for _, workers := range []int{2, 3, 5, 12} {
		for _, real := range []bool{false, true} {
			got := engineResult(t, workers, real)
			if got.EndTime != ref.EndTime {
				t.Fatalf("workers=%d real=%v: EndTime %v != %v", workers, real, got.EndTime, ref.EndTime)
			}
			for i := range ref.Procs {
				if got.Procs[i].FinishTime != ref.Procs[i].FinishTime {
					t.Fatalf("workers=%d real=%v proc %d: finish %v != %v",
						workers, real, i, got.Procs[i].FinishTime, ref.Procs[i].FinishTime)
				}
				if got.Procs[i].ComputeTime != ref.Procs[i].ComputeTime {
					t.Fatalf("workers=%d real=%v proc %d: compute differs", workers, real, i)
				}
			}
			if got.Delivered != ref.Delivered {
				t.Fatalf("workers=%d real=%v: delivered %d != %d", workers, real, got.Delivered, ref.Delivered)
			}
		}
	}
}

// TestEngineEquivalenceRandom stresses equivalence on random communication
// patterns: procs send to random peers with random delays >= lookahead.
func TestEngineEquivalenceRandom(t *testing.T) {
	const n = 10
	const lookahead = Time(1e-6)
	build := func(workers int) *Result {
		cfg := Config{Workers: workers, Lookahead: lookahead, RealParallel: workers > 1}
		k, err := NewKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k.Spawn("p", func(p *Proc) {
				r := rand.New(rand.NewSource(int64(p.ID()) * 7919))
				// Everyone sends 5 messages to the next 2 neighbours, then
				// receives its expected 10.
				for j := 0; j < 5; j++ {
					p.Advance(Time(r.Float64()) * 1e-4)
					p.Send((p.ID()+1)%n, j, 64, p.Now()+lookahead+Time(r.Float64())*1e-4)
					p.Send((p.ID()+2)%n, j, 64, p.Now()+lookahead+Time(r.Float64())*1e-4)
				}
				for j := 0; j < 10; j++ {
					p.RecvSrcTag(Any, Any)
					p.Advance(Time(r.Float64()) * 1e-5)
				}
			})
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := build(1)
	for _, w := range []int{2, 4, 10} {
		got := build(w)
		if got.EndTime != ref.EndTime {
			t.Fatalf("workers=%d: EndTime %v != %v", w, got.EndTime, ref.EndTime)
		}
		for i := range ref.Procs {
			if got.Procs[i] != ref.Procs[i] {
				t.Fatalf("workers=%d proc %d stats differ: %+v vs %+v", w, i, got.Procs[i], ref.Procs[i])
			}
		}
	}
}

func TestCrossWorkerAccounting(t *testing.T) {
	cfg := Config{Workers: 2, Lookahead: 1e-5}
	k, _ := NewKernel(cfg)
	// procs 0,1 on worker 0; procs 2,3 on worker 1.
	for i := 0; i < 4; i++ {
		k.Spawn("p", func(p *Proc) {
			if p.ID() == 0 {
				p.Send(3, nil, 1, p.Now()+1e-5) // cross
				p.Send(1, nil, 1, p.Now()+1e-5) // local
			}
			if p.ID() == 1 || p.ID() == 3 {
				p.RecvSrcTag(Any, Any)
			}
		})
	}
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossWorker != 1 {
		t.Fatalf("CrossWorker = %d, want 1", res.CrossWorker)
	}
	if res.Windows < 1 {
		t.Fatalf("Windows = %d, want >= 1", res.Windows)
	}
}

func TestManyProcs(t *testing.T) {
	// 1000 processes exchanging with neighbours: exercises scalability of
	// the kernel bookkeeping (the paper simulates up to 10,000 targets).
	const n = 1000
	cfg := Config{Workers: 4, Lookahead: 1e-6, RealParallel: true}
	k, _ := NewKernel(cfg)
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) {
			id := p.ID()
			if id+1 < n {
				p.Send(id+1, nil, 8, p.Now()+1e-6)
			}
			if id > 0 {
				p.RecvSrcTag(Any, Any)
			}
			p.Advance(1e-6)
		})
	}
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != n-1 {
		t.Fatalf("Delivered = %d, want %d", res.Delivered, n-1)
	}
}

func TestWorkersClampedToProcs(t *testing.T) {
	cfg := Config{Workers: 16, Lookahead: 1e-6}
	res := func() *Result {
		k, _ := NewKernel(cfg)
		k.Spawn("only", func(p *Proc) { p.Advance(1) })
		r, err := k.Run()
		if err != nil {
			panic(err)
		}
		return r
	}()
	if res.EndTime != 1 {
		t.Fatalf("EndTime = %v", res.EndTime)
	}
}

func TestMaxProcTime(t *testing.T) {
	res := &Result{Procs: []ProcStats{{ComputeTime: 3}, {ComputeTime: 7}, {ComputeTime: 5}}}
	if got := res.MaxProcTime(func(ps ProcStats) Time { return ps.ComputeTime }); got != 7 {
		t.Fatalf("MaxProcTime = %v, want 7", got)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolWindow.String() != "window" || ProtocolNullMessage.String() != "null-message" {
		t.Fatal("protocol strings wrong")
	}
}

// pipelineProgram builds a linear pipeline: rank i waits for i-1, computes
// a long block, and forwards to i+1 — the worst case for global windows.
func pipelineProgram(n int, compute Time, latency Time) func(*Proc) {
	return func(p *Proc) {
		if p.ID() > 0 {
			p.RecvSrcTag(Any, Any)
		}
		p.Advance(compute)
		if p.ID()+1 < n {
			p.Send(p.ID()+1, nil, 8, p.Now()+latency)
		}
	}
}

func TestNullMessageEquivalence(t *testing.T) {
	const n = 8
	run := func(proto Protocol, workers int) *Result {
		k, err := NewKernel(Config{Workers: workers, Lookahead: 1e-5, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k.Spawn("p", pipelineProgram(n, 1e-3, 1e-5))
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(ProtocolWindow, 1)
	for _, workers := range []int{2, 4, 8} {
		for _, proto := range []Protocol{ProtocolWindow, ProtocolNullMessage} {
			got := run(proto, workers)
			if got.EndTime != ref.EndTime {
				t.Fatalf("%v workers=%d: EndTime %v != %v", proto, workers, got.EndTime, ref.EndTime)
			}
			for i := range ref.Procs {
				if got.Procs[i].FinishTime != ref.Procs[i].FinishTime {
					t.Fatalf("%v workers=%d: proc %d finish differs", proto, workers, i)
				}
			}
		}
	}
}

func TestNullMessageFewerRoundsOnLocalTraffic(t *testing.T) {
	// Each worker hosts one ping-pong pair that never communicates across
	// workers. The window protocol still synchronizes every worker to the
	// global minimum each round, so it needs roughly one round per
	// message; promise chains bound each worker at the peers' promises
	// plus several lookaheads, letting it batch multiple local exchanges
	// per round.
	const pairs = 4
	const rounds = 40
	const latency = Time(1e-5)
	run := func(proto Protocol) *Result {
		k, _ := NewKernel(Config{Workers: pairs, Lookahead: latency, Protocol: proto})
		for i := 0; i < 2*pairs; i++ {
			k.Spawn("p", func(p *Proc) {
				peer := p.ID() ^ 1 // partner within the pair
				// Stagger pairs so their event times interleave.
				p.Advance(Time(p.ID()/2) * latency / Time(pairs))
				for r := 0; r < rounds; r++ {
					if p.ID()%2 == 0 {
						p.Send(peer, nil, 8, p.Now()+latency)
						p.RecvSrcTag(Any, Any)
					} else {
						p.RecvSrcTag(Any, Any)
						p.Send(peer, nil, 8, p.Now()+latency)
					}
				}
			})
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	windowRounds := run(ProtocolWindow).Windows
	nullRounds := run(ProtocolNullMessage).Windows
	if nullRounds >= windowRounds {
		t.Fatalf("null-message rounds %d not fewer than window rounds %d",
			nullRounds, windowRounds)
	}
	// And the results must still be identical.
	if run(ProtocolWindow).EndTime != run(ProtocolNullMessage).EndTime {
		t.Fatal("protocols disagree on simulated time")
	}
}

func TestNullMessageRandomEquivalence(t *testing.T) {
	build := func(proto Protocol, workers int) *Result {
		cfg := Config{Workers: workers, Lookahead: 1e-6, Protocol: proto,
			RealParallel: workers > 1}
		k, err := NewKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 10
		for i := 0; i < n; i++ {
			k.Spawn("p", func(p *Proc) {
				r := rand.New(rand.NewSource(int64(p.ID()) * 1237))
				for j := 0; j < 5; j++ {
					p.Advance(Time(r.Float64()) * 1e-4)
					p.Send((p.ID()+1)%n, j, 64, p.Now()+1e-6+Time(r.Float64())*1e-4)
					p.Send((p.ID()+3)%n, j, 64, p.Now()+1e-6+Time(r.Float64())*1e-4)
				}
				for j := 0; j < 10; j++ {
					p.RecvSrcTag(Any, Any)
					p.Advance(Time(r.Float64()) * 1e-5)
				}
			})
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := build(ProtocolWindow, 1)
	for _, w := range []int{2, 5, 10} {
		got := build(ProtocolNullMessage, w)
		if got.EndTime != ref.EndTime {
			t.Fatalf("workers=%d: EndTime %v != %v", w, got.EndTime, ref.EndTime)
		}
		for i := range ref.Procs {
			if got.Procs[i] != ref.Procs[i] {
				t.Fatalf("workers=%d proc %d stats differ", w, i)
			}
		}
	}
}

// Property (testing/quick): the event queue pops in (time, proc, seq)
// order for random event sets, the same events as a reference heap of
// each arity the kernel's queue once came in.
func TestEventQueueOrderQuick(t *testing.T) {
	for _, arity := range []struct {
		name string
		d    int
	}{{"quaternary", 4}, {"binary", 2}} {
		arity := arity
		t.Run(arity.name, func(t *testing.T) {
			f := func(times []uint16, procs []uint8) bool {
				n := len(times)
				if len(procs) < n {
					n = len(procs)
				}
				if n == 0 {
					return true
				}
				h := newEventQueue()
				ref := refQueue{d: arity.d}
				for i := 0; i < n; i++ {
					e := event{t: Time(times[i]), proc: int(procs[i]), seq: uint64(i)}
					h.push(e)
					ref.push(e)
				}
				if h.len() != n {
					return false
				}
				prev := h.pop()
				if !sameEvent(prev, ref.pop()) {
					return false
				}
				for h.len() > 0 {
					if h.peek() == nil {
						return false
					}
					cur := h.pop()
					if eventLess(&cur, &prev) || !sameEvent(cur, ref.pop()) {
						return false
					}
					prev = cur
				}
				return h.peek() == nil && len(ref.a) == 0
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSleepInterleavesWithDeliveries(t *testing.T) {
	// A sleeping proc must wake at the right time relative to deliveries:
	// after Sleep(5) the early message has arrived and costs no time, the
	// late one has not and moves the clock to its arrival.
	k, _ := NewKernel(Config{Workers: 1})
	var got []string
	var at []Time
	k.Spawn("sender", func(p *Proc) {
		p.Send(1, "early", 1, 2)
		p.Send(1, "late", 1, 7)
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 2; i++ {
			got = append(got, p.RecvSrcTag(Any, Any).Payload.(string))
			at = append(at, p.Now())
		}
	})
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "early" || at[0] != 5 || got[1] != "late" || at[1] != 7 {
		t.Fatalf("received %v at %v, want [early late] at [5 7]", got, at)
	}
	if res.Procs[1].BlockedTime != 2 {
		t.Fatalf("BlockedTime = %v, want 2 (the late message only)", res.Procs[1].BlockedTime)
	}
}

func TestResultStatsConsistency(t *testing.T) {
	res := runKernel(t, Config{Workers: 2, Lookahead: 1e-5}, 6, ringProgram(6, 2, 1e-5))
	var sent, recvd int64
	for _, ps := range res.Procs {
		sent += ps.MsgsSent
		recvd += ps.MsgsRecvd
	}
	if sent != recvd {
		t.Fatalf("sent %d != received %d", sent, recvd)
	}
	if res.Delivered != sent {
		t.Fatalf("delivered %d != sent %d", res.Delivered, sent)
	}
	if res.Events < res.Delivered {
		t.Fatalf("events %d < delivered %d", res.Events, res.Delivered)
	}
}
