package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// contRing is ringProgram as a handler chain: identical kernel calls in
// identical order, so every Result byte must match the blocking body's.
// Per-proc state lives in the closure struct instead of on a goroutine
// stack.
type contRing struct {
	n, rounds int
	latency   Time
	r         *rand.Rand
	round     int
}

func (c *contRing) start(p *Proc, _ *Message) Cont {
	c.r = rand.New(rand.NewSource(int64(p.ID()) + 1))
	if p.ID() == 0 {
		p.Advance(Time(c.r.Float64()) * 1e-3)
		p.Send((p.ID()+1)%c.n, 0, 8, p.Now()+c.latency)
	}
	p.WaitRecv(Any, Any)
	return c.onMsg
}

func (c *contRing) onMsg(p *Proc, m *Message) Cont {
	p.Advance(Time(c.r.Float64()) * 1e-3)
	last := p.ID() == 0 && c.round == c.rounds-1
	if !last {
		nr := m.Payload.(int)
		if p.ID() == 0 {
			nr++
		}
		p.Send((p.ID()+1)%c.n, nr, 8, p.Now()+c.latency)
	}
	c.round++
	if c.round == c.rounds {
		return nil
	}
	p.WaitRecv(Any, Any)
	return c.onMsg
}

// runContRing runs the continuation ring under the given config.
func runContRing(t *testing.T, cfg Config, n, rounds int, latency Time) *Result {
	t.Helper()
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	for i := 0; i < n; i++ {
		c := &contRing{n: n, rounds: rounds, latency: latency}
		k.SpawnCont("p", c.start)
	}
	res, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestContMatchesClassic is the equivalence test of the blocking-body
// adapter (body.go): the handler ring and the body ring produce identical
// Results for every engine and worker count.
func TestContMatchesClassic(t *testing.T) {
	const n, rounds = 8, 3
	const latency = Time(1e-5)
	ref := runKernel(t, Config{Workers: 1}, n, ringProgram(n, rounds, latency))
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 2, Lookahead: latency},
		{Workers: 4, Lookahead: latency, RealParallel: true},
		{Workers: 4, Lookahead: latency, Protocol: ProtocolNullMessage},
	} {
		classic := runKernel(t, cfg, n, ringProgram(n, rounds, latency))
		native := runContRing(t, cfg, n, rounds, latency)
		if !reflect.DeepEqual(native, classic) {
			t.Errorf("workers=%d: continuation result %+v != body %+v", cfg.Workers, native, classic)
		}
		// Across engines only the host-side counters (CrossWorker, Windows)
		// may differ; the simulated outcome must not.
		if native.EndTime != ref.EndTime || native.Events != ref.Events ||
			native.Delivered != ref.Delivered || !reflect.DeepEqual(native.Procs, ref.Procs) {
			t.Errorf("workers=%d: simulated outcome drifted from sequential reference", cfg.Workers)
		}
	}
}

// TestContWaitSleep checks WaitSleep semantics: future sleeps advance the
// clock and let other procs run; past sleeps continue inline without
// rewinding — matching a body's Sleep exactly.
func TestContWaitSleep(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	var trace []string
	k.SpawnCont("sleeper", func(p *Proc, _ *Message) Cont {
		p.WaitSleep(2e-3)
		return func(p *Proc, _ *Message) Cont {
			trace = append(trace, "woke")
			if p.Now() != 2e-3 {
				t.Errorf("Now() after sleep = %v, want 2e-3", p.Now())
			}
			p.WaitSleep(1e-3) // past: must continue inline, clock unchanged
			return func(p *Proc, _ *Message) Cont {
				trace = append(trace, "past")
				if p.Now() != 2e-3 {
					t.Errorf("Now() after past sleep = %v, want 2e-3", p.Now())
				}
				return nil
			}
		}
	})
	k.Spawn("marker", func(p *Proc) {
		p.Sleep(1e-3)
		trace = append(trace, "marker")
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"marker", "woke", "past"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

// TestContWaitRecvSrcTag checks kernel-side (src, tag) matching and that
// an already-arrived match continues the chain inline.
func TestContWaitRecvSrcTag(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	got := make([]int, 0, 2)
	k.SpawnCont("recv", func(p *Proc, _ *Message) Cont {
		// Sleep past both arrivals so the matches are already in the
		// mailbox when the receives arm (the inline fast path), and
		// arrive out of tag order.
		p.WaitSleep(1)
		return func(p *Proc, _ *Message) Cont {
			p.WaitRecv(1, 7)
			return func(p *Proc, m *Message) Cont {
				got = append(got, m.Tag)
				p.FreeMessage(m)
				p.WaitRecv(Any, Any)
				return func(p *Proc, m *Message) Cont {
					got = append(got, m.Tag)
					p.FreeMessage(m)
					return nil
				}
			}
		}
	})
	k.Spawn("send", func(p *Proc) {
		p.SendTag(0, 3, nil, 8, p.Now()+1e-5)
		p.SendTag(0, 7, nil, 8, p.Now()+2e-5)
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("received tags %v, want %v", got, want)
	}
}

// TestContHandlerPanic: a panicking handler surfaces as the same
// *PanicError a panicking body produces.
func TestContHandlerPanic(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("bad", func(p *Proc, _ *Message) Cont {
		panic("boom")
	})
	_, err := k.Run()
	pe, ok := err.(*PanicError)
	if !ok {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Value != "boom" || pe.Proc != 0 {
		t.Fatalf("unexpected PanicError %+v", pe)
	}
}

// TestContMissingArm: returning a next handler without arming a wait is
// a programming error, reported as a panic of the process.
func TestContMissingArm(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("noarm", func(p *Proc, _ *Message) Cont {
		return func(p *Proc, _ *Message) Cont { return nil }
	})
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "without arming a wait") {
		t.Fatalf("got %v, want missing-arm panic error", err)
	}
}

// TestContDoubleArmPanics: a handler arming two waits is caught.
func TestContDoubleArmPanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("double", func(p *Proc, _ *Message) Cont {
		p.WaitSleep(1)
		p.WaitRecv(Any, Any)
		return func(p *Proc, _ *Message) Cont { return nil }
	})
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "armed two waits") {
		t.Fatalf("got %v, want double-arm error", err)
	}
}

// TestContBlockingCallPanics: the blocking primitives are rejected
// inside a handler (they would block the worker's event loop).
func TestContBlockingCallPanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("blocker", func(p *Proc, _ *Message) Cont {
		p.RecvSrcTag(Any, Any)
		return nil
	})
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "inside a continuation handler") {
		t.Fatalf("got %v, want blocking-call rejection", err)
	}
}

// TestContWaitOutsideHandlerPanics: Wait* from a blocking body is caught,
// although the body's handler is on another goroutine's stack.
func TestContWaitOutsideHandlerPanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("classic", func(p *Proc) {
		p.WaitSleep(1)
	})
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "outside a continuation handler") {
		t.Fatalf("got %v, want outside-handler rejection", err)
	}
}

// TestContDeadlockTeardown: a continuation process parked on a receive
// that never matches deadlocks the run; teardown retires it in place and
// the wait-state dump names its receive.
func TestContDeadlockTeardown(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.SpawnCont("stuck", func(p *Proc, _ *Message) Cont {
		p.Advance(1e-3)
		p.WaitRecv(5, 9)
		return func(p *Proc, _ *Message) Cont { return nil }
	})
	k.Spawn("other", func(p *Proc) { p.Advance(1) })
	res, err := k.Run()
	ae, ok := err.(*AbortError)
	if !ok || !strings.Contains(ae.Reason, "deadlock") {
		t.Fatalf("got %v, want deadlock AbortError", err)
	}
	found := false
	for _, s := range ae.States {
		if s.Name == "stuck" {
			found = true
			if s.State != "blocked" || s.Waiting != "recv(src=5, tag=9)" {
				t.Errorf("stuck state = %+v, want blocked recv(src=5, tag=9)", s)
			}
		}
	}
	if !found {
		t.Fatal("no wait state for the stuck proc")
	}
	if res == nil || res.Procs[0].FinishTime != 1e-3 {
		t.Fatalf("partial result %+v, want stuck FinishTime 1e-3", res)
	}
}

// TestContFanIn: many continuation senders into one continuation
// receiver, exercising sleep staggering, mailbox batching and the inline
// resume path at once; checked against the same program as bodies.
func TestContFanIn(t *testing.T) {
	const n = 32
	const latency = Time(1e-5)
	build := func(cont bool, cfg Config) *Result {
		k, err := NewKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n-1; i++ {
			if cont {
				k.SpawnCont("send", func(p *Proc, _ *Message) Cont {
					p.WaitSleep(Time(p.ID()%7) * 1e-4)
					return func(p *Proc, _ *Message) Cont {
						p.Send(n-1, nil, 64, p.Now()+latency)
						return nil
					}
				})
			} else {
				k.Spawn("send", func(p *Proc) {
					p.Sleep(Time(p.ID()%7) * 1e-4)
					p.Send(n-1, nil, 64, p.Now()+latency)
				})
			}
		}
		if cont {
			var seen int
			var loop Cont
			loop = func(p *Proc, m *Message) Cont {
				if m != nil {
					seen++
					p.FreeMessage(m)
					if seen == n-1 {
						return nil
					}
				}
				p.WaitRecv(Any, Any)
				return loop
			}
			k.SpawnCont("recv", loop)
		} else {
			k.Spawn("recv", func(p *Proc) {
				for seen := 0; seen < n-1; seen++ {
					p.FreeMessage(p.RecvSrcTag(Any, Any))
				}
			})
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 4, Lookahead: latency, RealParallel: true},
	} {
		classic := build(false, cfg)
		native := build(true, cfg)
		if !reflect.DeepEqual(native, classic) {
			t.Errorf("workers=%d: cont fan-in %+v != classic %+v", cfg.Workers, native, classic)
		}
	}
}
