package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mpisim/internal/obs"
)

// pingPong spawns a 2-proc message loop of rounds exchanges with dt
// seconds between hops.
func pingPongKernel(t *testing.T, cfg Config, rounds int, dt Time) *Kernel {
	t.Helper()
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	body := func(p *Proc) {
		peer := 1 - p.ID()
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				p.Send(peer, nil, 8, p.Now()+dt)
				p.FreeMessage(p.RecvSrcTag(Any, Any))
			} else {
				p.FreeMessage(p.RecvSrcTag(Any, Any))
				p.Send(peer, nil, 8, p.Now()+dt)
			}
		}
	}
	k.Spawn("a", body)
	k.Spawn("b", body)
	return k
}

func TestGuardEventBudget(t *testing.T) {
	k := pingPongKernel(t, Config{Workers: 1, Limits: Limits{MaxEvents: 200}}, 1_000_000, 1e-6)
	res, err := k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if !strings.Contains(ae.Reason, "event budget") {
		t.Fatalf("reason = %q, want event budget trip", ae.Reason)
	}
	if res == nil || res.Events == 0 {
		t.Fatalf("want partial result with progress, got %+v", res)
	}
	// Budget is enforced at flush granularity, not exactly.
	if res.Events > 200+2*guardFlushEvery {
		t.Fatalf("ran %d events, far past the 200-event budget", res.Events)
	}
	if ae.Snapshot == nil || len(ae.Snapshot.LastEvents) == 0 || len(ae.Snapshot.QueueDepths) != 1 {
		t.Fatalf("snapshot missing or empty: %+v", ae.Snapshot)
	}
	if len(ae.States) != 2 {
		t.Fatalf("wait states = %d, want 2", len(ae.States))
	}
}

func TestGuardTimeBudget(t *testing.T) {
	k := pingPongKernel(t, Config{Workers: 1, Limits: Limits{MaxTime: 0.5}}, 1_000_000, 1e-3)
	res, err := k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if !strings.Contains(ae.Reason, "virtual-time budget") {
		t.Fatalf("reason = %q, want virtual-time budget trip", ae.Reason)
	}
	if res.EndTime > 0.6 {
		t.Fatalf("partial EndTime %v, want ~0.5", res.EndTime)
	}
}

func TestGuardWatchdogLivelock(t *testing.T) {
	// Zero-delay self-message loop: virtual time never advances.
	reg := obs.NewRegistry(1)
	reg.SetEnabled(true)
	k, err := NewKernel(Config{Workers: 1, Metrics: reg, Limits: Limits{StallEvents: 500}})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Send(p.ID(), nil, 0, p.Now())
			p.FreeMessage(p.RecvSrcTag(Any, Any))
		}
	})
	_, err = k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if !strings.Contains(ae.Reason, "watchdog") {
		t.Fatalf("reason = %q, want watchdog trip", ae.Reason)
	}
	if len(ae.States) != 1 || ae.States[0].State == "done" {
		t.Fatalf("want a live wait state, got %+v", ae.States)
	}
	if got := metricValue(t, reg, "sim_watchdog_trips_total"); got != 1 {
		t.Fatalf("sim_watchdog_trips_total = %d, want 1", got)
	}
}

func TestGuardContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	k, err := NewKernel(Config{Workers: 1, Limits: Limits{Ctx: ctx}})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Send(p.ID(), nil, 0, p.Now()+1e-9)
			p.FreeMessage(p.RecvSrcTag(Any, Any))
		}
	})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if !strings.Contains(ae.Reason, "canceled") {
		t.Fatalf("reason = %q, want cancellation", ae.Reason)
	}
}

// TestGuardCheckAbortInHandler: a handler computing without a kernel
// call leaves through CheckAbort once the run is cancelled, and ends as a
// blocked process does — torn down, not failed. So does a blocking body,
// whose exit crosses from its own goroutine to its handler's.
func TestGuardCheckAbortInHandler(t *testing.T) {
	for _, body := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		k, err := NewKernel(Config{Workers: 1, Limits: Limits{Ctx: ctx}})
		if err != nil {
			t.Fatal(err)
		}
		spin := func(p *Proc) {
			cancel()
			for {
				p.CheckAbort()
				time.Sleep(time.Millisecond)
			}
		}
		if body {
			k.Spawn("spin", spin)
		} else {
			k.SpawnCont("spin", func(p *Proc, _ *Message) Cont {
				spin(p)
				return nil
			})
		}
		res, err := k.Run()
		var ae *AbortError
		if !errors.As(err, &ae) || !strings.Contains(ae.Reason, "canceled") {
			t.Fatalf("body=%v: err = %v, want a cancellation abort", body, err)
		}
		if res == nil || len(ae.States) != 1 || ae.States[0].State != "done" {
			t.Fatalf("body=%v: result %v, wait states %+v", body, res, ae.States)
		}
	}
}

func TestGuardAbortParallelEngine(t *testing.T) {
	for _, rp := range []bool{false, true} {
		k := pingPongKernel(t, Config{
			Workers: 2, Lookahead: 1e-6, RealParallel: rp,
			Limits: Limits{MaxEvents: 300},
		}, 1_000_000, 1e-6)
		res, err := k.Run()
		var ae *AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("RealParallel=%v: want *AbortError, got %v", rp, err)
		}
		if res == nil || res.Events == 0 {
			t.Fatalf("RealParallel=%v: want partial result", rp)
		}
	}
}

func TestGuardAbortTeardownSleepers(t *testing.T) {
	// A sleeper blocked far in the future must be torn down cleanly when
	// the budget trips (its wake event is still queued).
	k, err := NewKernel(Config{Workers: 1, Limits: Limits{MaxEvents: 100}})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1e6)
		t.Error("sleeper body continued past teardown")
	})
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Send(p.ID(), nil, 0, p.Now()+1e-9)
			p.FreeMessage(p.RecvSrcTag(Any, Any))
		}
	})
	_, err = k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
}

func TestGuardPanicSnapshot(t *testing.T) {
	k, err := NewKernel(Config{Workers: 1, Limits: Limits{MaxEvents: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("boom", func(p *Proc) {
		p.Advance(1)
		panic("kaboom")
	})
	k.Spawn("waiter", func(p *Proc) {
		p.FreeMessage(p.RecvSrcTag(Any, Any)) // never satisfied: torn down
	})
	_, err = k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Proc != 0 || pe.Value != "kaboom" {
		t.Fatalf("panic identity wrong: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "panicked") {
		t.Fatalf("message lost legacy form: %q", pe.Error())
	}
	if pe.Snapshot == nil {
		t.Fatal("panic with guard live should carry a snapshot")
	}
}

func TestGuardPanicWithoutGuardKeepsLegacyError(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked: kaboom") {
		t.Fatalf("want legacy panicked error, got %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T", err)
	}
	if pe.Snapshot != nil {
		t.Fatal("no snapshot expected without the guard")
	}
}

func TestDeadlockIsAbortErrorWithWaitStates(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("a", func(p *Proc) { p.RecvSrcTag(Any, 7) })
	_, err := k.Run()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AbortError, got %v", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock text lost: %v", err)
	}
	if len(ae.States) != 1 || ae.States[0].State != "blocked" ||
		!strings.Contains(ae.States[0].Waiting, "tag=7") {
		t.Fatalf("wait state wrong: %+v", ae.States)
	}
	if d := ae.Dump(); !strings.Contains(d, "blocked") || !strings.Contains(d, "recv(src=any, tag=7)") {
		t.Fatalf("dump missing wait detail:\n%s", d)
	}
}

func TestGuardPoolsSurviveAbort(t *testing.T) {
	// Abort with events still queued, then run a healthy kernel: the
	// shared pools must not hand out corrupted objects.
	k := pingPongKernel(t, Config{Workers: 1, Limits: Limits{MaxEvents: 150}}, 1_000_000, 1e-6)
	if _, err := k.Run(); err == nil {
		t.Fatal("expected abort")
	}
	k2 := pingPongKernel(t, Config{Workers: 1}, 500, 1e-6)
	res, err := k2.Run()
	if err != nil {
		t.Fatalf("healthy run after abort: %v", err)
	}
	if res.Delivered != 1000 {
		t.Fatalf("delivered %d, want 1000", res.Delivered)
	}
}

// metricValue reads a counter total from the registry's JSON-free API.
func metricValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return int64(m.Value)
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
