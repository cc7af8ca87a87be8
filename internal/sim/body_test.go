package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The contract of a blocking body (Spawn), whatever runs it: however the
// run ends, every body that started has run its deferred calls by the
// time Run returns, no goroutine of the run outlives it, and the error
// and the wait-state dump say what they have always said. Written
// against Spawn and the blocking primitives only.

// bodyCount wraps bodies so the test can see which started and which
// unwound.
type bodyCount struct{ started, unwound atomic.Int64 }

func (c *bodyCount) wrap(body func(*Proc)) func(*Proc) {
	return func(p *Proc) {
		c.started.Add(1)
		defer c.unwound.Add(1)
		body(p)
	}
}

// bodyEngines are the two ways a body's handler is reached: on Run's own
// goroutine, and on a window driver's.
var bodyEngines = []Config{
	{Workers: 1},
	{Workers: 2, Lookahead: 1e-6, RealParallel: true},
}

// runBodies spawns the bodies under cfg, runs them and checks the part of
// the contract that holds for every ending.
func runBodies(t *testing.T, cfg Config, bodies ...func(*Proc)) (*Result, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c bodyCount
	for i, b := range bodies {
		k.Spawn(fmt.Sprintf("b%d", i), c.wrap(b))
	}
	res, err := k.Run()
	if s, u := c.started.Load(), c.unwound.Load(); s != u {
		t.Errorf("workers=%d: %d bodies started, %d had run their deferred calls when Run returned", cfg.Workers, s, u)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("workers=%d: %d goroutines before NewKernel, %d after Run", cfg.Workers, before, after)
	}
	return res, err
}

func TestBodiesAllReturn(t *testing.T) {
	const n = 6
	bodies := make([]func(*Proc), n)
	for i := range bodies {
		bodies[i] = ringProgram(n, 3, 1e-5)
	}
	var ref *Result
	for _, cfg := range bodyEngines {
		res, err := runBodies(t, cfg, bodies...)
		if err != nil {
			t.Fatalf("workers=%d: %v", cfg.Workers, err)
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res.Procs, ref.Procs) || res.EndTime != ref.EndTime || res.Events != ref.Events {
			t.Errorf("workers=%d: result %+v, sequential %+v", cfg.Workers, res, ref)
		}
	}
}

func TestBodiesDeadlock(t *testing.T) {
	const wantDump = `abort: deadlock, 3 blocked processes: 0(b0)@0, 1(b1)@0.5, 3(b3)@2
  proc    0 b0           blocked  t=0              mailbox=0    sent=1      recvd=0      recv(src=any, tag=7)
  proc    1 b1           blocked  t=0.5            mailbox=0    sent=0      recvd=1      recv(src=0, tag=9)
  proc    2 b2           done     t=1              mailbox=0    sent=1      recvd=0
  proc    3 b3           blocked  t=2              mailbox=1    sent=0      recvd=0      recv(src=1, tag=any)
`
	for _, cfg := range bodyEngines {
		_, err := runBodies(t, cfg,
			func(p *Proc) {
				p.SendTag(1, 3, nil, 8, 0.5)
				p.RecvSrcTag(Any, 7)
			},
			func(p *Proc) {
				p.FreeMessage(p.RecvSrcTag(Any, Any))
				p.RecvSrcTag(0, 9)
			},
			func(p *Proc) {
				p.Advance(1)
				p.SendTag(3, 4, nil, 8, 1.5) // arrives while 3 sleeps; never matched
			},
			func(p *Proc) {
				p.Sleep(2)
				p.RecvSrcTag(1, Any)
			},
		)
		ae, ok := err.(*AbortError)
		if !ok {
			t.Fatalf("workers=%d: got %v, want *AbortError", cfg.Workers, err)
		}
		// The format pads the empty "waiting" column of a finished process.
		lines := strings.Split(ae.Dump(), "\n")
		for i := range lines {
			lines[i] = strings.TrimRight(lines[i], " ")
		}
		if got := strings.Join(lines, "\n"); got != wantDump {
			t.Errorf("workers=%d: dump\n%s\nwant\n%s", cfg.Workers, got, wantDump)
		}
	}
}

func TestBodyPanicsWhileAnotherIsBlocked(t *testing.T) {
	for _, cfg := range bodyEngines {
		res, err := runBodies(t, cfg,
			func(p *Proc) {
				p.Advance(1)
				panic("kaboom")
			},
			func(p *Proc) { p.RecvSrcTag(0, 5) },
		)
		pe, ok := err.(*PanicError)
		if !ok || pe.Error() != "sim: proc 0 (b0) panicked: kaboom" {
			t.Fatalf("workers=%d: got %v", cfg.Workers, err)
		}
		if res == nil || res.Procs[0].FinishTime != 1 || res.Procs[1].FinishTime != 0 {
			t.Errorf("workers=%d: partial result %+v", cfg.Workers, res)
		}
	}
}

func TestBodiesBudgetTripsWithSleepersAndUnstarted(t *testing.T) {
	// The event budget is checked every guardFlushEvery events of a
	// worker, so a worker starts that many bodies and no more.
	const n = 200
	bodies := make([]func(*Proc), n)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			p.Sleep(1)
			t.Error("a sleeper continued past teardown")
		}
	}
	for _, cfg := range bodyEngines {
		cfg.Limits = Limits{MaxEvents: 1}
		_, err := runBodies(t, cfg, bodies...)
		ae, ok := err.(*AbortError)
		if !ok || !strings.HasPrefix(ae.Reason, "event budget exhausted: ") {
			t.Fatalf("workers=%d: got %v", cfg.Workers, err)
		}
		share := n / cfg.Workers
		for i, s := range ae.States {
			want := ProcWaitState{Proc: i, Name: fmt.Sprintf("b%d", i), State: "new"}
			// Of two real workers, one may see the other's trip early and
			// start fewer.
			if i%share < guardFlushEvery && (cfg.Workers == 1 || s.State == "blocked") {
				want.State, want.Waiting = "blocked", "sleep"
			}
			if s != want {
				t.Fatalf("workers=%d: state %+v, want %+v", cfg.Workers, s, want)
			}
		}
		if cfg.Workers == 1 && ae.Reason != "event budget exhausted: 64 events >= limit 1" {
			t.Errorf("reason %q", ae.Reason)
		}
	}
}
