package sim

import (
	"strings"
	"testing"
)

// TestDeadlockTeardownParallel exercises terminateBlocked under the
// really-parallel engine: workers run on separate goroutines, several
// processes deadlock in Recv (some with pooled messages sitting
// unmatched in their mailboxes), and the kernel must report the
// deadlock, unwind every blocked body, and leave the shared pools
// consistent (the live guards in pool.go panic on any double-free).
// Run with -race.
func TestDeadlockTeardownParallel(t *testing.T) {
	const n = 12
	const neverSent = 99 // a tag no process sends
	build := func() (*Result, error) {
		k, err := NewKernel(Config{Workers: 4, Lookahead: 1e-6, RealParallel: true, Protocol: ProtocolWindow})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k.Spawn("p", func(p *Proc) {
				switch {
				case p.ID()%3 == 0:
					// Sends a message nobody waits for specifically, then
					// blocks forever: the delivery lands in a mailbox and must
					// not be double-freed at teardown.
					p.Send((p.ID()+1)%n, "orphan", 8, p.Now()+1e-6)
					p.RecvSrcTag(Any, neverSent)
				case p.ID()%3 == 1:
					// Receives one message (recycling it), then deadlocks.
					m := p.RecvSrcTag(Any, Any)
					p.FreeMessage(m)
					p.RecvSrcTag(Any, neverSent)
				default:
					// Completes normally after some local work.
					p.Advance(1e-3)
				}
			})
		}
		return k.Run()
	}
	// Run the deadlocking program twice: the second run reuses the shared
	// sync.Pools seeded by the first teardown, so stale liveness state
	// from an incorrect unwind would trip the double-free guards here.
	for round := 0; round < 2; round++ {
		_, err := build()
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("round %d: expected deadlock error, got %v", round, err)
		}
		if !strings.Contains(err.Error(), "blocked processes") {
			t.Fatalf("round %d: error should list blocked processes: %v", round, err)
		}
	}
	// The pools must still be usable for a clean run.
	res := runKernel(t, Config{Workers: 4, Lookahead: 1e-5, RealParallel: true}, n, ringProgram(n, 3, 1e-5))
	if res.EndTime <= 0 {
		t.Fatal("post-teardown run did not advance time")
	}
}

// TestBodyPanicParallel: a panicking body under the parallel engine must
// surface as an error, not hang the barrier or corrupt the pools.
func TestBodyPanicParallel(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 2, Lookahead: 1e-6, RealParallel: true})
	for i := 0; i < 4; i++ {
		k.Spawn("p", func(p *Proc) {
			p.Advance(1e-3)
			if p.ID() == 2 {
				panic("boom")
			}
		})
	}
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected body panic error, got %v", err)
	}
}

// TestMessageDoubleFreePanics pins the pool guard: freeing a received
// message twice must panic rather than corrupt the free list.
func TestMessageDoubleFreePanics(t *testing.T) {
	k, _ := NewKernel(Config{Workers: 1})
	k.Spawn("s", func(p *Proc) { p.Send(1, nil, 1, p.Now()+1) })
	k.Spawn("r", func(p *Proc) {
		m := p.RecvSrcTag(Any, Any)
		p.FreeMessage(m)
		p.FreeMessage(m) // must panic; recorded as the process's error
	})
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "double-free") {
		t.Fatalf("expected double-free panic error, got %v", err)
	}
}

// TestQueueEquivalence is the determinism property over the engine
// axes the queue serves: every engine x workers x protocol combination
// pops the one (time, proc, seq) order, so results are identical.
func TestQueueEquivalence(t *testing.T) {
	const n = 12
	build := func(workers int, real bool, proto Protocol) *Result {
		cfg := Config{Workers: workers, RealParallel: real, Protocol: proto}
		if workers > 1 {
			cfg.Lookahead = 1e-5
		}
		return runKernel(t, cfg, n, ringProgram(n, 4, 1e-5))
	}
	ref := build(1, false, ProtocolWindow)
	for _, workers := range []int{1, 3, 4} {
		for _, real := range []bool{false, true} {
			for _, proto := range []Protocol{ProtocolWindow, ProtocolNullMessage} {
				got := build(workers, real, proto)
				if got.EndTime != ref.EndTime {
					t.Fatalf("w=%d real=%v proto=%v: EndTime %v != %v",
						workers, real, proto, got.EndTime, ref.EndTime)
				}
				for i := range ref.Procs {
					if got.Procs[i] != ref.Procs[i] {
						t.Fatalf("w=%d real=%v proto=%v: proc %d stats differ",
							workers, real, proto, i)
					}
				}
				if got.Delivered != ref.Delivered || got.Events != ref.Events {
					t.Fatalf("w=%d real=%v proto=%v: event counts differ",
						workers, real, proto)
				}
			}
		}
	}
}
