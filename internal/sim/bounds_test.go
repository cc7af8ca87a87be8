package sim

import (
	"testing"
	"testing/quick"
)

// iterativeSeedBounds is a verbatim port of the seed kernel's
// null-message promise computation: a bounded Gauss-Seidel fixed-point
// iteration over
//
//	p_i = lookahead + min(top_i, min_{j != i} p_j)
//
// with bounds[i] = min_{j != i} p_j. It is the reference the closed-form
// safeBounds must reproduce exactly (same float operations, so ==
// comparison is valid). nw >= 2 is assumed; the seed's nw == 1 branch
// was dead code because runParallel is only entered with nw > 1.
func iterativeSeedBounds(tops []Time, lookahead Time) ([]Time, bool) {
	nw := len(tops)
	start := Infinity
	for _, t := range tops {
		if t < start {
			start = t
		}
	}
	if start >= Infinity {
		return nil, false
	}
	promises := make([]Time, nw)
	for i := range promises {
		promises[i] = start + lookahead
	}
	for iter := 0; iter < nw+1; iter++ {
		changed := false
		for i := range promises {
			minPeer := Infinity
			for j := range promises {
				if j != i && promises[j] < minPeer {
					minPeer = promises[j]
				}
			}
			next := tops[i]
			if minPeer < next {
				next = minPeer
			}
			if p := next + lookahead; p > promises[i] {
				promises[i] = p
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	bounds := make([]Time, nw)
	for i := range bounds {
		minPeer := Infinity
		for j := range promises {
			if j != i && promises[j] < minPeer {
				minPeer = promises[j]
			}
		}
		bounds[i] = minPeer
	}
	return bounds, true
}

// boundsKernel builds a kernel whose workers' queues have exactly the
// given top times (Infinity = empty queue) so safeBounds can be driven
// directly.
func boundsKernel(tops []Time, lookahead Time, proto Protocol) *Kernel {
	k := &Kernel{cfg: Config{Workers: len(tops), Lookahead: lookahead, Protocol: proto}}
	k.workers = make([]*worker, len(tops))
	for i := range k.workers {
		w := &worker{id: i, kernel: k, queue: newEventQueue()}
		if tops[i] < Infinity {
			w.queue.push(event{t: tops[i], proc: i})
		}
		k.workers[i] = w
	}
	k.bounds = make([]Time, len(tops))
	return k
}

// Property (testing/quick): the O(W) closed-form safeBounds equals the
// seed's O(W^2)-per-sweep iterative fixed point, bit for bit, for every
// worker count, lookahead and top-time pattern — including ties,
// all-idle peers and Infinity tops. Window counts (and therefore host
// predictions and results/*.txt) are thus unchanged from the seed.
func TestNullMessageBoundsMatchIterative(t *testing.T) {
	f := func(raw []uint16, nwRaw uint8, lRaw uint16) bool {
		nw := 2 + int(nwRaw)%7 // 2..8 workers
		lookahead := Time(lRaw%1000+1) * 1e-6
		tops := make([]Time, nw)
		for i := range tops {
			switch {
			case i >= len(raw) || raw[i]%5 == 0:
				tops[i] = Infinity // empty queue / idle worker
			default:
				tops[i] = Time(raw[i]%97) * 1e-3 // small range forces ties
			}
		}
		k := boundsKernel(tops, lookahead, ProtocolNullMessage)
		got, any := k.safeBounds()
		want, wantAny := iterativeSeedBounds(tops, lookahead)
		if any != wantAny {
			return false
		}
		if !any {
			return true
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("tops=%v L=%v worker=%d got=%v want=%v", tops, lookahead, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The window protocol bound is lookahead past the global minimum for
// every worker, and safeBounds reports no work only when all queues are
// empty.
func TestWindowBounds(t *testing.T) {
	k := boundsKernel([]Time{5, Infinity, 3}, 2, ProtocolWindow)
	bounds, any := k.safeBounds()
	if !any {
		t.Fatal("expected work")
	}
	for i, b := range bounds {
		if b != 5 {
			t.Fatalf("worker %d: bound %v, want 5", i, b)
		}
	}
	k = boundsKernel([]Time{Infinity, Infinity}, 2, ProtocolWindow)
	if _, any := k.safeBounds(); any {
		t.Fatal("expected no work on empty queues")
	}
}
