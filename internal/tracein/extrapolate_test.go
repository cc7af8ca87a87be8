package tracein_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// ringTrace builds a small hand trace: each of p ranks delays on task
// w_1 for 1s, then sendrecvs around the ring.
func ringTrace(p int) *tracein.Trace {
	calls := make([][]mpi.Call, p)
	for i := 0; i < p; i++ {
		calls[i] = []mpi.Call{
			{Op: "delay", Task: "w_1", Sec: 1.0},
			{Op: "sendrecv", Peer: (i + 1) % p, Tag: 7, Bytes: 1024,
				Peer2: (i - 1 + p) % p, Tag2: 7},
			{Op: "barrier"},
		}
	}
	t, err := tracein.New(tracein.Header{
		Machine:   "ibmsp",
		Comm:      "analytic",
		Inputs:    map[string]float64{"N": 64},
		TaskScale: map[string]string{"w_1": "N / P"},
	}, calls)
	if err != nil {
		panic(err)
	}
	return t
}

// TestExtrapolateRemap checks the structural rules: ring peers remap
// around the larger ring, delays rescale by the symbolic scaling
// function's ratio, and the header records the provenance.
func TestExtrapolateRemap(t *testing.T) {
	src := ringTrace(4)
	out, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.Header.Ranks != 8 || out.Header.ExtrapolatedFrom != 4 {
		t.Fatalf("header = %+v", out.Header)
	}
	for i := 0; i < 8; i++ {
		calls := out.CallsOf(i)
		if len(calls) != 3 {
			t.Fatalf("rank %d has %d calls", i, len(calls))
		}
		// N/P at (N=64, P=4) is 16; at (N=64, P=8) it is 8 → factor 0.5.
		if calls[0].Sec != 0.5 {
			t.Errorf("rank %d: delay scaled to %v, want 0.5", i, calls[0].Sec)
		}
		if want := (i + 1) % 8; calls[1].Peer != want {
			t.Errorf("rank %d: send peer %d, want %d", i, calls[1].Peer, want)
		}
		if want := (i - 1 + 8) % 8; calls[1].Peer2 != want {
			t.Errorf("rank %d: recv peer %d, want %d", i, calls[1].Peer2, want)
		}
	}
	// The source trace is untouched.
	if c := src.CallsOf(0); c[0].Sec != 1.0 || c[1].Peer != 1 {
		t.Fatalf("extrapolation mutated the source trace")
	}
	// Inputs can be overridden for the scaled run: doubling N with P
	// keeps N/P constant → factor 1.
	out, err = tracein.Extrapolate(src, tracein.ExtrapolateOptions{
		Ranks:  8,
		Inputs: map[string]float64{"N": 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec := out.CallsOf(0)[0].Sec; sec != 1.0 {
		t.Errorf("weak-scaled delay = %v, want 1.0", sec)
	}
}

// TestExtrapolateWarnings checks the degradation paths: tasks without a
// scaling function (or with one that fails to evaluate) replay unscaled
// and warn once.
func TestExtrapolateWarnings(t *testing.T) {
	src := ringTrace(4)
	src.Header.TaskScale = map[string]string{"w_1": "N / UNDEFINED"}
	var warns []string
	out, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{
		Ranks: 8,
		Warn:  func(format string, args ...interface{}) { warns = append(warns, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec := out.CallsOf(0)[0].Sec; sec != 1.0 {
		t.Errorf("unevaluable scale changed the delay to %v", sec)
	}
	if len(warns) == 0 {
		t.Errorf("no warning for unevaluable scaling function")
	}
}

// TestExtrapolateIntrinsics scales a delay by a scaling function built
// on an intrinsic the compiler's expressions have: exp(N) from N=1 to N=2
// is a factor of e, with no warning.
func TestExtrapolateIntrinsics(t *testing.T) {
	src := ringTrace(2)
	src.Header.Inputs = map[string]float64{"N": 1}
	src.Header.TaskScale = map[string]string{"w_1": "exp(N)"}
	var warns []string
	out, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{
		Ranks:  2,
		Inputs: map[string]float64{"N": 2},
		Warn:   func(format string, args ...interface{}) { warns = append(warns, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if sec := out.CallsOf(r)[0].Sec; math.Abs(sec-math.E) > 1e-12 {
			t.Errorf("rank %d: delay scaled to %v, want e", r, sec)
		}
	}
	if len(warns) != 0 {
		t.Errorf("warnings: %q", warns)
	}
}

// TestExtrapolateHostileScale: a scaling function nested past the
// expression parser's bound degrades its task to unscaled delays with
// the unparseable-function warning; the process survives.
func TestExtrapolateHostileScale(t *testing.T) {
	const depth = 1 << 20
	src := ringTrace(2)
	src.Header.TaskScale = map[string]string{"w_1": strings.Repeat("(", depth) + "N" + strings.Repeat(")", depth)}
	var warns []string
	out, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{
		Ranks: 4,
		Warn:  func(format string, args ...interface{}) { warns = append(warns, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec := out.CallsOf(0)[0].Sec; sec != 1.0 {
		t.Errorf("hostile scale changed the delay to %v", sec)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "unparseable scaling function") {
		t.Errorf("warnings: %q", warns)
	}
}

// TestExtrapolateErrors checks target validation.
func TestExtrapolateErrors(t *testing.T) {
	src := ringTrace(4)
	for _, ranks := range []int{0, 2, 6, tracein.MaxRanks * 4} {
		if _, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{Ranks: ranks}); err == nil {
			t.Errorf("target %d accepted", ranks)
		}
	}
	if _, err := tracein.Extrapolate(src, tracein.ExtrapolateOptions{Ranks: 4}); err != nil {
		t.Errorf("identity extrapolation rejected: %v", err)
	}
}

// TestExtrapolateGate is the acceptance gate: a 16-rank trace recorded
// from a real app extrapolates to 64 ranks and replays to completion
// under both a torus and a fat-tree, and the report attributes the
// weak-scaling loss (nonzero blocked time, live network stats).
func TestExtrapolateGate(t *testing.T) {
	gx, gy := apps.ProcGrid(16)
	inputs := apps.SampleInputs(apps.PatternWavefront, 500, 256, 4, gx, gy)
	spec := apps.Registry()["sample"]
	rep, tr, _ := recordRun(t, "sample", spec.Build(), core.DirectExec, 16, inputs, "")
	if rep.Time <= 0 {
		t.Fatalf("source run predicts no time")
	}

	for _, topo := range []string{"torus:dims=8x8", "fattree:k=4"} {
		t.Run(topo, func(t *testing.T) {
			big, err := tracein.Extrapolate(tr, tracein.ExtrapolateOptions{
				Ranks: 64,
				Warn:  t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := machine.IBMSP()
			m.Topology = topo
			rep2, err := tracein.Replay(big, mpi.Config{Machine: m})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Ranks) != 64 {
				t.Fatalf("replayed %d ranks", len(rep2.Ranks))
			}
			if rep2.Time <= 0 {
				t.Fatalf("extrapolated replay predicts no time")
			}
			if rep2.Net == nil {
				t.Fatalf("extrapolated replay has no network stats")
			}
			var blocked float64
			for _, rs := range rep2.Ranks {
				blocked += float64(rs.BlockedTime)
			}
			if blocked <= 0 {
				t.Errorf("extrapolated replay shows no communication wait to attribute")
			}
		})
	}
}
