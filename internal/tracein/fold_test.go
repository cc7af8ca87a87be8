package tracein_test

// The fold's differential. A trace holds one call sequence per rank
// class and a member replays it with its point-to-point peers shifted,
// so the one property that matters is that expanding the fold gives back
// exactly what was folded: every rank's calls, bit for bit, directly and
// through a v2 file (TestFoldExpandsToItsInput, on recordings of the
// four apps, irgen programs, the every-op body, the example traces and
// hand cases). Extrapolate folds the target ranks as it makes them, held
// to the per-rank extrapolation it replaced (TestExtrapolateMatchesReference);
// TestClassCounts pins what the fold finds on the apps, and
// TestReplayOfClasses replays recordings whose classes have members.
//
// Each mutation below was applied to fold.go, parse.go or replay.go by
// hand and fails the cases named:
//
//   - shifting by value instead of field mask — moving Peer and Peer2 on
//     every op: TestClassCounts/{sweep3d,sample,tomcatv}_am and /ring
//     (the zeros of delays and collectives, read relative to the rank,
//     give ranks classes of their own), TestFoldExpandsToItsInput/
//     wildcards and FuzzParseTrace/seed#10; moving them wherever they
//     are non-zero: TestClassCounts/*_am and /ring,
//     TestFoldExpandsToItsInput/sendrecv_ring;
//   - shifting a wildcard (shift without its AnySource test, or
//     samePeer without its wildcard test): TestFoldExpandsToItsInput/
//     wildcards, FuzzParseTrace/seed#10;
//   - comparing Sec with == instead of as bits: TestFoldExpandsToItsInput/
//     signed_zero (rank 1's -0 folds into rank 0's class and expands
//     as +0; the hash joins ±0 on purpose, so sameCalls alone decides);
//   - dropping the Peer2 shift from peerFields: TestFoldExpandsToItsInput/
//     sendrecv_ring, TestClassCounts/ring, TestParseErrors/
//     v2_peer2_past_the_last_member; from the replayer:
//     TestReplayOfClasses/sendrecv_ring;
//   - accepting scatter sizes on a representative with members (that
//     test removed from classMap.check): TestParseErrors/
//     v2_scatter_sizes_on_a_class, FuzzParseTrace/seed#15;
//   - accepting an event line from a member rank (the representative
//     test removed from classMap.check): TestParseErrors/
//     v2_event_of_a_member.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/irgen"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// sameBits compares call sequences exactly: seconds as bit patterns,
// everything else (nil against empty sizes included) by DeepEqual.
func sameBits(a, b []mpi.Call) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Sec) != math.Float64bits(y.Sec) {
			return false
		}
		x.Sec, y.Sec = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkFold folds calls and expands them back, directly and through
// Write and Parse; both must give every rank's calls bit for bit, and
// folding the expansion must give the same trace.
func checkFold(t *testing.T, hdr tracein.Header, calls [][]mpi.Call) *tracein.Trace {
	t.Helper()
	tr, err := tracein.New(hdr, calls)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := tracein.Write(&file, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := tracein.ParseBytes(file.Bytes())
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	again := make([][]mpi.Call, len(calls))
	for r := range calls {
		if again[r] = tr.CallsOf(r); !sameBits(again[r], calls[r]) {
			t.Fatalf("rank %d of %d (%d classes): the fold expands to other calls", r, len(calls), tr.Classes())
		}
		if !sameBits(parsed.CallsOf(r), calls[r]) {
			t.Fatalf("rank %d of %d: the parsed v2 file expands to other calls", r, len(calls))
		}
	}
	if refold, _ := tracein.New(hdr, again); !reflect.DeepEqual(refold, tr) || !reflect.DeepEqual(parsed, tr) {
		t.Fatal("the fold is not canonical: the same calls fold to another trace")
	}
	return tr
}

// recordCalls records an app at ranks in a mode, with the test inputs
// (NAS SP's on its q x q grid).
func recordCalls(t *testing.T, app string, mode core.Mode, ranks int) (tracein.Header, [][]mpi.Call) {
	t.Helper()
	inputs := smallInputs(app, ranks)
	if app == "nassp" {
		q := int(math.Sqrt(float64(ranks)))
		inputs = apps.NASSPInputs(4*q, 2, q)
	}
	rep, tr, _ := recordRun(t, app, apps.Registry()[app].Build(), mode, ranks, inputs, "")
	return tr.Header, rep.Calls
}

// TestFoldExpandsToItsInput is the property: expand(fold(calls)) ==
// calls over every recording the package's tests make and the hand
// cases the mutation list names.
func TestFoldExpandsToItsInput(t *testing.T) {
	for _, app := range apps.Names() {
		for _, mode := range []core.Mode{core.Abstract, core.DirectExec} {
			for _, ranks := range []int{16, 64, 256} {
				if testing.Short() && ranks > 16 {
					continue
				}
				t.Run(fmt.Sprintf("%s_%s_%d", app, mode, ranks), func(t *testing.T) {
					hdr, calls := recordCalls(t, app, mode, ranks)
					checkFold(t, hdr, calls)
				})
			}
		}
	}
	t.Run("irgen", func(t *testing.T) {
		for seed := int64(1); seed <= 25; seed++ {
			prog, inputs := irgen.Program(seed, irgen.Config{})
			rep, tr, _ := recordRun(t, prog.Name, prog, core.DirectExec, 4, inputs, "")
			checkFold(t, tr.Header, rep.Calls)
		}
	})
	t.Run("everyop", func(t *testing.T) {
		rep, hdr := everyOpRun(t)
		checkFold(t, hdr, rep.Calls)
	})
	t.Run("examples", func(t *testing.T) {
		files, err := filepath.Glob("../../examples/traces/*.jsonl")
		if err != nil || len(files) == 0 {
			t.Fatalf("no example traces found: %v", err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			hdr, calls, err := tracein.RefCalls(data)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			checkFold(t, hdr, calls)
		}
	})

	ring := func(p int) [][]mpi.Call {
		calls := make([][]mpi.Call, p)
		for r := range calls {
			calls[r] = []mpi.Call{{Op: "sendrecv", Peer: (r + 1) % p, Tag: 1, Bytes: 8, Peer2: (r + p - 1) % p, Tag2: 1}}
		}
		return calls
	}
	for _, c := range []struct {
		name    string
		calls   [][]mpi.Call
		classes int
	}{
		{"signed_zero", [][]mpi.Call{{{Op: "compute", Sec: 0}}, {{Op: "compute", Sec: math.Copysign(0, -1)}}}, 2},
		{"wildcards", [][]mpi.Call{
			{{Op: "send", Peer: 2, Tag: 1, Bytes: 8}, {Op: "recv", Peer: mpi.AnySource, Tag: 1, Bytes: 8}},
			{{Op: "send", Peer: 3, Tag: 1, Bytes: 8}, {Op: "recv", Peer: mpi.AnySource, Tag: 1, Bytes: 8}},
			{{Op: "send", Peer: 0, Tag: 1, Bytes: 8}, {Op: "recv", Peer: 0, Tag: 1, Bytes: 8}},
			{{Op: "send", Peer: 1, Tag: 1, Bytes: 8}, {Op: "recv", Peer: mpi.AnySource, Tag: 1, Bytes: 8}},
		}, 3},
		{"sendrecv_ring", ring(6), 3},
		{"scatter_sizes", [][]mpi.Call{
			{{Op: "scatter", Root: 0, Bytes: 0, Sizes: []int64{1, 2, 3}}},
			{{Op: "scatter", Root: 0, Bytes: 0}},
			{{Op: "scatter", Root: 0, Bytes: 0}},
		}, 2},
		{"empty_and_nil_sizes", [][]mpi.Call{
			{{Op: "alltoall", Bytes: 4, Sizes: []int64{}}},
			{{Op: "alltoall", Bytes: 4}},
		}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := tracein.New(tracein.Header{}, c.calls)
			if err != nil {
				t.Fatal(err)
			}
			for r := range c.calls {
				if !sameBits(tr.CallsOf(r), c.calls[r]) {
					t.Fatalf("rank %d expands to %+v, want %+v", r, tr.CallsOf(r), c.calls[r])
				}
			}
			if tr.Classes() != c.classes {
				t.Errorf("%d classes, want %d", tr.Classes(), c.classes)
			}
		})
	}
}

// everyOpRun is TestRoundTripEveryOp's body, recorded.
func everyOpRun(t *testing.T) (*mpi.Report, tracein.Header) {
	t.Helper()
	const p = 4
	m := machine.IBMSP()
	sizes := []int64{8, 0, 4096, 1 << 20}
	rep, err := mpi.Run(mpi.Config{Ranks: p, Machine: m, Comm: mpi.Analytic, RecordCalls: true}, func(r *mpi.Rank) {
		me := r.Rank()
		for step := 0; step < 20; step++ {
			r.Compute(1e-7 * float64(step+1))
			r.DelayTask("w_1", 2.5e-5)
			r.Sendrecv((me+1)%p, step, 512, nil, (me+p-1)%p, step)
		}
		if me == 0 {
			r.Send(1, 7, 64, nil)
		} else if me == 1 {
			r.RecvSized(mpi.AnySource, 7, 64)
		}
		r.Bcast(2, nil, 1024)
		r.Gather(3, nil, 128)
		r.ScatterSizes(0, sizes, 0)
		r.AlltoallSizes(sizes, 0)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, tracein.Header{App: "everyop", Machine: m.Name, Comm: "analytic",
		Inputs: map[string]float64{"N": 64}, TaskScale: map[string]string{"w_1": "N / P"}}
}

// TestExtrapolateMatchesReference holds Extrapolate, which folds each
// target rank as it makes it, to refExtrapolate, the per-rank clone it
// replaced: ring, fan-in, the sample app and the every-op body at ×2, ×4
// and ×16, under a scaling function that reads myid (so delays differ
// by rank) — every target rank's calls bit for bit, and the header.
func TestExtrapolateMatchesReference(t *testing.T) {
	const scale = "N / P * (1 + myid % 3)"
	type source struct {
		name string
		tr   *tracein.Trace
	}
	var sources []source
	for _, name := range []string{"ring", "fanin"} {
		tr, err := tracein.ParseFile("../../examples/traces/" + name + ".jsonl")
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{name, tr})
	}
	sources = append(sources, source{"ring_delays", ringTrace(8)})
	_, sample, _ := recordRun(t, "sample", apps.Registry()["sample"].Build(), core.Abstract, 8, smallInputs("sample", 8), "")
	sources = append(sources, source{"sample", sample})
	rep, hdr := everyOpRun(t)
	everyop, err := tracein.New(hdr, rep.Calls)
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, source{"everyop", everyop})

	for _, src := range sources {
		for task := range src.tr.Header.TaskScale {
			src.tr.Header.TaskScale[task] = scale
		}
		if src.tr.Header.Inputs["N"] == 0 {
			src.tr.Header.Inputs = map[string]float64{"N": 64}
		}
		for _, k := range []int{2, 4, 16} {
			t.Run(fmt.Sprintf("%s_x%d", src.name, k), func(t *testing.T) {
				opts := tracein.ExtrapolateOptions{Ranks: k * src.tr.Header.Ranks, Inputs: map[string]float64{"N": 128}}
				got, err := tracein.Extrapolate(src.tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				hdr, want, err := tracein.RefExtrapolate(src.tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Header, hdr) {
					t.Fatalf("header %+v, want %+v", got.Header, hdr)
				}
				for r := range want {
					if !sameBits(got.CallsOf(r), want[r]) {
						t.Fatalf("rank %d: %+v, want %+v", r, got.CallsOf(r), want[r])
					}
				}
				if again, _ := tracein.New(hdr, want); !reflect.DeepEqual(again, got) {
					t.Fatal("Extrapolate's classes are not the fold of the reference's ranks")
				}
			})
		}
	}
}

// TestClassCounts pins what the fold finds: Sweep3D and the sample app
// have nine classes at 256 ranks in AM (corners, edges, interior of the
// process grid), Tomcatv three to five, a sendrecv ring three (rank 0,
// the last rank, the rest); Sweep3D in DE barely folds, its compute
// spans being data-dependent, and must not cost more for it.
func TestClassCounts(t *testing.T) {
	for _, c := range []struct {
		name     string
		calls    func(t *testing.T) [][]mpi.Call
		min, max int
	}{
		{"sweep3d_am", func(t *testing.T) [][]mpi.Call { _, c := recordCalls(t, "sweep3d", core.Abstract, 256); return c }, 9, 9},
		{"sample_am", func(t *testing.T) [][]mpi.Call { _, c := recordCalls(t, "sample", core.Abstract, 256); return c }, 9, 9},
		{"tomcatv_am", func(t *testing.T) [][]mpi.Call { _, c := recordCalls(t, "tomcatv", core.Abstract, 256); return c }, 3, 5},
		{"sweep3d_de_64", func(t *testing.T) [][]mpi.Call { _, c := recordCalls(t, "sweep3d", core.DirectExec, 64); return c }, 58, 64},
		{"ring", func(t *testing.T) [][]mpi.Call {
			calls := make([][]mpi.Call, 16)
			for r := range calls {
				calls[r] = ringTrace(16).CallsOf(r)
			}
			return calls
		}, 3, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := tracein.New(tracein.Header{}, c.calls(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d ranks in %d classes", tr.Header.Ranks, tr.Classes())
			if n := tr.Classes(); n < c.min || n > c.max {
				t.Errorf("%d classes, want %d to %d", n, c.min, c.max)
			}
		})
	}
}

// TestReplayOfClasses runs the round-trip gate on recordings whose
// classes have members, so every shift a replayer applies is exercised:
// a sendrecv ring (both legs move) and Sweep3D in AM (nine classes of 64
// ranks, send and receive).
func TestReplayOfClasses(t *testing.T) {
	t.Run("sendrecv_ring", func(t *testing.T) {
		m := machine.IBMSP()
		rep, err := mpi.Run(mpi.Config{Ranks: 16, Machine: m, Comm: mpi.Analytic, RecordCalls: true}, benchBody(16, 20))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracein.Record(rep, tracein.Header{Machine: m.Name, Comm: "analytic"})
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, rep, tr, m)
	})
	t.Run("sweep3d_am", func(t *testing.T) {
		rep, tr, m := recordRun(t, "sweep3d", apps.Registry()["sweep3d"].Build(), core.Abstract, 64, smallInputs("sweep3d", 64), "")
		checkRoundTrip(t, rep, tr, m)
	})
}
