package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/check"
	"mpisim/internal/compiler"
	"mpisim/internal/fault"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// The oracle of class-native AM (interp.RunClasses on check.Partition's
// classes) is the same prediction run rank by rank: sideBySide runs both
// and diffs every member's call stream and the -runjson artifact, memory
// fields included. Each mutation below, applied alone, fails the case
// named:
//   - no delay guard (sDelay evaluated, not delayInputs):
//     TestClassNativeAM/hand/delay_input (odd and even ranks take one
//     class, with one and two units of work);
//   - no data-dependence exclusion (inexact a no-op):
//     TestClassNativeAM/hand/allreduce_branch (the representatives run
//     without the reduced value the branch reads);
//   - member memory copied from the representative (TrackAlloc of its
//     bytes in RunClasses): TestClassNativeAM/hand/member_memory;
//   - peer2 not shifted (mpi's replayCall): the program door issues no
//     sendrecv, so tracein's TestReplayOfClasses/sendrecv_ring;
//   - a constant peer left unguarded (streamPeer's offset guard only for
//     a peer that carries a term): TestClassNativeAM/hand/constant_peer
//     (a replay moves the peer the ranks name as rank 0);
//   - no divisor guard: TestClassNativeAM/hand/divisor (rank 5 replays
//     a stream instead of faulting);
//   - representatives opened past the first give-up (Partition's
//     why test): check's TestPartitionStopsAtGiveUp;
//   - the fold skipped on -record (tracein.Record taking the reported
//     streams as the classes): TestClassNativeAM/hand/shifted_bounds
//     (sixteen representatives of one stream).

// sideBySide runs r's AM prediction at a configuration by rank class,
// from one rank on, and rank by rank, with the call log on. It fails
// naming the first member whose stream is not its own, or the first rank
// whose artifact row differs.
func sideBySide(t *testing.T, tag string, r *Runner, ranks int, inputs map[string]float64) {
	t.Helper()
	run := func(from int) (*mpi.Report, error) {
		defer func(old int) { classMinRanks = old }(classMinRanks)
		classMinRanks, r.partCache, r.RecordCalls = from, nil, true
		return r.Run(Abstract, ranks, inputs)
	}
	own, errOwn := run(math.MaxInt)
	cls, errCls := run(1)
	if fmt.Sprint(errOwn) != fmt.Sprint(errCls) {
		t.Fatalf("%s: rank by rank: %v; by class: %v", tag, errOwn, errCls)
	}
	if own == nil || cls == nil {
		return
	}
	hdr := tracein.Header{Machine: r.Machine.Name, Comm: Abstract.Comm()}
	want, err := tracein.Record(own, hdr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracein.Record(cls, hdr)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := check.Partition(r.Compiled.Simplified, ranks, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < ranks; m++ {
		if i := firstDiff(got.CallsOf(m), own.Calls[m]); i >= 0 {
			t.Fatalf("%s: member %d of representative %d: from call %d, class %v, own %v",
				tag, m, rep[m], i, callAt(got.CallsOf(m), i), callAt(own.Calls[m], i))
		}
	}
	if got.Classes() != want.Classes() {
		t.Fatalf("%s: the recording has %d classes, the fold of the ranks' own calls %d", tag, got.Classes(), want.Classes())
	}
	// Every artifact encodes: a non-finite time is refused where it
	// would enter, never written.
	encode := func(rep *mpi.Report) []byte {
		data, err := trace.EncodeArtifact(&trace.Artifact{App: tag, Mode: Abstract.String(), Machine: r.Machine.Name, Inputs: inputs, Report: rep})
		if err != nil {
			t.Fatalf("%s: the artifact does not encode: %v", tag, err)
		}
		return data
	}
	if !bytes.Equal(encode(own), encode(cls)) {
		for m := range own.Ranks {
			if fmt.Sprintf("%+v", own.Ranks[m]) != fmt.Sprintf("%+v", cls.Ranks[m]) {
				t.Fatalf("%s: rank %d (representative %d): by class %+v, own %+v", tag, m, rep[m], cls.Ranks[m], own.Ranks[m])
			}
		}
		t.Fatalf("%s: the artifacts differ", tag)
	}
}

// firstDiff is the first index at which two streams differ, Sec compared
// as bits, or -1.
func firstDiff(a, b []mpi.Call) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) {
			return i
		}
		x, y := a[i], b[i]
		if math.Float64bits(x.Sec) != math.Float64bits(y.Sec) {
			return i
		}
		x.Sec, y.Sec = 0, 0
		if !reflect.DeepEqual(x, y) {
			return i
		}
	}
	return -1
}

func callAt(calls []mpi.Call, i int) interface{} {
	if i < len(calls) {
		return calls[i]
	}
	return "end of stream"
}

// armed is the fault scenario of the property: lossy links with
// retransmission, and a slowed rank.
func armed() *fault.Scenario {
	return &fault.Scenario{
		Seed:    11,
		Loss:    []fault.LossSpec{{Prob: 0.05, From: fault.AnyRank, To: fault.AnyRank}},
		Retry:   &fault.RetryConfig{Timeout: 5e-4, Backoff: 2, MaxRetries: 16},
		Compute: []fault.ComputeSpec{{Rank: 1, Factor: 1.5, Window: fault.Window{End: 1}}},
	}
}

// variants runs f over {flat, torus:dims=4x4} × {healthy, armed} ×
// hosts {1, 2}.
func variants(t *testing.T, prog *ir.Program, f func(tag string, r *Runner)) {
	t.Helper()
	for _, topo := range []string{"flat", "torus:dims=4x4"} {
		for _, faults := range []*fault.Scenario{nil, armed()} {
			for _, hosts := range []int{1, 2} {
				m := machine.IBMSP()
				m.Topology = topo
				r, err := NewRunner(prog, m)
				if err != nil {
					t.Fatal(err)
				}
				r.SkipChecks, r.Faults = true, faults
				r.HostWorkers, r.RealParallel = hosts, hosts > 1
				f(fmt.Sprintf("%s/%s/faults=%v/hosts=%d", prog.Name, topo, faults != nil, hosts), r)
			}
		}
	}
}

// runnerOf is a Runner whose AM program is the given simplified program
// text, with every task time tt.
func runnerOf(t *testing.T, text string, tt float64) *Runner {
	t.Helper()
	prog, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Program: prog, Machine: machine.IBMSP(), Compiled: &compiler.Result{Simplified: prog}, SkipChecks: true}
	r.TaskTimes = map[string]float64{}
	ir.Walk(prog.Body, func(s ir.Stmt) bool {
		if x, ok := s.(*ir.ReadTaskTimes); ok {
			for _, n := range x.Names {
				r.TaskTimes[n] = tt
			}
		}
		return true
	})
	return r
}

// handCases are simplified programs, each of which one mutation of the
// list above breaks.
var handCases = map[string]string{
	// The reduced value reaches a branch: every rank runs on its own.
	"allreduce_branch": `program allreduce_branch
  double precision dummy_buf(4)
  call read_and_broadcast(w_1)
  x = myid
  ALLREDUCE(sum) x
  if ((x > 3)) then
    call delay((2 * w_1)) ! task w_1
  endif
  if ((myid > 0)) then
    SEND dummy_buf(1:4) to (myid - 1) tag 1
  endif
  if ((myid < (P - 1))) then
    RECV dummy_buf(1:4) from (myid + 1) tag 1
  endif
end
`,
	// A delay whose input only the delay reads.
	"delay_input": `program delay_input
  double precision dummy_buf(4)
  call read_and_broadcast(w_1)
  n = (1 + (myid % 2))
  call delay((n * w_1)) ! task w_1
  if ((myid > 0)) then
    SEND dummy_buf(1:4) to (myid - 1) tag 1
  endif
  if ((myid < (P - 1))) then
    RECV dummy_buf(1:4) from (myid + 1) tag 1
  endif
end
`,
	// Every rank sends to rank 0, whatever its offset from it.
	"constant_peer": `program constant_peer
  double precision dummy_buf(4)
  call read_and_broadcast(w_1)
  if ((myid > 0)) then
    SEND dummy_buf(1:4) to 0 tag 1
  endif
  if ((myid == 0)) then
    do i = 1, (P - 1)
      RECV dummy_buf(1:4) from i tag 1
    enddo
  endif
  call delay((2 * w_1)) ! task w_1
end
`,
	// A division by zero at rank 5 alone, in a value nothing reads.
	"divisor": `program divisor
  double precision dummy_buf(4)
  call read_and_broadcast(w_1)
  x = (1 / (myid - 5))
  call delay((2 * w_1)) ! task w_1
  if ((myid > 0)) then
    SEND dummy_buf(1:4) to (myid - 1) tag 1
  endif
  if ((myid < (P - 1))) then
    RECV dummy_buf(1:4) from (myid + 1) tag 1
  endif
end
`,
	// An array sized by the rank: members hold other bytes than their
	// representative, in the same cache regime.
	"member_memory": `program member_memory
  ! input N
  double precision dummy_buf(N)
  double precision V((1 + (myid % 3)))
  call read_and_broadcast(w_1)
  read(*, N)
  do t = 1, 2 ! time
    if ((myid > 0)) then
      SEND dummy_buf(1:N) to (myid - 1) tag 1
    endif
    if ((myid < (P - 1))) then
      RECV dummy_buf(1:N) from (myid + 1) tag 1
    endif
    call delay((N * w_1)) ! task w_1
  enddo
end
`,
	// Bounds that move with the rank over one trip count: a class per
	// rank, three streams.
	"shifted_bounds": `program shifted_bounds
  double precision dummy_buf(4)
  call read_and_broadcast(w_1)
  do i = myid, (myid + 2) ! span
    call delay((3 * w_1)) ! task w_1
  enddo
  if ((myid > 0)) then
    SEND dummy_buf(1:4) to (myid - 1) tag 1
  endif
  if ((myid < (P - 1))) then
    RECV dummy_buf(1:4) from (myid + 1) tag 1
  endif
end
`,
}

// TestClassNativeAM is the property: class-native and rank-by-rank AM
// give the same calls on every rank and the same artifact, over the four
// apps, the example programs, the interpreter's generated corpus and the
// hand cases, on a flat and a torus network, healthy and under faults,
// on one and two host workers.
func TestClassNativeAM(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		for _, name := range apps.Names() {
			for _, ranks := range []int{16, 64} {
				inputs := apps.Registry()[name].Default(ranks)
				if name == "nassp" {
					inputs = apps.NASSPInputs(12, 2, apps.SquareSide(ranks))
				}
				variants(t, apps.Registry()[name].Build(), func(tag string, r *Runner) {
					if _, err := r.EstimateTaskTimes(ranks, inputs); err != nil {
						t.Fatal(err)
					}
					sideBySide(t, fmt.Sprintf("%s/ranks=%d", tag, ranks), r, ranks, inputs)
				})
			}
		}
	})
	t.Run("examples", func(t *testing.T) {
		files, err := filepath.Glob("../../examples/programs/*.ir")
		if err != nil || len(files) == 0 {
			t.Fatalf("no example programs: %v", err)
		}
		inputs := map[string]float64{"N": 32, "STEPS": 2}
		for _, f := range files {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ir.Parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			variants(t, prog, func(tag string, r *Runner) {
				if _, err := r.EstimateTaskTimes(8, inputs); err != nil {
					t.Fatal(err)
				}
				sideBySide(t, tag, r, 8, inputs)
			})
		}
	})
	t.Run("irgen", func(t *testing.T) {
		seeds := int64(200)
		if testing.Short() {
			seeds = 40
		}
		// The interpreter's corpus, whose access shapes receive into and
		// branch on the program's data: every rank runs on its own. Plain,
		// every program folds into classes with members.
		for _, shapes := range []bool{true, false} {
			for seed := int64(0); seed < seeds; seed++ {
				prog, inputs := irgen.Program(seed, irgen.Config{AccessShapes: shapes})
				variants(t, prog, func(tag string, r *Runner) {
					if _, err := r.EstimateTaskTimes(8, inputs); err != nil {
						t.Fatal(err)
					}
					sideBySide(t, fmt.Sprintf("seed=%d/shapes=%v/%s", seed, shapes, tag), r, 8, inputs)
				})
			}
		}
	})
	t.Run("hand", func(t *testing.T) {
		for name, text := range handCases {
			t.Run(name, func(t *testing.T) {
				sideBySide(t, name, runnerOf(t, text, 1e-6), 16, map[string]float64{"N": 8})
			})
		}
		t.Run("nassp_uneven", func(t *testing.T) {
			r, err := NewRunner(apps.NASSP(), machine.IBMSP())
			if err != nil {
				t.Fatal(err)
			}
			inputs := apps.NASSPInputs(14, 1, 4) // columns of 4, 4, 3 and 3 planes
			if _, err := r.Calibrate(16, inputs); err != nil {
				t.Fatal(err)
			}
			sideBySide(t, "nassp_uneven", r, 16, inputs)
		})
	})
}

// TestClassCounters pins the run's counts of executed and replayed
// ranks: Sweep3D's nine classes at 256 ranks, and a data-dependent
// program, every rank of which runs on its own.
func TestClassCounters(t *testing.T) {
	counts := func(r *Runner, ranks int, inputs map[string]float64) (executed, replayed int64) {
		reg := obs.NewRegistry(1)
		reg.SetEnabled(true)
		r.Metrics = reg
		if _, err := r.Run(Abstract, ranks, inputs); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("interp_ranks_executed_total", "").Value(), reg.Counter("interp_ranks_replayed_total", "").Value()
	}
	r, err := NewRunner(apps.Sweep3D(), machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	inputs := apps.Registry()["sweep3d"].Default(256)
	if _, err := r.EstimateTaskTimes(256, inputs); err != nil {
		t.Fatal(err)
	}
	if e, p := counts(r, 256, inputs); e != 9 || p != 247 {
		t.Errorf("sweep3d at 256 ranks: %d executed, %d replayed; want 9 and 247", e, p)
	}
	if e, p := counts(runnerOf(t, handCases["allreduce_branch"], 1e-6), 256, nil); e != 256 || p != 0 {
		t.Errorf("allreduce_branch at 256 ranks: %d executed, %d replayed; want 256 and 0", e, p)
	}
	if e, p := counts(r, 196, apps.Registry()["sweep3d"].Default(196)); e != 196 || p != 0 {
		t.Errorf("sweep3d at 196 ranks, below the class threshold: %d executed, %d replayed; want 196 and 0", e, p)
	}
}

// TestClassNote: a prediction some of whose ranks run on their own says
// so in one note, and one whose classes cover every rank says nothing.
func TestClassNote(t *testing.T) {
	const reduced = `program reduced
  ! input N
  double precision A(N)
  read(*, N)
  x = myid
  ALLREDUCE(sum) x
  if ((x > 3)) then
    if ((myid > 0)) then
      SEND A(1:N) to (myid - 1) tag 1
    endif
    if ((myid < (P - 1))) then
      RECV A(1:N) from (myid + 1) tag 1
    endif
  endif
end
`
	for _, c := range []struct {
		spec RunSpec
		want []string
	}{
		{RunSpec{Program: reduced, Mode: "am", Ranks: 256, Inputs: map[string]float64{"N": 8}},
			[]string{"note: 256 of 256 ranks run the interpreter each: the call stream of rank 0 depends on values known only as it runs, such as received or reduced data"}},
		{RunSpec{App: "sweep3d", Mode: "am", Ranks: 256}, nil},
	} {
		c.spec.Normalize()
		plan, err := Prepare(&c.spec, mpi.Config{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan.Warnings, c.want) {
			t.Errorf("%s: warnings %q, want %q", plan.App, plan.Warnings, c.want)
		}
	}
}
