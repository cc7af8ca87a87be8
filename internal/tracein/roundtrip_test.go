package tracein_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/core"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/tracein"
)

// The round-trip gate: simulate → record → write → parse → replay on
// the same machine/topology configuration must reproduce the predicted
// schedule exactly. Replay re-issues the identical API call sequence
// with nil payloads, and the simulator's timing depends only on call
// arguments, so per-rank finish times are required to match to the bit,
// not to a tolerance.

// smallInputs are per-app problem sizes small enough for the full
// matrix (mirrors the core package's flat-test inputs).
func smallInputs(app string, ranks int) map[string]float64 {
	gx, gy := apps.ProcGrid(ranks)
	switch app {
	case "tomcatv":
		return apps.TomcatvInputs(64, 2)
	case "sweep3d":
		return apps.Sweep3DInputs(4, 4, 8, 2, gx, gy)
	case "nassp":
		return apps.NASSPInputs(16, 2, 2)
	case "sample":
		return apps.SampleInputs(apps.PatternWavefront, 500, 256, 4, gx, gy)
	}
	return nil
}

// recordRun simulates prog with call recording on and returns the
// report plus the recorded trace (with full provenance header).
func recordRun(t testing.TB, app string, prog *ir.Program, mode core.Mode,
	ranks int, inputs map[string]float64, topo string) (*mpi.Report, *tracein.Trace, *machine.Model) {
	t.Helper()
	m := machine.IBMSP()
	m.Topology = topo
	r, err := core.NewRunner(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordCalls = true
	if mode == core.Abstract || mode == core.PureAnalytic {
		if _, err := r.Calibrate(ranks, inputs); err != nil {
			t.Fatalf("calibrate: %v", err)
		}
	}
	rep, err := r.Run(mode, ranks, inputs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := tracein.Record(rep, tracein.Header{
		App:       app,
		Mode:      mode.String(),
		Machine:   m.Name,
		Comm:      mode.Comm(),
		Inputs:    inputs,
		TaskScale: r.Compiled.TaskScales(),
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rep, tr, m
}

// recordSweep3D records the bench workload's program — sweep3d in
// MPI-SIM-AM at its default per-rank problem size — at the given rank
// count.
func recordSweep3D(t testing.TB, ranks int) *tracein.Trace {
	t.Helper()
	gx, gy := apps.ProcGrid(ranks)
	_, tr, _ := recordRun(t, "sweep3d", apps.Registry()["sweep3d"].Build(), core.Abstract,
		ranks, apps.Sweep3DInputs(4, 4, 40, 10, gx, gy), "")
	return tr
}

// checkRoundTrip drives one recorded run through the full
// write→parse→replay→re-record cycle and checks every gate.
func checkRoundTrip(t *testing.T, rep *mpi.Report, tr *tracein.Trace, m *machine.Model) {
	t.Helper()

	// Serialization round-trip: the parsed trace is structurally
	// identical to the recorded one.
	var buf bytes.Buffer
	if err := tracein.Write(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := checkAgainstReference(t, buf.Bytes())
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if !reflect.DeepEqual(parsed, tr) {
		t.Fatalf("parsed trace differs from recorded trace")
	}

	// Replay on the same machine reproduces the schedule exactly, and
	// every rank of it runs as a continuation: none on a goroutine.
	reg := obs.NewRegistry(1)
	reg.SetEnabled(true)
	rep2, err := tracein.Replay(parsed, mpi.Config{Machine: m, RecordCalls: true, Metrics: reg})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	counts := map[string]float64{}
	for _, s := range reg.Snapshot() {
		counts[s.Name] = s.Value
	}
	if fb, c, ev := counts["sim_goroutine_fallbacks_total"], counts["sim_continuations_total"], counts["sim_events_total"]; fb != 0 || c != ev || ev == 0 {
		t.Errorf("replay: %v goroutine fallbacks, %v continuations for %v events; want 0 and one per event", fb, c, ev)
	}
	if rep2.Time != rep.Time {
		t.Errorf("replayed Time %v != simulated %v", rep2.Time, rep.Time)
	}
	if len(rep2.Ranks) != len(rep.Ranks) {
		t.Fatalf("replayed %d ranks, want %d", len(rep2.Ranks), len(rep.Ranks))
	}
	for i := range rep.Ranks {
		if rep2.Ranks[i].FinishTime != rep.Ranks[i].FinishTime {
			t.Errorf("rank %d: replayed finish %v != simulated %v",
				i, rep2.Ranks[i].FinishTime, rep.Ranks[i].FinishTime)
		}
	}

	// The attribution identity holds on the replayed report: a rank's
	// local clock is exactly its advanced time plus its blocked time.
	for i, rs := range rep2.Ranks {
		sum := float64(rs.ComputeTime) + float64(rs.BlockedTime)
		if diff := math.Abs(sum - float64(rs.FinishTime)); diff > 1e-9*(1+math.Abs(float64(rs.FinishTime))) {
			t.Errorf("rank %d: attribution identity broken: compute %v + blocked %v != finish %v",
				i, rs.ComputeTime, rs.BlockedTime, rs.FinishTime)
		}
	}

	// Re-recording the replay is a fixed point: byte-identical trace.
	tr2, err := tracein.Record(rep2, tr.Header)
	if err != nil {
		t.Fatalf("re-record: %v", err)
	}
	var buf2 bytes.Buffer
	if err := tracein.Write(&buf2, tr2); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("re-recorded trace is not byte-identical to the original")
	}
}

// TestRoundTripApps runs the gate for every registered application in
// measured mode (full computation, detailed communication) at 4 ranks.
func TestRoundTripApps(t *testing.T) {
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		inputs := smallInputs(name, 4)
		if inputs == nil {
			t.Fatalf("no inputs for app %q", name)
		}
		t.Run(name, func(t *testing.T) {
			rep, tr, m := recordRun(t, name, spec.Build(), core.Measured, 4, inputs, "")
			checkRoundTrip(t, rep, tr, m)
		})
	}
}

// TestRoundTripAbstract runs the gate in MPI-SIM-AM mode, where the
// recorded calls are condensed-task delays rather than computes and the
// header carries the tasks' symbolic scaling functions.
func TestRoundTripAbstract(t *testing.T) {
	spec := apps.Registry()["sample"]
	inputs := smallInputs("sample", 4)
	rep, tr, m := recordRun(t, "sample", spec.Build(), core.Abstract, 4, inputs, "")
	if len(tr.Header.TaskScale) == 0 {
		t.Fatalf("abstract-mode trace carries no task scaling functions")
	}
	checkRoundTrip(t, rep, tr, m)
}

// TestRoundTripTopology runs the gate under a contended torus so the
// replayed schedule includes interconnect queueing.
func TestRoundTripTopology(t *testing.T) {
	spec := apps.Registry()["sample"]
	inputs := smallInputs("sample", 4)
	rep, tr, m := recordRun(t, "sample", spec.Build(), core.Measured, 4, inputs, "torus:dims=2x2")
	if rep.Net == nil {
		t.Fatalf("topology run produced no network stats")
	}
	checkRoundTrip(t, rep, tr, m)
}

// TestRoundTripExamples runs the gate for every example pseudocode
// program in MPI-SIM-DE mode.
func TestRoundTripExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/programs/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	inputs := map[string]float64{"N": 32, "STEPS": 2}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			rep, tr, m := recordRun(t, filepath.Base(f), prog, core.DirectExec, 4, inputs, "")
			checkRoundTrip(t, rep, tr, m)
		})
	}
}

// TestRoundTripEveryOp runs the gate on a hand-written body that issues
// every recordable op — variable-size scatter and alltoall (the lines
// that carry sizes), a wildcard receive, an escaped task name — and
// enough calls per rank to span several of the recorder's chunks.
func TestRoundTripEveryOp(t *testing.T) {
	const p = 4
	m := machine.IBMSP()
	sizes := []int64{8, 0, 4096, 1 << 20}
	body := func(r *mpi.Rank) {
		me := r.Rank()
		next, prev := (me+1)%p, (me+p-1)%p
		for step := 0; step < 60; step++ {
			r.Compute(1e-7 * float64(step+1))
			r.DelayTask("w_1", 2.5e-5)
			r.Sendrecv(next, step, 512, nil, prev, step)
		}
		r.DelayTask(`odd "task" <&> é`+"\n", 1e-21)
		r.Delay(3e21)
		if me == 0 {
			r.Send(1, 7, 64, nil)
		} else if me == 1 {
			r.RecvSized(mpi.AnySource, 7, 64)
		}
		r.Bcast(2, nil, 1024)
		r.Reduce(1, nil, 256, mpi.OpSum)
		r.Allreduce(nil, 8, mpi.OpSum)
		r.Gather(3, nil, 128)
		r.ScatterSizes(0, sizes, 0)
		r.Allgather(nil, 32)
		r.AlltoallSizes(sizes, 0)
		r.Barrier()
	}
	rep, err := mpi.Run(mpi.Config{Ranks: p, Machine: m, Comm: mpi.Analytic, RecordCalls: true}, body)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracein.Record(rep, tracein.Header{App: "everyop", Machine: m.Name, Comm: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Calls[0]); n < 16+128+1 {
		t.Fatalf("rank 0 recorded %d calls: too few to span three recorder chunks", n)
	}
	checkRoundTrip(t, rep, tr, m)
}
