package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/fault"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// Scheduler-equivalence property tests: how the kernel schedules the
// ranks over host workers must be invisible in every simulation
// artifact. Each program runs across worker counts — the full report AND
// the exported simulated-plane trace artifact must be byte-identical in
// every cell. (The two ways a rank can be written, handler or blocking
// body, are held to each other by mpi's everyop_test.go.)

// schedWorkers is the worker-count axis.
var schedWorkers = []int{1, 2, 8}

// runSched runs prog in measured mode at 4 ranks and returns the
// canonical report JSON (kernel meta-result dropped, as in the flat
// regression tests) plus the exported trace artifact.
func runSched(t *testing.T, prog *ir.Program, inputs map[string]float64,
	topo string, faults *fault.Scenario, workers int) (string, string) {
	t.Helper()
	m := machine.IBMSP()
	m.Topology = topo
	r, err := NewRunner(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	r.HostWorkers = workers
	r.RealParallel = workers > 1
	r.CollectMatrix = true
	r.CollectTrace = true
	r.Faults = faults
	rep, err := r.Run(Measured, 4, inputs)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	rep.Kernel = nil
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tr := obs.NewTracer(obs.NewJSONLSink(&sb))
	if err := trace.Export(tr, rep); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return string(b), sb.String()
}

// checkSchedMatrix runs one program at every worker count and asserts
// every cell equals the workers=1 reference.
func checkSchedMatrix(t *testing.T, name string, build func() *ir.Program,
	inputs map[string]float64, topo string, faults *fault.Scenario) {
	t.Helper()
	refRep, refTrace := runSched(t, build(), inputs, topo, faults, 1)
	for _, workers := range schedWorkers[1:] {
		rep, tr := runSched(t, build(), inputs, topo, faults, workers)
		label := fmt.Sprintf("%s workers=%d", name, workers)
		if rep != refRep {
			t.Errorf("%s: report diverged from workers=1", label)
		}
		if tr != refTrace {
			t.Errorf("%s: trace artifact diverged from workers=1", label)
		}
	}
}

// TestSchedEquivalenceApps covers every registered application on the
// flat model.
func TestSchedEquivalenceApps(t *testing.T) {
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		inputs := flatInputs(name, 4)
		if inputs == nil {
			t.Fatalf("no inputs for app %q", name)
		}
		checkSchedMatrix(t, name, spec.Build, inputs, "", nil)
	}
}

// TestSchedEquivalenceExamples covers the example pseudocode programs.
func TestSchedEquivalenceExamples(t *testing.T) {
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
		build := func() *ir.Program {
			prog, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			return prog
		}
		checkSchedMatrix(t, filepath.Base(f), build, inputs, "", nil)
	}
}

// TestSchedEquivalenceTopology drives the interconnect fabric — itself a
// process of the kernel — under a contended torus.
func TestSchedEquivalenceTopology(t *testing.T) {
	spec := apps.Registry()["sample"]
	checkSchedMatrix(t, "sample/torus", spec.Build, flatInputs("sample", 4),
		"torus:dims=2x2", nil)
}

// TestSchedEquivalenceTelemetry pins the telemetry plane's first
// invariant: results are byte-identical whether the timeline/run-info
// plane is absent ("off"), attached but disabled, or armed with an
// aggressive sampling cadence — across worker counts. Telemetry reads
// the simulation; it must never steer it.
func TestSchedEquivalenceTelemetry(t *testing.T) {
	spec := apps.Registry()["sample"]
	inputs := flatInputs("sample", 4)
	modes := []string{"off", "disabled", "armed"}
	workerCounts := []int{1, 2, 8}

	run := func(mode string, workers int) (string, string) {
		r, err := NewRunner(spec.Build(), machine.IBMSP())
		if err != nil {
			t.Fatal(err)
		}
		r.HostWorkers = workers
		r.RealParallel = workers > 1
		r.CollectMatrix = true
		r.CollectTrace = true
		switch mode {
		case "disabled":
			r.Timeline = obs.NewTimeline(nil, obs.TimelineOptions{})
			r.RunInfo = obs.NewRunInfo()
		case "armed":
			tl := obs.NewTimeline(nil, obs.TimelineOptions{EveryEvents: 1})
			tl.SetEnabled(true)
			r.Timeline = tl
			r.RunInfo = obs.NewRunInfo()
		}
		rep, err := r.Run(Measured, 4, inputs)
		if err != nil {
			t.Fatalf("mode=%s workers=%d: %v", mode, workers, err)
		}
		if mode == "armed" {
			if _, seq := r.Timeline.Since(0); seq == 0 {
				t.Fatalf("mode=%s workers=%d: armed timeline captured nothing", mode, workers)
			}
			if r.RunInfo.Status().State != obs.RunDone {
				t.Fatalf("mode=%s workers=%d: run info not done: %v",
					mode, workers, r.RunInfo.Status().State)
			}
		}
		rep.Kernel = nil
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tr := obs.NewTracer(obs.NewJSONLSink(&sb))
		if err := trace.Export(tr, rep); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return string(b), sb.String()
	}

	refRep, refTrace := run("off", 1)
	for _, mode := range modes {
		for _, workers := range workerCounts {
			if mode == "off" && workers == 1 {
				continue
			}
			rep, tr := run(mode, workers)
			if rep != refRep {
				t.Errorf("telemetry=%s workers=%d: report diverged from off/workers=1", mode, workers)
			}
			if tr != refTrace {
				t.Errorf("telemetry=%s workers=%d: trace diverged from off/workers=1", mode, workers)
			}
		}
	}
}

// TestSchedEquivalenceReplay extends the matrix to the trace frontend:
// a recorded trace replayed through internal/tracein must produce a
// byte-identical report, exported trace artifact AND re-recorded trace
// across worker counts, with no rank needing a goroutine of its own.
// Replay is the second front door to the kernel; the determinism
// invariant holds there too.
func TestSchedEquivalenceReplay(t *testing.T) {
	spec := apps.Registry()["sample"]
	inputs := flatInputs("sample", 4)
	m := machine.IBMSP()
	r, err := NewRunner(spec.Build(), m)
	if err != nil {
		t.Fatal(err)
	}
	r.RecordCalls = true
	rep, err := r.Run(Measured, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracein.Record(rep, tracein.Header{
		App: "sample", Machine: m.Name, Comm: "detailed", Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (string, string, string) {
		reg := obs.NewRegistry(workers)
		reg.SetEnabled(true)
		rep2, err := tracein.Replay(tr, mpi.Config{
			Machine:       m,
			HostWorkers:   workers,
			RealParallel:  workers > 1,
			CollectMatrix: true,
			CollectTrace:  true,
			RecordCalls:   true,
			Metrics:       reg,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Every rank of a replay is a handler chain.
		seen := false
		for _, s := range reg.Snapshot() {
			if s.Name == "sim_goroutine_fallbacks_total" {
				seen = true
				if s.Value != 0 {
					t.Errorf("workers=%d: %v goroutine fallbacks, want 0", workers, s.Value)
				}
			}
		}
		if !seen {
			t.Errorf("workers=%d: sim_goroutine_fallbacks_total not reported", workers)
		}
		rep2.Kernel = nil
		b, err := json.Marshal(rep2)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tre := obs.NewTracer(obs.NewJSONLSink(&sb))
		if err := trace.Export(tre, rep2); err != nil {
			t.Fatal(err)
		}
		if err := tre.Close(); err != nil {
			t.Fatal(err)
		}
		rerec, err := tracein.Record(rep2, tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tracein.Write(&buf, rerec); err != nil {
			t.Fatal(err)
		}
		return string(b), sb.String(), buf.String()
	}

	refRep, refTrace, refRecord := run(1)
	for _, workers := range schedWorkers[1:] {
		gotRep, gotTrace, gotRecord := run(workers)
		label := fmt.Sprintf("replay workers=%d", workers)
		if gotRep != refRep {
			t.Errorf("%s: report diverged from workers=1 reference", label)
		}
		if gotTrace != refTrace {
			t.Errorf("%s: trace artifact diverged from workers=1 reference", label)
		}
		if gotRecord != refRecord {
			t.Errorf("%s: re-recorded trace diverged from workers=1 reference", label)
		}
	}
}

// TestSchedEquivalenceFaults arms a deterministic fault scenario (loss
// with retries, delay injection) so the retransmission machinery runs
// identically at every worker count.
func TestSchedEquivalenceFaults(t *testing.T) {
	spec := apps.Registry()["sample"]
	faults := &fault.Scenario{
		Seed:  42,
		Loss:  []fault.LossSpec{{Prob: 0.02, From: fault.AnyRank, To: fault.AnyRank}},
		Retry: &fault.RetryConfig{Timeout: 5e-4, Backoff: 2, MaxRetries: 16},
	}
	checkSchedMatrix(t, "sample/faults", spec.Build, flatInputs("sample", 4), "", faults)
}

// TestSchedEquivalenceCalibrated holds the whole AM pipeline — calibration
// included — to one answer on a contended topology: `mpisim -app sweep3d
// -mode am -ranks 16 -topology torus:dims=4x4 -hosts H`, ten times at
// each of H = 1, 2, 8 real workers. While calibration ran on the
// prediction's engine, its collector summed the samples in the order the
// workers reached it, and every rank's ComputeTime moved in the last ulp
// from run to run.
func TestSchedEquivalenceCalibrated(t *testing.T) {
	spec := &RunSpec{App: "sweep3d", Mode: "am", Ranks: 16, Topology: "torus:dims=4x4"}
	spec.Normalize()
	if err := spec.Validate(0); err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 10; rep++ {
			plan, err := Prepare(spec, mpi.Config{HostWorkers: workers, RealParallel: workers > 1}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := plan.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// How the engine's workers synchronised is not the prediction.
			out.Artifact.Report.Kernel.Windows, out.Artifact.Report.Kernel.CrossWorker = 0, 0
			got, err := trace.EncodeArtifact(out.Artifact)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
			} else if !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d, repeat %d: artifact differs from the first run's", workers, rep)
			}
		}
	}
}
