package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mpisim/internal/core"
	"mpisim/internal/trace"
)

// TestMain lets the test binary double as the mpisim CLI: when
// re-executed with MPISIM_SIGNAL_CHILD=1 it runs main() with the
// remaining arguments, so the signal tests exercise the real
// signal-handling path of a real process.
func TestMain(m *testing.M) {
	if os.Getenv("MPISIM_SIGNAL_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInterruptWritesPartialArtifact sends SIGINT to a long mpisim run
// and verifies the graceful-abort contract: exit status 1 (not a
// signal death), and the -runjson artifact written anyway, flagged
// partial with a cancellation abort reason.
func TestInterruptWritesPartialArtifact(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signals required")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	artifact := filepath.Join(t.TempDir(), "run.json")
	// A deliberately long run with a blocking exchange every iteration:
	// each iteration yields to the kernel, so the cancellation guard can
	// trip promptly, and ITERS this size keeps the run busy (~15s) far
	// beyond the interrupt delay below.
	cmd := exec.Command(exe,
		"-app", "sample", "-mode", "measured", "-ranks", "4",
		"-inputs", "PATTERN=2,ITERS=500000,WORK=100,MSG=64",
		"-nocheck", "-runjson", artifact)
	cmd.Env = append(os.Environ(), "MPISIM_SIGNAL_CHILD=1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("child did not exit after SIGINT; output:\n%s", out.String())
	}

	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("child exited cleanly; SIGINT should abort with status 1 (output:\n%s)", out.String())
	}
	if ws := ee.Sys().(syscall.WaitStatus); ws.Signaled() {
		t.Fatalf("child died of signal %v instead of handling it; output:\n%s", ws.Signal(), out.String())
	} else if ws.ExitStatus() != 1 {
		t.Fatalf("exit status = %d, want 1; output:\n%s", ws.ExitStatus(), out.String())
	}

	a, err := trace.ReadArtifact(artifact)
	if err != nil {
		t.Fatalf("partial artifact missing after SIGINT: %v (output:\n%s)", err, out.String())
	}
	if !a.Partial {
		t.Errorf("artifact.Partial = false, want true")
	}
	if !strings.Contains(a.AbortReason, "canceled") {
		t.Errorf("artifact.AbortReason = %q, want a cancellation reason", a.AbortReason)
	}
	if !strings.Contains(out.String(), "cancelling run") {
		t.Errorf("stderr missing the cancellation notice; output:\n%s", out.String())
	}
}

// TestWallTimeoutStopsAComputingRank: a rank inside a compute loop makes
// no kernel call, so the abort has to reach it there. The spin program
// would run for minutes; with a 200 ms budget the process must be gone
// within 2 s, with status 1, the cancellation reported and the partial
// result printed — with a barrier behind the loop and with no
// communication at all. Not a golden: how far the loop got when the
// budget ran out depends on the host.
func TestWallTimeoutStopsAComputingRank(t *testing.T) {
	for _, prog := range []string{"spin.ir", "spin_local.ir"} {
		start := time.Now()
		stdout, stderr, code := mpisimChild(t, self(t), "-file", fixtures+prog, "-inputs", "N=2000000000",
			"-mode", "de", "-ranks", "2", "-walltimeout", "200ms")
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s: took %v to stop a computing rank, want under 2s", prog, elapsed)
		}
		if code != 1 {
			t.Errorf("%s: exit status = %d, want 1", prog, code)
		}
		if !bytes.Contains(stderr, []byte("run aborted: canceled")) {
			t.Errorf("%s: stderr does not report the cancellation:\n%s", prog, stderr)
		}
		if !bytes.Contains(stdout, []byte("PARTIAL result (aborted: canceled")) {
			t.Errorf("%s: stdout does not print the partial result:\n%s", prog, stdout)
		}
	}
}

// mpisimChild runs exe (the test binary re-executed as mpisim, unless a
// test substitutes another build) from the repository root, so example
// paths print as users type them, and returns what it wrote and its
// exit code.
func mpisimChild(t *testing.T, exe string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), "MPISIM_SIGNAL_CHILD=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("mpisim %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outBuf.Bytes(), errBuf.Bytes(), code
}

// self is the path of the running test binary.
func self(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestHooksObserveThePredictionOnly: -metrics and -tracefile describe
// the predicted run, not the calibration run that preceded it. The
// event counter must equal the artifact's kernel event count (it used to
// exceed it by the calibration run's events), and the trace file must
// hold one run's simulator tracks, not two superimposed.
func TestHooksObserveThePredictionOnly(t *testing.T) {
	dir := t.TempDir()
	artifact, traceFile := filepath.Join(dir, "run.json"), filepath.Join(dir, "run.jsonl")
	_, stderr, code := mpisimChild(t, self(t), "-app", "sweep3d", "-mode", "am", "-ranks", "8",
		"-metrics", "-runjson", artifact, "-tracefile", traceFile, "-traceformat", "jsonl")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	a, err := trace.ReadArtifact(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var metered int64 = -1
	for _, line := range strings.Split(string(stderr), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "sim_events_total" {
			metered, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	if metered != a.Report.Kernel.Events {
		t.Errorf("sim_events_total = %d, the artifact's report.kernel.events = %d", metered, a.Report.Kernel.Events)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"name":"simulator (host workers)"`); n != 1 {
		t.Errorf("trace file declares the simulator process %d times, want once (one run)", n)
	}
}

// TestReplayRefusalsMatchTheDaemon: the options a replay cannot honour
// are refused with the message mpisimd answers 400 with for the same
// spec, because both doors run core.RunSpec's Validate.
func TestReplayRefusalsMatchTheDaemon(t *testing.T) {
	ring, err := os.ReadFile(filepath.Join("..", "..", ringTrace))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "ring.ir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flags []string
		spec  core.RunSpec // what a client would POST for the same request
	}{
		{[]string{"-cal-ranks", "4"}, core.RunSpec{CalRanks: 4}},
		{[]string{"-tasktimes", fixtures + "sweep3d.tt"}, core.RunSpec{TaskTimes: map[string]float64{"w_1": 6e-9}}},
		{[]string{"-app", "sweep3d"}, core.RunSpec{App: "sweep3d"}},
		{[]string{"-file", "examples/programs/ring.ir"}, core.RunSpec{Program: string(prog)}},
		{[]string{"-nocheck"}, core.RunSpec{SkipChecks: true}},
		{[]string{"-ranks", "4"}, core.RunSpec{Ranks: 4}},
	} {
		c.spec.Trace = string(ring)
		c.spec.Normalize()
		want := c.spec.Validate(0)
		if want == nil {
			t.Fatalf("%v: the daemon's Validate accepts the spec", c.flags)
		}
		_, stderr, code := mpisimChild(t, self(t), append([]string{"-tracein", ringTrace}, c.flags...)...)
		if code != 1 {
			t.Errorf("%v: exit %d under -tracein, want 1", c.flags, code)
		}
		if got := strings.TrimSpace(string(stderr)); got != "mpisim: "+want.Error() {
			t.Errorf("%v:\n  mpisim says:  %s\n  mpisimd says: %s", c.flags, got, want)
		}
	}
}
