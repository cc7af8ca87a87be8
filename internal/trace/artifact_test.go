package trace

import (
	"path/filepath"
	"strings"
	"testing"

	"mpisim/internal/mpi"
	"mpisim/internal/sim"
)

func abortedArtifact() *Artifact {
	rep := &mpi.Report{
		Time:        2.5,
		Partial:     true,
		AbortReason: "event budget exhausted: 1000000 events committed",
		Ranks: []mpi.RankStats{{
			ProcStats: sim.ProcStats{ComputeTime: 2, BlockedTime: 0.5, FinishTime: 2.5},
		}},
	}
	return &Artifact{App: "app", Mode: "MPI-SIM", Progress: 0.42, Report: rep}
}

// TestPartialWarningIncludesProgress pins the mpireport warning
// contract: an aborted fixture round-trips through the artifact file
// and its warning carries the shortened reason, the budget that stopped
// the run and the consumed fraction of its budget, never as a fraction
// of the program complete.
func TestPartialWarningIncludesProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aborted.json")
	if err := WriteArtifact(path, abortedArtifact()); err != nil {
		t.Fatal(err)
	}
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Partial || a.AbortReason == "" {
		t.Fatalf("round-trip lost partial status: %+v", a)
	}
	if a.Progress != 0.42 {
		t.Fatalf("round-trip lost progress: %g", a.Progress)
	}
	w := PartialWarning(path, a)
	for _, want := range []string{
		"partial run",
		"aborted: event budget exhausted",
		"stopped by its event budget",
		"~42% of its budget used at abort",
		"understates the full execution",
	} {
		if !strings.Contains(w, want) {
			t.Errorf("warning missing %q:\n%s", want, w)
		}
	}
	if strings.Contains(w, "complete") {
		t.Errorf("warning should not read the budget fraction as the run's completion:\n%s", w)
	}
	if strings.Contains(w, "1000000 events") {
		t.Errorf("warning should shorten the reason at ':':\n%s", w)
	}
}

func TestPartialWarningWithoutProgress(t *testing.T) {
	a := abortedArtifact()
	a.Partial = true
	a.AbortReason = "watchdog"
	a.Progress = 0
	w := PartialWarning("x.json", a)
	if strings.Contains(w, "% of its budget") || strings.Contains(w, "stopped by") {
		t.Errorf("warning should omit progress when unknown, and name no budget a watchdog stop:\n%s", w)
	}
	if !strings.Contains(w, "aborted: watchdog)") {
		t.Errorf("warning should keep a colon-free reason whole:\n%s", w)
	}
	if PartialWarning("x.json", &Artifact{Report: a.Report}) != "" {
		t.Error("non-partial artifact should produce no warning")
	}
}
