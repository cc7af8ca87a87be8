package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mpisim/internal/mpi"
)

// Artifact is the on-disk record of one simulation run, written by the
// CLIs (-runjson) and consumed by cmd/mpireport to attribute
// scaling loss between configurations. It carries the full Report plus
// the identifying metadata the report alone lacks.
type Artifact struct {
	// App names the simulated program.
	App string `json:"app,omitempty"`
	// Mode is the evaluation mode ("measured", "MPI-SIM-AM", ...).
	Mode string `json:"mode,omitempty"`
	// Machine names the target machine model.
	Machine string `json:"machine,omitempty"`
	// Ranks is the target process count.
	Ranks int `json:"ranks"`
	// Inputs are the problem-size parameters of the run.
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// PredictedTime duplicates Report.Time for cheap scanning.
	PredictedTime float64 `json:"predicted_time"`
	// Partial / AbortReason duplicate the report's graceful-degradation
	// status: a run stopped by a budget, watchdog, cancellation or crash
	// still writes its artifact, flagged so downstream tools can tell a
	// truncated prediction from a completed one.
	Partial     bool   `json:"partial,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	// Progress is the fraction of its budget (virtual time, else events)
	// a partial run consumed, in [0,1]: how much execution the truncated
	// prediction covers. It is 0 for a complete run and for a partial one
	// with neither budget.
	Progress float64 `json:"progress,omitempty"`
	// TaskLines / TaskHeads anchor condensed-task names (w_i) to the
	// original program's canonical listing, from compiler.TaskLines.
	TaskLines map[string]int    `json:"task_lines,omitempty"`
	TaskHeads map[string]string `json:"task_heads,omitempty"`
	// Report is the run's full simulation report.
	Report *mpi.Report `json:"report"`
}

// EncodeArtifact normalizes the report-derived fields and renders the
// artifact as indented JSON (with a trailing newline). The bytes are
// deterministic for a deterministic report, which is what lets the
// service daemon content-address artifacts and prove cached submissions
// byte-identical to fresh runs.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	if a.Report == nil {
		return nil, fmt.Errorf("trace: artifact has no report")
	}
	a.PredictedTime = a.Report.Time
	a.Ranks = len(a.Report.Ranks)
	a.Partial = a.Report.Partial
	a.AbortReason = a.Report.AbortReason
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeArtifact parses artifact bytes produced by EncodeArtifact.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if a.Report == nil {
		return nil, fmt.Errorf("trace: artifact has no report")
	}
	return &a, nil
}

// WriteArtifact writes a run artifact as indented JSON.
func WriteArtifact(path string, a *Artifact) error {
	data, err := EncodeArtifact(a)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// PartialWarning renders the one-line warning mpireport prints for a
// partial artifact: the (shortened) abort reason, the budget that stopped
// the run when one did, and its progress, the consumed fraction of its
// budget, when it had one. That fraction is of a budget, not of the
// program: the kernel stops at or past a budget, so a run stopped by one
// reads about 100% however little of its program it covered. Returns ""
// for a complete artifact.
func PartialWarning(path string, a *Artifact) string {
	if !a.Partial {
		return ""
	}
	reason := a.AbortReason
	if i := strings.IndexByte(reason, ':'); i > 0 {
		reason = reason[:i]
	}
	if reason == "" {
		reason = "unknown"
	}
	s := fmt.Sprintf("%s is a partial run (aborted: %s", path, reason)
	if budget, ok := strings.CutSuffix(reason, " exhausted"); ok && strings.HasSuffix(budget, "budget") {
		s += "; stopped by its " + budget
	}
	if a.Progress > 0 {
		s += fmt.Sprintf("; ~%.0f%% of its budget used at abort", 100*a.Progress)
	}
	return s + "); its attribution understates the full execution"
}

// ReadArtifact loads a run artifact written by WriteArtifact.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return a, nil
}
