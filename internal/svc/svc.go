// Package svc turns the one-shot simulation CLI into a long-running
// simulation-as-a-service daemon (cmd/mpisimd): clients POST a job spec
// (program + machine/topology/placement/fault configuration), poll the
// job through its lifecycle, and fetch the run artifact when it reaches
// a terminal state.
//
// Robustness is the core of the design, not a bolt-on:
//
//   - Admission control: a bounded queue with configurable concurrency.
//     Submissions beyond capacity get 429 + Retry-After instead of
//     accepting unbounded work; a draining server answers 503.
//   - Isolation: every job runs under its own sim.Limits (event,
//     virtual-time and wall budgets, no-progress watchdog) and a panic
//     guard, so one poisoned job yields a `failed` record — with the
//     *sim.PanicError snapshot when the kernel captured one — while the
//     server keeps serving.
//   - Crash safety: every job mutation is journaled write-ahead to an
//     append-only JSONL file, and artifacts live in a content-addressed
//     store (sha256-named, checksum-verified on read, temp+rename
//     writes). A killed-and-restarted daemon replays the journal,
//     re-enqueues queued jobs and deterministically resolves interrupted
//     ones (re-run, or mark aborted), and sweeps orphaned artifacts.
//   - Graceful drain: on SIGTERM the server stops admitting, cancels
//     running jobs via their contexts, persists their partial artifacts
//     (Artifact.Partial + progress %) and exits; still-queued jobs stay
//     `pending` in the journal and are recovered by the next start.
//   - Caching: compiled IR/STG and calibration tables are
//     content-addressed by program + machine configuration, so repeat
//     submissions skip the compiler (and calibration); whole artifacts
//     are content-addressed by the full spec, so an identical
//     resubmission is answered from the store — byte-identical to a
//     fresh run by the determinism gates.
//
// The per-run telemetry plane (obs.Timeline / obs.RunInfo, PR 8) is
// mounted per job at /jobs/{id}/obs/*.
package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"mpisim/internal/core"
)

// JobState is the lifecycle state of one submitted job.
type JobState string

// Job lifecycle: pending → compiling → running → done | aborted | failed.
const (
	// JobPending: journaled and queued, not yet picked up by a worker.
	JobPending JobState = "pending"
	// JobCompiling: a worker is compiling (and, for AM mode,
	// calibrating) the program; skipped on a compile-cache hit.
	JobCompiling JobState = "compiling"
	// JobRunning: the simulation is executing.
	JobRunning JobState = "running"
	// JobDone: completed; the artifact is in the store.
	JobDone JobState = "done"
	// JobAborted: stopped before completion (budget, watchdog, client
	// cancel, drain, or daemon restart); a partial artifact may exist.
	JobAborted JobState = "aborted"
	// JobFailed: the job itself was poisoned — compile/validation error,
	// static-verification refusal, or a panic (spec materialization or a
	// simulated-process body, captured as a *sim.PanicError snapshot).
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobAborted || s == JobFailed
}

// JobSpec is the submission body of POST /jobs: the run description
// both front doors share. SpecLimits are the budgets it may request.
type (
	JobSpec    = core.RunSpec
	SpecLimits = core.SpecLimits
)

// maxSpecBytes bounds a submission body; larger requests get 400.
const maxSpecBytes = 4 << 20

// DecodeSpec strictly decodes a submission body: unknown fields,
// trailing data and non-finite numbers are errors, never panics. It
// returns the decoded spec with defaults applied (Normalize).
func DecodeSpec(data []byte) (*JobSpec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("svc: spec larger than %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("svc: malformed spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("svc: trailing data after spec")
	}
	s.Normalize()
	return &s, nil
}

// admit is the operator's policy on top of the spec's own Validate: the
// rank cap, no topology that names a server-side file, and on more than
// one host worker no trace that receives from any source. A refusal is
// never journaled.
func (s *Server) admit(spec *JobSpec) error {
	if strings.HasPrefix(spec.Topology, "graph:") {
		return fmt.Errorf("topology %q not accepted over the service (server-side file)", spec.Topology)
	}
	return spec.Admit(s.opts.MaxRanks, s.opts.HostWorkers)
}

// capped returns the spec with its budgets clamped against the operator
// caps: a request can tighten a cap, never exceed it, and an unset one
// inherits it. The journaled spec (and its hash) stay as submitted.
func (s *Server) capped(spec *JobSpec) *JobSpec {
	var req SpecLimits
	if spec.Limits != nil {
		req = *spec.Limits
	}
	out := *spec
	out.Limits = &SpecLimits{
		MaxEvents:      clamp(req.MaxEvents, s.opts.MaxEventsCap),
		MaxVirtualTime: clamp(req.MaxVirtualTime, s.opts.MaxVirtualTimeCap),
		StallEvents:    req.StallEvents,
		// Rounded up: a sub-millisecond cap must not read as "unlimited".
		WallTimeoutMS: int64((clamp(req.WallTimeout(), s.opts.WallTimeoutCap) + time.Millisecond - 1) / time.Millisecond),
	}
	if out.Limits.StallEvents <= 0 {
		out.Limits.StallEvents = s.opts.StallEvents
	}
	return &out
}

func clamp[T ~int64 | ~float64](req, cap T) T {
	if cap > 0 && (req <= 0 || req > cap) {
		return cap
	}
	if req < 0 {
		return 0
	}
	return req
}
