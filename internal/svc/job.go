package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"mpisim/internal/core"
	"mpisim/internal/mpi"
	"mpisim/internal/obs"
	"mpisim/internal/sim"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// job is the in-memory state of one submission, mirrored record by
// record in the journal (the journal is authoritative: memory is only
// updated after the corresponding record is appended).
type job struct {
	id       string
	spec     *JobSpec
	specHash string
	// workload is the app name or the inline program's name, resolved
	// once at construction so view() never re-parses the program text.
	workload string

	// Per-run telemetry plane, mounted at /jobs/{id}/obs/*.
	reg *obs.Registry
	tl  *obs.Timeline
	ri  *obs.RunInfo
	obs http.Handler

	mu           sync.Mutex
	state        JobState
	errText      string
	snapshot     *sim.Snapshot
	artifact     string
	progress     float64
	cached       bool
	submitted    time.Time
	started      time.Time
	finished     time.Time
	cancel       context.CancelFunc
	cancelWanted bool
}

// newJob builds a job with a fresh telemetry plane.
func newJob(id string, spec *JobSpec, hash string, hostWorkers int) *job {
	reg := obs.NewRegistry(hostWorkers)
	reg.SetEnabled(true)
	tl := obs.NewTimeline(reg, obs.TimelineOptions{})
	tl.SetEnabled(true)
	ri := obs.NewRunInfo()
	j := &job{
		id: id, spec: spec, specHash: hash, workload: spec.Workload(),
		reg: reg, tl: tl, ri: ri,
		state:     JobPending,
		submitted: time.Now(),
	}
	j.obs = obs.HandlerWith(reg, obs.HandlerOpts{Timeline: tl, Run: ri})
	return j
}

// apply folds a just-journaled record into the in-memory state.
func (j *job) apply(rec *Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = rec.State
	if rec.Error != "" {
		j.errText = rec.Error
	}
	if rec.Artifact != "" {
		j.artifact = rec.Artifact
	}
	if rec.Progress > 0 {
		j.progress = rec.Progress
	}
	if rec.Cached {
		j.cached = true
	}
	if rec.Snapshot != nil {
		j.snapshot = rec.Snapshot
	}
	switch {
	case rec.State == JobCompiling && j.started.IsZero():
		j.started = time.Now()
	case rec.State.Terminal() && j.finished.IsZero():
		j.finished = time.Now()
	}
}

// runState maps a job state onto the obs run lifecycle.
func (s JobState) runState() obs.RunState {
	switch s {
	case JobCompiling:
		return obs.RunCompiling
	case JobRunning:
		return obs.RunRunning
	case JobDone:
		return obs.RunDone
	case JobAborted:
		return obs.RunAborted
	case JobFailed:
		return obs.RunFailed
	}
	return obs.RunPending
}

// JobView is the JSON representation served by GET /jobs and
// GET /jobs/{id}.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	SpecHash string   `json:"spec_hash"`
	// Workload identifies what runs: the app name or the inline
	// program's name.
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Ranks    int    `json:"ranks"`
	// Progress is the completed fraction in [0,1]; -1 while unknown.
	Progress float64 `json:"progress"`
	// Cached marks a job answered from the artifact cache.
	Cached bool `json:"cached,omitempty"`
	// Error carries the abort reason or failure diagnostic.
	Error string `json:"error,omitempty"`
	// Artifact is the content address of the run artifact, when one
	// exists (complete for done, partial for drained/aborted runs).
	Artifact    string `json:"artifact,omitempty"`
	ArtifactURL string `json:"artifact_url,omitempty"`
	// ObsURL is the per-run telemetry mount.
	ObsURL string `json:"obs_url"`
	// Snapshot is the kernel diagnostic snapshot of a failed/aborted
	// run, when captured.
	Snapshot    *sim.Snapshot `json:"snapshot,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
}

// view snapshots the job for serving. Live progress comes from the
// telemetry tracker while running; the journaled fraction afterwards.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, State: j.state, SpecHash: j.specHash,
		Workload: j.workload, Mode: j.spec.Mode, Ranks: j.spec.Ranks,
		Progress: -1, Cached: j.cached, Error: j.errText,
		Artifact: j.artifact, Snapshot: j.snapshot,
		ObsURL:      "/jobs/" + j.id + "/obs/",
		SubmittedAt: j.submitted,
	}
	if j.artifact != "" {
		v.ArtifactURL = "/jobs/" + j.id + "/artifact"
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	switch {
	case j.state == JobDone:
		v.Progress = 1
	case j.state.Terminal():
		v.Progress = j.progress
	default:
		if p := j.ri.Status().Percent; p >= 0 {
			v.Progress = p
		}
	}
	return v
}

// requestCancel asks the job to stop: a running job's context is
// cancelled; a job between dequeue and context creation is flagged so
// execute cancels itself as soon as the context exists.
func (j *job) requestCancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.cancelWanted = true
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// setCancel installs the run context's cancel func, honoring a cancel
// that arrived before the context existed.
func (j *job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	wanted := j.cancelWanted
	j.mu.Unlock()
	if wanted {
		cancel()
	}
}

// stateIs reports the current state.
func (j *job) stateIs() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// execute runs one job start to finish on a worker goroutine:
// core.Prepare under the `compiling` state, Plan.Run under `running`.
// Any panic — the compiler, the simulator, an app's inputs for a journaled
// spec its rank rule now refuses — is confined to this job: the deferred
// guard journals a failed record and the worker moves on.
func (s *Server) execute(j *job) {
	defer func() {
		if v := recover(); v != nil {
			s.fail(j, fmt.Sprintf("panic: %v", v), nil)
		}
	}()
	if j.stateIs().Terminal() { // cancelled while queued
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.setCancel(cancel)

	s.transition(j, &Record{State: JobCompiling})
	var tr *tracein.Trace
	if j.spec.Trace != "" {
		// Validate vetted the trace at admission; a corrupt journaled spec
		// fails the job rather than the daemon.
		var err error
		if tr, err = tracein.Parse(strings.NewReader(j.spec.Trace)); err != nil {
			s.fail(j, fmt.Sprintf("trace: %v", err), nil)
			return
		}
	}
	plan, err := core.Prepare(s.capped(j.spec), mpi.Config{
		HostWorkers: s.opts.HostWorkers, RealParallel: s.opts.HostWorkers > 1,
		Metrics: j.reg, Timeline: j.tl, RunInfo: j.ri,
		Limits: sim.Limits{Ctx: ctx},
	}, s.compile, tr)
	if err != nil {
		if ae := (*sim.AbortError)(nil); errors.As(err, &ae) { // only a calibration run stops before Plan.Run
			reason := "calibration run: " + ae.Reason
			j.ri.Finish(obs.RunAborted, 0, reason)
			s.transition(j, &Record{State: JobAborted, Error: reason, Snapshot: ae.Snapshot})
			return
		}
		s.fail(j, err.Error(), nil)
		return
	}
	for _, w := range plan.Warnings {
		s.logf("svc: %s: %s", j.id, w)
	}

	s.transition(j, &Record{State: JobRunning})
	out, err := plan.Run(ctx)
	s.finishJob(j, out, err)
}

// finishJob maps a run outcome onto the job's terminal record:
//
//	complete outcome           → done, artifact, cache entry
//	outcome with Abort         → aborted, partial artifact + progress %
//	*sim.AbortError, no report → aborted
//	*sim.PanicError            → failed, with the kernel's snapshot
//	anything else              → failed
func (s *Server) finishJob(j *job, out *core.Outcome, runErr error) {
	if runErr != nil {
		var ae *sim.AbortError
		var pe *sim.PanicError
		switch {
		case errors.As(runErr, &ae):
			s.transition(j, &Record{State: JobAborted, Error: ae.Reason, Snapshot: ae.Snapshot})
		case errors.As(runErr, &pe):
			s.fail(j, runErr.Error(), pe.Snapshot)
		default:
			s.fail(j, runErr.Error(), nil)
		}
		return
	}
	data, err := trace.EncodeArtifact(out.Artifact)
	var hash string
	if err == nil {
		hash, err = s.store.Put(data)
	}
	switch ae := out.Abort; {
	case ae != nil:
		if err != nil {
			// The abort still journals, but the partial artifact is lost;
			// the operator needs to know why.
			s.logf("svc: %s: partial artifact not persisted: %v", j.id, err)
		}
		s.transition(j, &Record{State: JobAborted, Error: ae.Reason, Snapshot: ae.Snapshot,
			Progress: out.Artifact.Progress, Artifact: hash})
	case err != nil:
		s.fail(j, fmt.Sprintf("artifact: %v", err), nil)
	default:
		// Index before done: a client that sees the job done and
		// resubmits at once must find the artifact in the cache.
		s.rememberArtifact(j.specHash, hash, int64(len(data)))
		s.transition(j, &Record{State: JobDone, Artifact: hash, Progress: 1})
	}
}

// fail journals a failed record (unless the job already reached a
// terminal state) and moves the telemetry tracker to failed.
func (s *Server) fail(j *job, msg string, snap *sim.Snapshot) {
	if j.stateIs().Terminal() {
		return
	}
	s.transition(j, &Record{State: JobFailed, Error: msg, Snapshot: snap})
	j.ri.Finish(obs.RunFailed, 0, msg)
}
