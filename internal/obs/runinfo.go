package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// RunState is the lifecycle phase of one simulation run.
type RunState string

// Lifecycle states, in the order core.Runner moves through them.
const (
	RunPending     RunState = "pending"
	RunCompiling   RunState = "compiling"
	RunCalibrating RunState = "calibrating"
	RunRunning     RunState = "running"
	RunDone        RunState = "done"
	RunAborted     RunState = "aborted"
	// RunFailed marks a run that ended in an error or isolated panic
	// rather than a clean finish or budgeted abort (used by the service
	// daemon's job lifecycle).
	RunFailed RunState = "failed"
)

// RunInfo tracks one run's lifecycle and progress: state, wall-clock
// start and elapsed time, last-heartbeat vitals, and — when the run has
// a budget — percent-complete and an ETA. internal/core.Runner updates
// it around compile/calibrate/run; kernel workers heartbeat it from
// their sample points. All wall-clock reads here are observability-only
// and never feed virtual time (hence the simvet allows).
//
// The horizon is the run's sim.Limits budget (MaxTime, else MaxEvents);
// a run with neither reports percent -1 until it ends.
type RunInfo struct {
	mu           sync.Mutex
	state        RunState
	start        time.Time // RunInfo creation
	runStart     time.Time // transition into RunRunning
	virtual      float64
	events       int64
	horizonVirt  float64
	horizonEvts  int64
	lastBeat     time.Time
	haveBeat     bool
	abortReason  string
	finalVirtual float64
}

// RunStatus is the JSON view of a RunInfo at one instant, served by
// /run and consulted by mpisim -progress. Percent is in [0,1], or -1
// when no horizon is known; ETANs is -1 when unknown.
type RunStatus struct {
	State          RunState `json:"state"`
	ElapsedNs      int64    `json:"elapsed_ns"`
	RunningNs      int64    `json:"running_ns,omitempty"`
	Virtual        float64  `json:"virtual_time"`
	Events         int64    `json:"events"`
	HorizonVirtual float64  `json:"horizon_virtual,omitempty"`
	HorizonEvents  int64    `json:"horizon_events,omitempty"`
	Percent        float64  `json:"percent"`
	ETANs          int64    `json:"eta_ns"`
	HeartbeatAgeNs int64    `json:"heartbeat_age_ns"`
	AbortReason    string   `json:"abort_reason,omitempty"`
}

// NewRunInfo returns a RunInfo in state pending.
func NewRunInfo() *RunInfo {
	return &RunInfo{
		state: RunPending,
		start: time.Now(), //simvet:allow wallclock run lifecycle epoch; never feeds virtual time
	}
}

// SetState moves the run to s. Entering RunRunning stamps the running
// epoch the ETA extrapolates from.
func (r *RunInfo) SetState(s RunState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = s
	if s == RunRunning && r.runStart.IsZero() {
		r.runStart = time.Now() //simvet:allow wallclock ETA epoch; never feeds virtual time
	}
}

// State returns the current lifecycle state.
func (r *RunInfo) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// SetHorizon records the run's virtual-time and event budgets (0 =
// none).
func (r *RunInfo) SetHorizon(virtual float64, events int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.horizonVirt, r.horizonEvts = virtual, events
}

// Heartbeat records the latest vitals and stamps the watchdog
// heartbeat. Called from kernel worker sample points (coarse: every
// few thousand events per worker), so a mutex is cheap enough.
func (r *RunInfo) Heartbeat(virtual float64, events int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if virtual > r.virtual {
		r.virtual = virtual
	}
	if events > r.events {
		r.events = events
	}
	r.lastBeat = time.Now() //simvet:allow wallclock watchdog heartbeat; never feeds virtual time
	r.haveBeat = true
}

// Finish moves the run to its terminal state (RunDone or RunAborted)
// with the final virtual time and, on abort, the reason.
func (r *RunInfo) Finish(s RunState, virtual float64, abortReason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = s
	if virtual > r.virtual {
		r.virtual = virtual
	}
	r.finalVirtual = virtual
	r.abortReason = abortReason
}

// Status returns a consistent snapshot of the run's progress.
func (r *RunInfo) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now() //simvet:allow wallclock elapsed/ETA computation; never feeds virtual time
	st := RunStatus{
		State:          r.state,
		ElapsedNs:      now.Sub(r.start).Nanoseconds(),
		Virtual:        r.virtual,
		Events:         r.events,
		HorizonVirtual: r.horizonVirt,
		HorizonEvents:  r.horizonEvts,
		Percent:        -1,
		ETANs:          -1,
		HeartbeatAgeNs: -1,
		AbortReason:    r.abortReason,
	}
	if !r.runStart.IsZero() {
		st.RunningNs = now.Sub(r.runStart).Nanoseconds()
	}
	if r.haveBeat {
		st.HeartbeatAgeNs = now.Sub(r.lastBeat).Nanoseconds()
	}
	switch {
	case r.state == RunDone:
		st.Percent, st.ETANs = 1, 0
	case r.horizonVirt > 0:
		st.Percent = clamp01(r.virtual / r.horizonVirt)
	case r.horizonEvts > 0:
		st.Percent = clamp01(float64(r.events) / float64(r.horizonEvts))
	}
	if r.state == RunRunning && st.Percent > 0 && st.Percent <= 1 && st.RunningNs > 0 {
		st.ETANs = int64(float64(st.RunningNs) * (1 - st.Percent) / st.Percent)
	}
	return st
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// WriteJSON writes the current status as indented JSON.
func (r *RunInfo) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Status())
}
