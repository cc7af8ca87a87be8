package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/fault"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	"mpisim/internal/net"
	"mpisim/internal/tracein"
)

// SpecLimits are the run budgets a spec may request (0 = unlimited). The
// daemon clamps each against its operator caps before preparing the run,
// so a client can tighten but never exceed them.
type SpecLimits struct {
	// MaxEvents aborts the run after this many kernel events.
	MaxEvents int64 `json:"max_events,omitempty"`
	// MaxVirtualTime aborts the run past this virtual time in seconds.
	MaxVirtualTime float64 `json:"max_virtual_time,omitempty"`
	// StallEvents arms the no-progress watchdog: abort after this many
	// events without virtual time advancing.
	StallEvents int64 `json:"stall_events,omitempty"`
	// WallTimeoutMS bounds host wall-clock time for the run.
	WallTimeoutMS int64 `json:"wall_timeout_ms,omitempty"`
}

// RunSpec describes one prediction — what to simulate, on which target,
// under which faults and budgets — independently of the front door it
// arrived through: cmd/mpisim builds one from its flags, mpisimd decodes
// one from the body of POST /jobs (svc.JobSpec is this type) and journals
// it. Exactly one of App (a registered application), Program (inline IR
// pseudocode, the stgdump format) or a trace selects the workload. Field
// order and JSON tags are the journal's and Hash's format: append, never
// reorder.
type RunSpec struct {
	// App names a registered application (internal/apps).
	App string `json:"app,omitempty"`
	// Program is inline IR program text (see examples/programs/*.ir).
	Program string `json:"program,omitempty"`
	// Trace is an inline JSONL trace (internal/tracein). A trace
	// submission replays the recorded schedule instead of compiling a
	// program; mutually exclusive with App and Program, and the mode
	// becomes "replay". Malformed traces are rejected at admission with
	// the parser's line-anchored diagnostic — never enqueued. A caller
	// that holds the trace parsed already (mpisim streams the file)
	// leaves this empty and hands the trace to ValidateWith and Prepare.
	Trace string `json:"trace,omitempty"`
	// TraceRanks, when > 0, extrapolates the trace to this rank count (a
	// multiple of the trace's own) before replaying.
	TraceRanks int `json:"trace_ranks,omitempty"`
	// Mode is the evaluation mode: "measured", "de", or "am" (default);
	// "replay" for traces (set automatically for inline ones).
	Mode string `json:"mode,omitempty"`
	// Ranks is the target process count.
	Ranks int `json:"ranks"`
	// Inputs overrides the program's problem-size parameters (merged
	// over the app defaults for registered applications).
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// Machine names the target machine preset (default "ibmsp"; for a
	// trace, the model its header recorded).
	Machine string `json:"machine,omitempty"`
	// Topology / Placement override the machine's interconnect model
	// ("bus", "torus:dims=4x4", "fattree:k=4", "graph:PATH"; "block",
	// "roundrobin", "random:SEED"). The daemon rejects "graph:PATH": it
	// does not read server-side files named by clients.
	Topology  string `json:"topology,omitempty"`
	Placement string `json:"placement,omitempty"`
	// Faults is an inline deterministic fault-injection scenario.
	Faults *fault.Scenario `json:"faults,omitempty"`
	// CalRanks sets the AM calibration rank count (default
	// min(Ranks, 16)).
	CalRanks int `json:"cal_ranks,omitempty"`
	// TaskTimes supplies a w_i table directly, skipping calibration.
	TaskTimes map[string]float64 `json:"task_times,omitempty"`
	// SkipChecks disables the pre-simulation static verifier.
	SkipChecks bool `json:"skip_checks,omitempty"`
	// Limits bounds the run.
	Limits *SpecLimits `json:"limits,omitempty"`
}

// Normalize fills defaulted fields in place so that hashing and
// execution see the same spec.
func (s *RunSpec) Normalize() {
	if s.Trace != "" {
		// Trace submissions replay; the machine stays empty so the trace
		// header's recorded model is the default target.
		s.Mode = "replay"
	} else {
		if s.Mode == "" {
			s.Mode = "am"
		}
		if s.Machine == "" {
			s.Machine = "ibmsp"
		}
	}
	if s.Topology == "flat" {
		s.Topology = ""
	}
}

// parseProgram parses inline program text, converting parser panics on
// hostile input into errors (the fuzz contract: malformed submissions
// must never take the daemon down).
func parseProgram(src string) (p *ir.Program, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, err = nil, fmt.Errorf("program parse panic: %v", v)
		}
	}()
	return ir.Parse(src)
}

// Workload names what the spec runs without preparing it: the app, the
// inline program's name, or the inline trace header's app ("trace" for a
// header that names none).
func (s *RunSpec) Workload() string {
	switch {
	case s.App != "":
		return s.App
	case s.Trace != "":
		if h, err := tracein.ReadHeader(strings.NewReader(s.Trace)); err == nil && h.App != "" {
			return h.App
		}
		return "trace"
	}
	if p, err := parseProgram(s.Program); err == nil {
		return p.Name
	}
	return "program"
}

// Validate reports everything wrong with the spec that is cheap enough
// to answer before any work is queued (shape, unknown names, parse
// errors, bad fault scenarios, out-of-range budgets), for a spec whose
// trace, if any, is inline. maxRanks > 0 caps the target process count.
// Compile, verification and simulation errors surface later, from
// Prepare and Plan.Run.
func (s *RunSpec) Validate(maxRanks int) error { return s.Admit(maxRanks, 1) }

// Admit is Validate for a run on hostWorkers host workers: on more than
// one it refuses, as Prepare does, a trace that receives from any source
// (*WildcardError).
func (s *RunSpec) Admit(maxRanks, hostWorkers int) error {
	if s.Trace == "" {
		return s.ValidateWith(nil, maxRanks)
	}
	// Every check Parse makes, none of its call log: admission keeps
	// the header only, and the run parses the trace when it starts.
	hdr, wild, err := tracein.Validate(strings.NewReader(s.Trace))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := s.ValidateWith(hdr, maxRanks); err != nil {
		return err
	}
	if wild != nil && hostWorkers > 1 {
		return &WildcardError{Rank: wild.Rank, Call: wild.Call}
	}
	return nil
}

// ValidateWith is Validate for a caller that holds the trace parsed
// already: hdr is its header, nil when the spec runs a program.
func (s *RunSpec) ValidateWith(hdr *tracein.Header, maxRanks int) error {
	// effRanks is the rank count the run will actually simulate: the
	// spec's for compiled workloads, the (possibly extrapolated) trace's
	// for replays. Capacity and network checks apply to it.
	effRanks := s.Ranks
	machName := s.Machine
	if hdr != nil {
		if s.App != "" || s.Program != "" {
			return fmt.Errorf("\"trace\" is mutually exclusive with \"app\" and \"program\"")
		}
		if s.Mode != "replay" {
			return fmt.Errorf("trace submissions use mode \"replay\" (got %q)", s.Mode)
		}
		if s.CalRanks != 0 || s.TaskTimes != nil {
			return fmt.Errorf("cal_ranks and task_times do not apply to trace replay")
		}
		if s.SkipChecks {
			return fmt.Errorf("skip_checks does not apply to trace replay (there is no program to verify)")
		}
		effRanks = hdr.Ranks
		if s.TraceRanks > 0 {
			if s.TraceRanks < effRanks || s.TraceRanks%effRanks != 0 {
				return fmt.Errorf("trace_ranks %d must be a multiple of the trace's %d ranks", s.TraceRanks, effRanks)
			}
			effRanks = s.TraceRanks
		}
		if s.Ranks != 0 && s.Ranks != effRanks {
			return fmt.Errorf("ranks %d conflicts with the trace's effective %d (omit it)", s.Ranks, effRanks)
		}
		if machName == "" {
			machName = hdr.Machine
		}
		if machName == "" {
			return fmt.Errorf("no machine model (spec names none and the trace header names none)")
		}
	} else {
		switch {
		case s.TraceRanks != 0:
			return fmt.Errorf("trace_ranks requires \"trace\"")
		case s.App == "" && s.Program == "":
			return fmt.Errorf("spec needs one of \"app\", \"program\" or \"trace\"")
		case s.App != "" && s.Program != "":
			return fmt.Errorf("\"app\" and \"program\" are mutually exclusive")
		}
		app, known := apps.Registry()[s.App]
		if s.App != "" {
			if !known {
				return fmt.Errorf("unknown app %q (have %s)", s.App, strings.Join(apps.Names(), ", "))
			}
		} else if _, err := parseProgram(s.Program); err != nil {
			return fmt.Errorf("program: %w", err)
		}
		switch s.Mode {
		case "measured", "de", "am":
		default:
			return fmt.Errorf("unknown mode %q (want measured, de, am)", s.Mode)
		}
		if s.Ranks < 1 {
			return fmt.Errorf("ranks must be >= 1 (got %d)", s.Ranks)
		}
		if err := app.CheckRanks(s.Ranks); err != nil {
			return err
		}
		if cal := s.effectiveCalRanks(); s.Mode == "am" && s.TaskTimes == nil && cal != s.Ranks {
			if err := app.CheckRanks(cal); err != nil {
				return fmt.Errorf("calibration at %d ranks: %w", cal, err)
			}
		}
	}
	if maxRanks > 0 && effRanks > maxRanks {
		return fmt.Errorf("ranks %d beyond server cap %d", effRanks, maxRanks)
	}
	if s.CalRanks < 0 {
		return fmt.Errorf("cal_ranks must not be negative")
	}
	notFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if k, bad := firstKey(s.Inputs, notFinite); bad {
		return fmt.Errorf("input %q is not finite", k)
	}
	if k, bad := firstKey(s.TaskTimes, func(v float64) bool { return notFinite(v) || v < 0 }); bad {
		return fmt.Errorf("task time %q is not a finite non-negative number", k)
	}
	m, err := s.machine(machName)
	if err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if _, err := net.Build(m, effRanks); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(effRanks); err != nil {
			return err
		}
	}
	if l := s.Limits; l != nil {
		if l.MaxEvents < 0 || l.StallEvents < 0 || l.WallTimeoutMS < 0 {
			return fmt.Errorf("limits must not be negative")
		}
		if l.MaxVirtualTime < 0 || math.IsNaN(l.MaxVirtualTime) || math.IsInf(l.MaxVirtualTime, 0) {
			return fmt.Errorf("max_virtual_time must be a finite non-negative number")
		}
	}
	return nil
}

// firstKey returns the least key whose value is bad, so which entry a
// diagnostic names does not depend on map order.
func firstKey(m map[string]float64, bad func(float64) bool) (string, bool) {
	var keys []string
	for k, v := range m {
		if bad(v) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return "", false
	}
	return keys[0], true
}

// Hash is the content address of the full submission: sha256 over the
// canonical JSON encoding of the normalized spec (Go marshals struct
// fields in declaration order and maps sorted by key, so equal specs
// hash equally). Two submissions with the same hash produce
// byte-identical artifacts — the determinism gate in the test suite
// proves it — which is what lets the artifact cache answer repeats.
func (s *RunSpec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Validate rejects non-finite numbers, the only marshal failure
		// a spec can carry.
		data = []byte(fmt.Sprintf("unhashable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// compileKey content-addresses the compiled program + calibration
// context: everything that affects compiler output and w_i tables but
// not the individual run (ranks, faults, budgets stay out).
func (s *RunSpec) compileKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "app=%s\x00prog=%s\x00machine=%s\x00topo=%s\x00place=%s",
		s.App, s.Program, s.Machine, s.Topology, s.Placement)
	return hex.EncodeToString(h.Sum(nil))
}

// calKey content-addresses a calibration table: the compile context
// (compileKey's result) plus the calibration configuration.
func calKey(compileKey string, calRanks int, inputs map[string]float64) string {
	keys := make([]string, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00calranks=%d", compileKey, calRanks)
	for _, k := range keys {
		fmt.Fprintf(h, "\x00%s=%g", k, inputs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mode maps the spec's mode string onto Mode. Validate has already
// vetted it.
func (s *RunSpec) mode() Mode {
	switch s.Mode {
	case "measured":
		return Measured
	case "de":
		return DirectExec
	default:
		return Abstract
	}
}

// effectiveCalRanks resolves the calibration rank count: the spec's
// cal_ranks, else min(ranks, 16).
func (s *RunSpec) effectiveCalRanks() int {
	if s.CalRanks > 0 {
		return s.CalRanks
	}
	if s.Ranks > 16 {
		return 16
	}
	return s.Ranks
}

// program builds the registered app or parses the inline text.
func (s *RunSpec) program() (*ir.Program, error) {
	if s.App != "" {
		return apps.Registry()[s.App].Build(), nil
	}
	return parseProgram(s.Program)
}

// inputsAt merges the spec's inputs over the app's defaults at a rank
// count, one ValidateWith has checked against the app's rank rule.
func (s *RunSpec) inputsAt(ranks int) map[string]float64 {
	inputs := map[string]float64{}
	if s.App != "" {
		inputs = apps.Registry()[s.App].Default(ranks)
	}
	for k, v := range s.Inputs {
		inputs[k] = v
	}
	return inputs
}

// machine resolves a preset and applies the spec's topology and
// placement overrides. Every caller gets its own Model.
func (s *RunSpec) machine(name string) (*machine.Model, error) {
	m, err := machine.ByName(name)
	if err != nil {
		return nil, err
	}
	if s.Topology != "" {
		m.Topology = s.Topology
	}
	if s.Placement != "" {
		m.Placement = s.Placement
	}
	return m, nil
}

// limits returns the requested budgets; a spec without any is unlimited.
func (s *RunSpec) limits() SpecLimits {
	if s.Limits == nil {
		return SpecLimits{}
	}
	return *s.Limits
}

// WallTimeout returns the requested wall budget as a duration.
func (l SpecLimits) WallTimeout() time.Duration {
	return time.Duration(l.WallTimeoutMS) * time.Millisecond
}
