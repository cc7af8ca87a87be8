// Package tracein is the simulator's offline trace frontend: a second
// front door, co-equal with the compiler path, through which any
// workload able to produce a trace can be simulated (the role DUMPI
// replay plays for SST/macro and time-independent traces for SMPI).
//
// A trace is a versioned JSONL stream: a header line followed by one
// event line per API-level MPI operation (compute spans, delays, p2p
// sends/receives with peer/tag/bytes, collectives with payload sizes).
// Payload values are never recorded — only sizes affect timing — so a
// trace is a complete, machine-independent description of the
// communication schedule. The package provides:
//
//   - Record: build a Trace from a simulation run's API call log
//     (mpi.Config.RecordCalls), and Write it as JSONL;
//   - Parse: a strict streaming parser with line-anchored diagnostics
//     that never panics on malformed input; Validate, the same checks
//     without the call log, for admission; ReadHeader, the first line;
//   - Replay: drive a parsed trace through internal/mpi on the
//     existing kernel against any machine/topology/placement/fault
//     configuration, producing a normal report so attribution,
//     congestion analysis, profiling and mpireport work unchanged;
//   - Extrapolate: weak-scaling rank extrapolation using the symbolic
//     scaling functions the compiler derives (a 64-rank trace replayed
//     at 1024 ranks).
//
// simulate → record → replay on the same configuration reproduces the
// predicted schedule exactly: replay re-issues the identical API call
// sequence, and the simulator's timing depends only on call arguments,
// never on payload contents.
//
// The codec is hand-written on both sides of the format. Only the header
// line goes through encoding/json, once per file. Event lines are read
// by a scanner over their eleven known keys (scan.go) and written by
// appending each field, in a fixed per-op order and in encoding/json's
// number form, to one reused line buffer (write.go) — which is how equal
// traces serialize to equal bytes, and why files written before the
// codec was hand-written read and re-write unchanged. The ops table in
// scan.go is the single statement of which fields an op takes; the
// reflective codec this replaced is kept in ref_test.go as the oracle
// both sides are differentially tested against. DESIGN.md ("Trace
// frontend") states the accepted grammar.
package tracein

import (
	"fmt"

	"mpisim/internal/mpi"
)

// SchemaVersion is the trace format version this package reads and
// writes (the "mpisim_trace" header field).
const SchemaVersion = 1

// MaxRanks bounds the rank count a parsed header may declare. It
// protects services that parse untrusted traces from allocation bombs
// (a forged header declaring 10^9 ranks); it is far above anything the
// kernel can usefully replay.
const MaxRanks = 1 << 20

// Header is the trace's first JSONL line: run metadata that replay and
// extrapolation need. App, Mode, Machine and Inputs are descriptive
// provenance; Ranks and Comm are semantic (they fix the world size and
// the communication timing model the trace was recorded under).
type Header struct {
	// Version is the schema version (SchemaVersion).
	Version int `json:"mpisim_trace"`
	// App names the traced application ("" when unknown).
	App string `json:"app,omitempty"`
	// Mode is the simulation mode the trace was recorded from (e.g.
	// "MPI-SIM-AM", "measured").
	Mode string `json:"mode,omitempty"`
	// Ranks is the number of ranks in the trace.
	Ranks int `json:"ranks"`
	// Machine names the machine model of the recording run; Replay
	// uses it as the default target when the caller supplies none.
	Machine string `json:"machine,omitempty"`
	// Comm names the communication timing model the trace was recorded
	// under (mpi.CommModel.String); replay re-simulates under the same
	// model so the schedule is reproduced rather than re-modeled.
	Comm string `json:"comm,omitempty"`
	// Inputs are the problem-size inputs of the recording run; together
	// with P and myid they form the environment the task-scale
	// expressions are evaluated in.
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// TaskScale maps condensed-task names (w_i) to their symbolic
	// scaling functions (compiler.Result.TaskScales), the hook
	// weak-scaling extrapolation rescales per-task delays with.
	TaskScale map[string]string `json:"task_scale,omitempty"`
	// ExtrapolatedFrom is the source trace's rank count when this trace
	// was produced by Extrapolate (0 for directly recorded traces).
	ExtrapolatedFrom int `json:"extrapolated_from,omitempty"`
}

// CommModel resolves the header's communication model name.
func (h *Header) CommModel() (mpi.CommModel, error) {
	return mpi.CommByName(h.Comm)
}

// Trace is a parsed or recorded trace: the header plus each rank's
// API-level call sequence.
type Trace struct {
	Header Header
	Calls  [][]mpi.Call
}

// Events counts the trace's event lines (total calls over all ranks).
func (t *Trace) Events() int {
	n := 0
	for _, calls := range t.Calls {
		n += len(calls)
	}
	return n
}

// Record builds a Trace from a report carrying the API-level call log
// (a run with mpi.Config.RecordCalls set) and the given metadata.
// hdr.Version and hdr.Ranks are filled in; other fields are taken as
// provided.
func Record(rep *mpi.Report, hdr Header) (*Trace, error) {
	if rep.Calls == nil {
		return nil, fmt.Errorf("tracein: report has no call log (run with RecordCalls)")
	}
	hdr.Version = SchemaVersion
	if hdr.Ranks == 0 {
		hdr.Ranks = len(rep.Calls)
	}
	if hdr.Ranks != len(rep.Calls) {
		return nil, fmt.Errorf("tracein: header declares %d ranks but the report recorded %d", hdr.Ranks, len(rep.Calls))
	}
	return &Trace{Header: hdr, Calls: rep.Calls}, nil
}
