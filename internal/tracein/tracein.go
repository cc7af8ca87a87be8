// Package tracein is the simulator's offline trace frontend: a second
// front door, co-equal with the compiler path, through which any
// workload able to produce a trace can be simulated (the role DUMPI
// replay plays for SST/macro and time-independent traces for SMPI).
//
// A trace is a versioned JSONL stream of API-level MPI operations
// (compute spans, delays, p2p sends/receives with peer/tag/bytes,
// collectives with payload sizes), held and written by rank class: ranks
// whose call sequences are equal once point-to-point peers are read as
// offsets from the rank are one class, stored once as the sequence of
// its lowest rank, the representative. A v2 file is a header line, one
// members line mapping ranks to representatives, and the
// representatives' event lines; a v1 file — one event line per call of
// every rank — reads as the identity map and folds on the way in.
// Payload values are never recorded — only sizes affect timing — so a
// trace is a complete, machine-independent description of the
// communication schedule. The package provides:
//
//   - Record and New: fold a run's API call log (mpi.Config.RecordCalls),
//     or any per-rank call lists, into a Trace, and Write it as JSONL;
//   - Parse: a strict streaming parser with line-anchored diagnostics
//     that never panics on malformed input; Validate, the same checks
//     without the call log, for admission; ReadHeader, the first line;
//   - Replay: drive a trace through internal/mpi on the existing kernel
//     against any machine/topology/placement/fault configuration,
//     producing a normal report so attribution, congestion analysis,
//     profiling and mpireport work unchanged;
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
// and members lines go through encoding/json, once per file. Event lines
// are read by a scanner over their eleven known keys (scan.go) and
// written by appending each field, in a fixed per-op order and in
// encoding/json's number form, to one reused line buffer (write.go) —
// which is how equal traces serialize to equal bytes. The ops table in
// scan.go is the single statement of which fields an op takes, and of
// which of them are peers that move with the rank; the reflective codec
// this replaced is kept in ref_test.go as the oracle both sides are
// differentially tested against. DESIGN.md ("Trace frontend") states
// the accepted grammar.
package tracein

import (
	"fmt"

	"mpisim/internal/mpi"
)

// SchemaVersion is the trace format version Write emits (the
// "mpisim_trace" header field). Parse also reads version 1, the per-rank
// form, as the identity class map.
const SchemaVersion = 2

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

// Trace is a parsed, recorded or extrapolated trace: the header plus one
// call sequence per rank class. Rank r issues its class's sequence with
// every point-to-point peer — the peers its op's ops entry declares,
// never a receive wildcard — shifted by r minus the class's
// representative; tags, roots and sizes are the same for every member.
// Every constructor folds (fold.go), so the form is canonical: equal
// per-rank call logs give DeepEqual traces.
type Trace struct {
	Header Header

	// streams[k] is class k's sequence as its representative reps[k],
	// the lowest rank of the class, issues it; classes are numbered in
	// representative order.
	streams [][]mpi.Call
	reps    []int
	// class[r] is rank r's class.
	class []int32
}

// New folds per-rank call sequences (calls[r] is rank r's) into a
// Trace. hdr.Version is set and hdr.Ranks defaults to len(calls); other
// fields are taken as provided. The trace may share calls' elements.
func New(hdr Header, calls [][]mpi.Call) (*Trace, error) {
	hdr.Version = SchemaVersion
	if hdr.Ranks == 0 {
		hdr.Ranks = len(calls)
	}
	if hdr.Ranks != len(calls) {
		return nil, fmt.Errorf("tracein: header declares %d ranks but %d call sequences were given", hdr.Ranks, len(calls))
	}
	return fold(hdr, nil, func(r int, _ []mpi.Call) []mpi.Call { return calls[r] }), nil
}

// Record builds a Trace from a report carrying the API-level call log
// (a run with mpi.Config.RecordCalls set) and the given metadata, as
// New does.
func Record(rep *mpi.Report, hdr Header) (*Trace, error) {
	if rep.Calls == nil {
		return nil, fmt.Errorf("tracein: report has no call log (run with RecordCalls)")
	}
	return New(hdr, rep.Calls)
}

// Classes is the number of rank classes: the call sequences the trace
// holds.
func (t *Trace) Classes() int { return len(t.streams) }

// Events counts the trace's calls over all ranks — the event lines of
// its per-rank (v1) form.
func (t *Trace) Events() int {
	n := 0
	for _, k := range t.class {
		n += len(t.streams[k])
	}
	return n
}

// CallsOf returns rank r's call sequence, peers shifted to the rank: a
// fresh slice (sizes arrays are shared with the trace).
func (t *Trace) CallsOf(r int) []mpi.Call {
	return t.appendCalls(nil, r)
}

// appendCalls appends rank r's call sequence to dst.
func (t *Trace) appendCalls(dst []mpi.Call, r int) []mpi.Call {
	k := t.class[r]
	return appendShifted(dst, t.streams[k], r-t.reps[k])
}

// AnySource finds the first receive from mpi.AnySource — a recv peer or
// a sendrecv peer2 — in rank order and, within the rank, call order. A
// wildcard is never shifted, so the first is on a representative.
func (t *Trace) AnySource() (rank, call int, ok bool) {
	for k, calls := range t.streams {
		for i := range calls {
			if c := &calls[i]; c.Op == "recv" && c.Peer == mpi.AnySource || c.Op == "sendrecv" && c.Peer2 == mpi.AnySource {
				return t.reps[k], i, true
			}
		}
	}
	return 0, 0, false
}
