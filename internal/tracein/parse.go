package tracein

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"mpisim/internal/mpi"
)

// ParseError is a line-anchored trace diagnostic. Every way a trace can
// be malformed — bad JSON, unknown fields, missing or extra fields for
// an op, out-of-range ranks or sizes — reports as a ParseError naming
// the offending line; the parser never panics.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("tracein: line %d: %s", e.Line, e.Msg)
}

func lineErr(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// readBufSize is the line reader's buffer; a longer line (a sizes array
// of a large world) spills into a grown scratch buffer.
const readBufSize = 64 << 10

// depth is how much of a trace stream parse consumes and keeps.
type depth int

const (
	headerOnly depth = iota // stop after the header line
	checkOnly               // scan and check every event, keep none
	full                    // materialize the call log
)

// Parse reads a JSONL trace stream strictly: the first line must be a
// valid header of the supported schema version, every following
// non-empty line one well-formed event. Unknown fields, fields foreign
// to an event's op, wrong types, non-finite numbers and out-of-range
// references are all rejected with line-anchored errors.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	if err := parse(r, t, full); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseBytes parses an in-memory trace.
func ParseBytes(data []byte) (*Trace, error) {
	return Parse(bytes.NewReader(data))
}

// Validate reads a trace exactly as Parse does — every check, the same
// line-anchored diagnostics — but keeps only the header: admission of
// an untrusted trace without paying for its call log. It also returns
// the receive Trace.AnySource would find, nil when there is none.
func Validate(r io.Reader) (*Header, *Wildcard, error) {
	var t Trace
	if err := parse(r, &t, checkOnly); err != nil {
		return nil, nil, err
	}
	return &t.Header, t.wild, nil
}

// Wildcard locates a receive from mpi.AnySource: its rank and its call,
// counted from 0 in the rank's sequence.
type Wildcard struct{ Rank, Call int }

// ReadHeader reads and validates only the trace's header line: cheap
// access to the run metadata (app, rank count, machine). It stops at
// the first non-blank line and reads no further into r than its buffer.
func ReadHeader(r io.Reader) (*Header, error) {
	var t Trace
	if err := parse(r, &t, headerOnly); err != nil {
		return nil, err
	}
	return &t.Header, nil
}

// parse is the one line loop behind every entry point. A v1 file is a
// header and every rank's events; a v2 file puts its members line
// (classMap) between the two and has events on representatives only.
// Either way the full call log folds into the class form; a check finds
// the first receive from any source in rank order, then call order.
func parse(r io.Reader, t *Trace, d depth) error {
	br := bufio.NewReaderSize(r, readBufSize)
	var (
		spill      []byte
		sc         scanner
		cm         classMap
		log        callLog
		calls      []int // by rank, while checking
		lineNo     int
		sawHeader  bool
		sawMembers bool
	)
	for {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			spill = append(spill[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				spill = append(spill, raw...)
			}
			raw = spill
		}
		if len(raw) == 0 && err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		lineNo++
		switch line := bytes.TrimSpace(raw); {
		case len(line) == 0:
		case !sawHeader:
			if perr := parseHeader(bytes.TrimRight(raw, "\r\n"), lineNo, &t.Header); perr != nil {
				return perr
			}
			if d == headerOnly {
				return nil
			}
			sawHeader, sawMembers = true, t.Header.Version == 1
			t.Header.Version = SchemaVersion
			sc.ranks, sc.keep = t.Header.Ranks, d == full
			if d == full {
				log.calls = make([][]mpi.Call, t.Header.Ranks)
			} else {
				calls = make([]int, t.Header.Ranks)
			}
		case !sawMembers:
			if perr := cm.parse(line, lineNo, t.Header.Ranks); perr != nil {
				return perr
			}
			sawMembers = true
		default:
			if perr := sc.event(line, lineNo); perr != nil {
				return perr
			}
			if perr := cm.check(&sc); perr != nil {
				return perr
			}
			if d == full {
				log.add(sc.rank, &sc.call)
				break
			}
			if anySource(&sc.call) && (t.wild == nil || sc.rank < t.wild.Rank) {
				t.wild = &Wildcard{sc.rank, calls[sc.rank]}
			}
			calls[sc.rank]++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	switch {
	case !sawHeader:
		return lineErr(1, "empty trace: missing header line")
	case !sawMembers:
		return lineErr(lineNo+1, `missing the members line {"members":[...]} of a version 2 trace`)
	case d == full:
		*t = *fold(t.Header, cm.rep, func(r int, _ []mpi.Call) []mpi.Call { return log.calls[r] })
	}
	return nil
}

// classMap is a v2 trace's members line: each run [rep, first, count]
// makes ranks first … first+count−1 members of rep's class, which replay
// rep's events with their peers shifted by their distance from it. Runs
// are in rank order and do not overlap; a representative is below its
// members and in no run. The zero classMap is v1's identity map.
type classMap struct {
	rep  []int32 // rank → its representative
	span []int32 // representative → its last member's distance from it (0: none)
}

func (m *classMap) parse(line []byte, lineNo, ranks int) error {
	var v struct {
		Members [][]int `json:"members"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return lineErr(lineNo, `want the members line {"members":[[rep,first,count],...]}: %v`, err)
	}
	if dec.More() {
		return lineErr(lineNo, "trailing content after JSON object")
	}
	m.rep, m.span = make([]int32, ranks), make([]int32, ranks)
	for r := range m.rep {
		m.rep[r] = int32(r)
	}
	next := 0 // the first rank a run may start at
	for i, run := range v.Members {
		if len(run) != 3 {
			return lineErr(lineNo, "members[%d] has %d entries, want [rep, first, count]", i, len(run))
		}
		rep, first, count := run[0], run[1], run[2]
		switch {
		case count < 1:
			return lineErr(lineNo, "members[%d]: count must be >= 1, got %d", i, count)
		case first < next:
			return lineErr(lineNo, "members[%d] starts at rank %d, before rank %d: runs are in rank order and do not overlap", i, first, next)
		case first > ranks-count:
			return lineErr(lineNo, "members[%d] runs past the last rank %d", i, ranks-1)
		case rep < 0 || rep >= first:
			return lineErr(lineNo, "members[%d]: representative %d must be a rank below its members", i, rep)
		case int(m.rep[rep]) != rep:
			return lineErr(lineNo, "members[%d]: representative %d is itself a member of rank %d's class", i, rep, m.rep[rep])
		}
		for r := first; r < first+count; r++ {
			m.rep[r] = int32(rep)
		}
		m.span[rep], next = int32(first+count-1-rep), first+count
	}
	return nil
}

// check holds a scanned event to the class map: only a representative
// has events, each moving peer stays a rank at its farthest member, and
// scatter sizes — valid on the root's event only — are not on a class
// that has other members.
func (m *classMap) check(s *scanner) error {
	if m.rep == nil {
		return nil
	}
	r, c := s.rank, &s.call
	if rep := int(m.rep[r]); rep != r {
		return s.errf("rank %d is a member of rank %d's class: only representatives have events", r, rep)
	}
	span := int(m.span[r])
	if span == 0 {
		return nil
	}
	if s.have&fSizes != 0 && c.Op == "scatter" {
		return s.errf("scatter sizes on rank %d, whose class has members: they are only valid on the root's event", r)
	}
	far := func(name string, peer int) error {
		return s.errf("%s %d is rank %d at member %d, out of range [0, %d)", name, peer, peer+span, r+span, s.ranks)
	}
	if moves, moves2 := c.MovingPeers(); moves && mpi.ShiftPeer(c.Peer, span) >= s.ranks {
		return far("peer", c.Peer)
	} else if moves2 && mpi.ShiftPeer(c.Peer2, span) >= s.ranks {
		return far("peer2", c.Peer2)
	}
	return nil
}

// callLog appends parsed calls to the trace's per-rank slices. A rank's
// first event sizes its slice from the longest rank read so far (SPMD
// ranks are near-equal), so a trace in rank order costs one allocation
// per rank instead of a regrowth series. What is reserved is bounded by
// what was read: the hint never lets unused capacity exceed the events
// already parsed, so no rank order turns it into an allocation bomb.
type callLog struct {
	calls   [][]mpi.Call
	events  int // calls appended
	capSum  int // total capacity of calls[*]
	longest int // most calls on any one rank so far
}

func (l *callLog) add(rank int, c *mpi.Call) {
	s := l.calls[rank]
	before := cap(s)
	if s == nil {
		unused := l.capSum - l.events
		if n := min(l.longest, l.events-unused); n > 1 {
			s = make([]mpi.Call, 0, n)
		}
	}
	s = append(s, *c)
	l.calls[rank] = s
	l.capSum += cap(s) - before
	l.events++
	if len(s) > l.longest {
		l.longest = len(s)
	}
}

// ParseFile parses a trace file.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// parseHeader decodes and validates the header line. It is the one
// line of a trace that goes through encoding/json: once per file, and
// its maps and optional fields are what reflection is good at.
func parseHeader(line []byte, lineNo int, h *Header) error {
	// Presence of the version key distinguishes "not a trace at all"
	// from "a trace of an unsupported version".
	var probe struct {
		Version *int `json:"mpisim_trace"`
	}
	probeDec := json.NewDecoder(bytes.NewReader(line))
	if err := probeDec.Decode(&probe); err != nil || probe.Version == nil {
		return lineErr(lineNo, `not a trace header (missing "mpisim_trace" version field)`)
	}
	if *probe.Version != 1 && *probe.Version != SchemaVersion {
		return lineErr(lineNo, "unsupported trace version %d (this build reads versions 1 and %d)", *probe.Version, SchemaVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(bytes.TrimSpace(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(h); err != nil {
		return lineErr(lineNo, "%v", err)
	}
	if dec.More() {
		return lineErr(lineNo, "trailing content after JSON object")
	}
	if h.Ranks < 1 {
		return lineErr(lineNo, "ranks must be >= 1, got %d", h.Ranks)
	}
	if h.Ranks > MaxRanks {
		return lineErr(lineNo, "ranks %d exceeds the supported maximum %d", h.Ranks, MaxRanks)
	}
	if h.Comm != "" {
		if _, err := mpi.CommByName(h.Comm); err != nil {
			return lineErr(lineNo, "unknown comm model %q", h.Comm)
		}
	}
	for k, v := range h.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return lineErr(lineNo, "input %q is not finite", k)
		}
	}
	if h.ExtrapolatedFrom < 0 {
		return lineErr(lineNo, "extrapolated_from must be >= 0, got %d", h.ExtrapolatedFrom)
	}
	return nil
}
