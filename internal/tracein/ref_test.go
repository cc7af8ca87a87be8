package tracein

// The reference codec: the per-line encoding/json decoder and the
// per-op json.Marshal writer this package used before the hand-written
// scanner and the append writer replaced them, kept verbatim as the
// differential oracle (oracle_test.go). Only the header line is shared
// with the shipped code: it still goes through encoding/json there too.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"mpisim/internal/mpi"
)

// RefParseBytes is ParseBytes as the reference decoder reads it: the
// per-rank calls of RefCalls, folded.
func RefParseBytes(data []byte) (*Trace, error) {
	hdr, calls, err := RefCalls(data)
	if err != nil {
		return nil, err
	}
	return New(hdr, calls)
}

// RefCalls decodes a trace into every rank's calls. A v2 file's members
// are checked naively: each event of a representative is expanded to
// every member and held to the v1 rules there.
func RefCalls(data []byte) (Header, [][]mpi.Call, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var (
		hdr        Header
		calls      [][]mpi.Call
		repOf      []int   // nil until a v2 members line
		members    [][]int // rep → its members
		lineNo     int
		sawHeader  bool
		sawMembers bool
	)
	for {
		raw, err := br.ReadBytes('\n')
		if len(raw) == 0 && err != nil {
			if err == io.EOF {
				break
			}
			return hdr, nil, err
		}
		lineNo++
		line := bytes.TrimRight(raw, "\r\n")
		if len(bytes.TrimSpace(line)) == 0 {
			if err == io.EOF {
				break
			}
			continue
		}
		switch {
		case !sawHeader:
			if perr := parseHeader(line, lineNo, &hdr); perr != nil {
				return hdr, nil, perr
			}
			calls = make([][]mpi.Call, hdr.Ranks)
			sawHeader, sawMembers = true, hdr.Version == 1
		case !sawMembers:
			if repOf, members, err = refParseMembers(line, lineNo, hdr.Ranks); err != nil {
				return hdr, nil, err
			}
			sawMembers = true
		default:
			rank, c, perr := refParseEvent(line, lineNo, hdr.Ranks)
			if perr != nil {
				return hdr, nil, perr
			}
			if repOf != nil && repOf[rank] != rank {
				return hdr, nil, lineErr(lineNo, "rank %d is a member of rank %d's class", rank, repOf[rank])
			}
			var of []int
			if members != nil {
				of = members[rank]
			}
			for _, m := range of {
				if perr := refCheckCall(m, &c, m-rank, hdr.Ranks, lineNo); perr != nil {
					return hdr, nil, perr
				}
			}
			calls[rank] = append(calls[rank], c)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return hdr, nil, err
		}
	}
	if !sawHeader {
		return hdr, nil, lineErr(1, "empty trace: missing header line")
	}
	if !sawMembers {
		return hdr, nil, lineErr(lineNo+1, "missing members line")
	}
	for r, rep := range repOf {
		if r == rep {
			continue
		}
		for _, c := range calls[rep] {
			calls[r] = append(calls[r], refShift(c, r-rep))
		}
	}
	return hdr, calls, nil
}

// refParseMembers decodes a v2 members line into rank → representative
// and representative → members.
func refParseMembers(line []byte, lineNo, ranks int) ([]int, [][]int, error) {
	var v struct {
		Members [][]int `json:"members"`
	}
	if err := refDecodeStrict(line, lineNo, &v); err != nil {
		return nil, nil, err
	}
	repOf, members := make([]int, ranks), make([][]int, ranks)
	for r := range repOf {
		repOf[r] = r
	}
	end := 0
	for _, run := range v.Members {
		if len(run) != 3 {
			return nil, nil, lineErr(lineNo, "a run is [rep, first, count]")
		}
		rep, first, count := run[0], run[1], run[2]
		if count < 1 || first < end || count > ranks || first > ranks-count || rep < 0 || rep >= first || repOf[rep] != rep {
			return nil, nil, lineErr(lineNo, "bad run %v", run)
		}
		for r := first; r < first+count; r++ {
			repOf[r] = rep
			members[rep] = append(members[rep], r)
		}
		end = first + count
	}
	return repOf, members, nil
}

// refShift is c as a rank d above its issuer issues it.
func refShift(c mpi.Call, d int) mpi.Call {
	switch c.Op {
	case "send", "recv":
		if c.Peer != mpi.AnySource {
			c.Peer += d
		}
	case "sendrecv":
		if c.Peer != mpi.AnySource {
			c.Peer += d
		}
		if c.Peer2 != mpi.AnySource {
			c.Peer2 += d
		}
	}
	return c
}

// refCheckCall holds call c of a representative, shifted to rank m, to
// the v1 event rules at m.
func refCheckCall(m int, c *mpi.Call, d, ranks, lineNo int) error {
	sc := refShift(*c, d)
	if (sc.Op == "send" || sc.Op == "recv" || sc.Op == "sendrecv") && sc.Peer >= ranks || sc.Op == "sendrecv" && sc.Peer2 >= ranks {
		return lineErr(lineNo, "peer out of range at member %d", m)
	}
	if sc.Op == "scatter" && sc.Sizes != nil && m != sc.Root {
		return lineErr(lineNo, "scatter sizes at member %d", m)
	}
	return nil
}

// RefWrite is Write as the reference encoder emits it: the members runs
// found rank by rank, each line through json.Marshal.
func RefWrite(w io.Writer, t *Trace) error {
	if t.Header.Version != SchemaVersion {
		return fmt.Errorf("tracein: cannot write schema version %d (want %d)", t.Header.Version, SchemaVersion)
	}
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(&t.Header)
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	runs := [][3]int{}
	for r := 0; r < t.Header.Ranks; r++ {
		rep := t.reps[t.class[r]]
		switch n := len(runs); {
		case rep == r:
		case n > 0 && runs[n-1][0] == rep && runs[n-1][1]+runs[n-1][2] == r:
			runs[n-1][2]++
		default:
			runs = append(runs, [3]int{rep, r, 1})
		}
	}
	members, _ := json.Marshal(struct {
		Members [][3]int `json:"members"`
	}{runs})
	bw.Write(members)
	bw.WriteByte('\n')
	for r := 0; r < t.Header.Ranks; r++ {
		if t.reps[t.class[r]] == r {
			if err := refWriteEvents(bw, r, t.CallsOf(r)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// RefWriteV1 writes the trace in the per-rank v1 form: every rank's
// calls, through the reference encoder. It is the only v1 writer there
// is; tests use it for v1 fixtures.
func RefWriteV1(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	h := t.Header
	h.Version = 1
	hdr, err := json.Marshal(&h)
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for r := 0; r < t.Header.Ranks; r++ {
		if err := refWriteEvents(bw, r, t.CallsOf(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refWriteEvents(bw *bufio.Writer, rank int, calls []mpi.Call) error {
	for i := range calls {
		line, err := refMarshalEvent(rank, &calls[i])
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return nil
}

// refDecodeStrict unmarshals one line into v, rejecting unknown fields,
// non-object values and trailing content.
func refDecodeStrict(line []byte, lineNo int, v interface{}) error {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return lineErr(lineNo, "expected a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return lineErr(lineNo, "%v", err)
	}
	if dec.More() {
		return lineErr(lineNo, "trailing content after JSON object")
	}
	return nil
}

// refWireEvent is the event line's wire form: pointer fields distinguish
// absent from zero so each op's required and allowed field sets can be
// enforced exactly.
type refWireEvent struct {
	R     *int     `json:"r"`
	Op    *string  `json:"op"`
	Sec   *float64 `json:"sec"`
	Task  *string  `json:"task"`
	Peer  *int     `json:"peer"`
	Tag   *int     `json:"tag"`
	Bytes *int64   `json:"bytes"`
	Peer2 *int     `json:"peer2"`
	Tag2  *int     `json:"tag2"`
	Root  *int     `json:"root"`
	Sizes []int64  `json:"sizes"`
}

type refFieldMask uint16

const (
	rfSec refFieldMask = 1 << iota
	rfTask
	rfPeer
	rfTag
	rfBytes
	rfPeer2
	rfTag2
	rfRoot
	rfSizes
)

var refFieldNames = []struct {
	mask refFieldMask
	name string
}{
	{rfSec, "sec"}, {rfTask, "task"}, {rfPeer, "peer"}, {rfTag, "tag"},
	{rfBytes, "bytes"}, {rfPeer2, "peer2"}, {rfTag2, "tag2"},
	{rfRoot, "root"}, {rfSizes, "sizes"},
}

// refOpFields declares, per op, which fields must and which additionally
// may appear.
var refOpFields = map[string]struct{ req, opt refFieldMask }{
	"compute":   {rfSec, 0},
	"delay":     {rfSec, rfTask},
	"send":      {rfPeer | rfTag | rfBytes, 0},
	"recv":      {rfPeer | rfTag | rfBytes, 0},
	"sendrecv":  {rfPeer | rfTag | rfBytes | rfPeer2 | rfTag2, 0},
	"bcast":     {rfRoot | rfBytes, 0},
	"reduce":    {rfRoot | rfBytes, 0},
	"gather":    {rfRoot | rfBytes, 0},
	"scatter":   {rfRoot | rfBytes, rfSizes},
	"allreduce": {rfBytes, 0},
	"allgather": {rfBytes, 0},
	"alltoall":  {rfBytes, rfSizes},
	"barrier":   {0, 0},
}

func (w *refWireEvent) present() refFieldMask {
	var m refFieldMask
	if w.Sec != nil {
		m |= rfSec
	}
	if w.Task != nil {
		m |= rfTask
	}
	if w.Peer != nil {
		m |= rfPeer
	}
	if w.Tag != nil {
		m |= rfTag
	}
	if w.Bytes != nil {
		m |= rfBytes
	}
	if w.Peer2 != nil {
		m |= rfPeer2
	}
	if w.Tag2 != nil {
		m |= rfTag2
	}
	if w.Root != nil {
		m |= rfRoot
	}
	if w.Sizes != nil {
		m |= rfSizes
	}
	return m
}

func refMaskNames(m refFieldMask) string {
	var names []string
	for _, f := range refFieldNames {
		if m&f.mask != 0 {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

func refParseEvent(line []byte, lineNo, ranks int) (int, mpi.Call, error) {
	var w refWireEvent
	if err := refDecodeStrict(line, lineNo, &w); err != nil {
		return 0, mpi.Call{}, err
	}
	if w.R == nil {
		return 0, mpi.Call{}, lineErr(lineNo, `event missing field "r"`)
	}
	if w.Op == nil {
		return 0, mpi.Call{}, lineErr(lineNo, `event missing field "op"`)
	}
	rank := *w.R
	if rank < 0 || rank >= ranks {
		return 0, mpi.Call{}, lineErr(lineNo, "rank %d out of range [0, %d)", rank, ranks)
	}
	spec, ok := refOpFields[*w.Op]
	if !ok {
		return 0, mpi.Call{}, lineErr(lineNo, "unknown op %q", *w.Op)
	}
	have := w.present()
	if missing := spec.req &^ have; missing != 0 {
		return 0, mpi.Call{}, lineErr(lineNo, "op %q missing field(s): %s", *w.Op, refMaskNames(missing))
	}
	if extra := have &^ (spec.req | spec.opt); extra != 0 {
		return 0, mpi.Call{}, lineErr(lineNo, "op %q does not take field(s): %s", *w.Op, refMaskNames(extra))
	}

	c := mpi.Call{Op: *w.Op}
	if w.Sec != nil {
		if math.IsNaN(*w.Sec) || math.IsInf(*w.Sec, 0) || *w.Sec < 0 {
			return 0, mpi.Call{}, lineErr(lineNo, "sec must be finite and >= 0, got %v", *w.Sec)
		}
		c.Sec = *w.Sec
	}
	if w.Task != nil {
		c.Task = *w.Task
	}
	if w.Bytes != nil {
		if *w.Bytes < 0 {
			return 0, mpi.Call{}, lineErr(lineNo, "bytes must be >= 0, got %d", *w.Bytes)
		}
		c.Bytes = *w.Bytes
	}
	if w.Peer != nil {
		c.Peer = *w.Peer
		lo := 0
		if *w.Op == "recv" {
			lo = mpi.AnySource // the receive wildcard
		}
		if c.Peer < lo || c.Peer >= ranks {
			return 0, mpi.Call{}, lineErr(lineNo, "peer %d out of range [%d, %d)", c.Peer, lo, ranks)
		}
	}
	if w.Tag != nil {
		c.Tag = *w.Tag
	}
	if w.Peer2 != nil {
		c.Peer2 = *w.Peer2
		if c.Peer2 < mpi.AnySource || c.Peer2 >= ranks {
			return 0, mpi.Call{}, lineErr(lineNo, "peer2 %d out of range [%d, %d)", c.Peer2, mpi.AnySource, ranks)
		}
	}
	if w.Tag2 != nil {
		c.Tag2 = *w.Tag2
	}
	if w.Root != nil {
		c.Root = *w.Root
		if c.Root < 0 || c.Root >= ranks {
			return 0, mpi.Call{}, lineErr(lineNo, "root %d out of range [0, %d)", c.Root, ranks)
		}
	}
	if w.Sizes != nil {
		if len(w.Sizes) != ranks {
			return 0, mpi.Call{}, lineErr(lineNo, "sizes has %d entries, want one per rank (%d)", len(w.Sizes), ranks)
		}
		for i, s := range w.Sizes {
			if s < 0 {
				return 0, mpi.Call{}, lineErr(lineNo, "sizes[%d] must be >= 0, got %d", i, s)
			}
		}
		if *w.Op == "scatter" && rank != c.Root {
			return 0, mpi.Call{}, lineErr(lineNo, "scatter sizes are only valid on the root's event (rank %d, root %d)", rank, c.Root)
		}
		c.Sizes = w.Sizes
	}
	return rank, c, nil
}

// refMarshalEvent renders one call as its canonical JSONL line. Per-op
// anonymous structs pin the field order, so equal traces serialize to
// equal bytes.
func refMarshalEvent(rank int, c *mpi.Call) ([]byte, error) {
	type rop struct {
		R  int    `json:"r"`
		Op string `json:"op"`
	}
	switch c.Op {
	case "compute":
		return json.Marshal(struct {
			rop
			Sec float64 `json:"sec"`
		}{rop{rank, c.Op}, c.Sec})
	case "delay":
		return json.Marshal(struct {
			rop
			Sec  float64 `json:"sec"`
			Task string  `json:"task,omitempty"`
		}{rop{rank, c.Op}, c.Sec, c.Task})
	case "send", "recv":
		return json.Marshal(struct {
			rop
			Peer  int   `json:"peer"`
			Tag   int   `json:"tag"`
			Bytes int64 `json:"bytes"`
		}{rop{rank, c.Op}, c.Peer, c.Tag, c.Bytes})
	case "sendrecv":
		return json.Marshal(struct {
			rop
			Peer  int   `json:"peer"`
			Tag   int   `json:"tag"`
			Bytes int64 `json:"bytes"`
			Peer2 int   `json:"peer2"`
			Tag2  int   `json:"tag2"`
		}{rop{rank, c.Op}, c.Peer, c.Tag, c.Bytes, c.Peer2, c.Tag2})
	case "bcast", "reduce", "gather":
		return json.Marshal(struct {
			rop
			Root  int   `json:"root"`
			Bytes int64 `json:"bytes"`
		}{rop{rank, c.Op}, c.Root, c.Bytes})
	case "scatter":
		return json.Marshal(struct {
			rop
			Root  int     `json:"root"`
			Bytes int64   `json:"bytes"`
			Sizes []int64 `json:"sizes,omitempty"`
		}{rop{rank, c.Op}, c.Root, c.Bytes, c.Sizes})
	case "allreduce", "allgather":
		return json.Marshal(struct {
			rop
			Bytes int64 `json:"bytes"`
		}{rop{rank, c.Op}, c.Bytes})
	case "alltoall":
		return json.Marshal(struct {
			rop
			Bytes int64   `json:"bytes"`
			Sizes []int64 `json:"sizes,omitempty"`
		}{rop{rank, c.Op}, c.Bytes, c.Sizes})
	case "barrier":
		return json.Marshal(rop{rank, c.Op})
	}
	return nil, fmt.Errorf("tracein: rank %d: unknown op %q in call log", rank, c.Op)
}
