package tracein

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode/utf8"

	"mpisim/internal/mpi"
)

// Write serializes the trace as JSONL: the header line followed by each
// rank's calls in rank order. The output is deterministic and Parse
// reads it back to an identical Trace: the header is one json.Marshal
// (struct field order, sorted map keys); each event line is appended
// field by field in the fixed order appendEvent states, numbers in
// encoding/json's form, so equal traces serialize to equal bytes.
func Write(w io.Writer, t *Trace) error {
	if t.Header.Version != SchemaVersion {
		return fmt.Errorf("tracein: cannot write schema version %d (want %d)", t.Header.Version, SchemaVersion)
	}
	if t.Header.Ranks != len(t.Calls) {
		return fmt.Errorf("tracein: header declares %d ranks but trace has %d call sequences", t.Header.Ranks, len(t.Calls))
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	hdr, err := json.Marshal(&t.Header)
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	var line []byte
	for rank, calls := range t.Calls {
		for i := range calls {
			if line, err = appendEvent(line[:0], rank, &calls[i]); err != nil {
				return err
			}
			bw.Write(line)
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to path (0644, truncating).
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendEvent appends one call's canonical JSONL line, newline
// included. Every op emits "r" and "op" and then, of the fields its
// ops entry names, those present in this fixed order: sec, task,
// peer, tag, root, bytes, peer2, tag2, sizes. Optional fields (task,
// sizes) are omitted when empty.
func appendEvent(b []byte, rank int, c *mpi.Call) ([]byte, error) {
	spec := opOf(c.Op)
	if spec == nil {
		return nil, fmt.Errorf("tracein: rank %d: unknown op %q in call log", rank, c.Op)
	}
	fields := spec.req | spec.opt
	b = append(b, `{"r":`...)
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, `,"op":"`...)
	b = append(b, spec.name...)
	b = append(b, '"')
	if fields&fSec != 0 {
		if math.IsNaN(c.Sec) || math.IsInf(c.Sec, 0) {
			return nil, fmt.Errorf("tracein: rank %d: %s has non-finite sec %v", rank, c.Op, c.Sec)
		}
		b = appendFloat(append(b, `,"sec":`...), c.Sec)
	}
	if fields&fTask != 0 && c.Task != "" {
		b = appendString(append(b, `,"task":`...), c.Task)
	}
	if fields&fPeer != 0 {
		b = strconv.AppendInt(append(b, `,"peer":`...), int64(c.Peer), 10)
	}
	if fields&fTag != 0 {
		b = strconv.AppendInt(append(b, `,"tag":`...), int64(c.Tag), 10)
	}
	if fields&fRoot != 0 {
		b = strconv.AppendInt(append(b, `,"root":`...), int64(c.Root), 10)
	}
	if fields&fBytes != 0 {
		b = strconv.AppendInt(append(b, `,"bytes":`...), c.Bytes, 10)
	}
	if fields&fPeer2 != 0 {
		b = strconv.AppendInt(append(b, `,"peer2":`...), int64(c.Peer2), 10)
	}
	if fields&fTag2 != 0 {
		b = strconv.AppendInt(append(b, `,"tag2":`...), int64(c.Tag2), 10)
	}
	if fields&fSizes != 0 && len(c.Sizes) > 0 {
		b = append(b, `,"sizes":[`...)
		for i, v := range c.Sizes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}

// appendFloat appends a finite float64 in encoding/json's form: the
// shortest decimal that round-trips, as 'f' except 'e' below 1e-6 and
// from 1e21, with a two-digit exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string exactly as encoding/json
// would: directly when s needs no escaping (every task name the
// compiler generates), through json.Marshal otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
