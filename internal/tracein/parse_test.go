package tracein_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mpisim/internal/tracein"
)

const hdr4 = `{"mpisim_trace":1,"ranks":4,"machine":"ibmsp","comm":"analytic"}` + "\n"

// TestParseValid checks a hand-written trace covering every op parses
// and replays.
func TestParseValid(t *testing.T) {
	src := hdr4 +
		`{"r":0,"op":"compute","sec":0.001}` + "\n" +
		`{"r":0,"op":"delay","sec":0.002,"task":"w_1"}` + "\n" +
		`{"r":0,"op":"send","peer":1,"tag":7,"bytes":2048}` + "\n" +
		`{"r":1,"op":"recv","peer":0,"tag":7,"bytes":2048}` + "\n" +
		`{"r":2,"op":"recv","peer":-1,"tag":-1,"bytes":64}` + "\n" +
		`{"r":3,"op":"send","peer":2,"tag":0,"bytes":64}` + "\n" +
		"\n" + // blank lines are skipped
		`{"r":0,"op":"sendrecv","peer":1,"tag":1,"bytes":8,"peer2":1,"tag2":2}` + "\n" +
		`{"r":1,"op":"sendrecv","peer":0,"tag":2,"bytes":8,"peer2":0,"tag2":1}` + "\n" +
		`{"r":0,"op":"bcast","root":0,"bytes":1024}` + "\n" +
		`{"r":1,"op":"bcast","root":0,"bytes":1024}` + "\n" +
		`{"r":2,"op":"bcast","root":0,"bytes":1024}` + "\n" +
		`{"r":3,"op":"bcast","root":0,"bytes":1024}` + "\n" +
		`{"r":0,"op":"scatter","root":0,"bytes":0,"sizes":[8,16,24,32]}` + "\n" +
		`{"r":1,"op":"scatter","root":0,"bytes":0}` + "\n" +
		`{"r":2,"op":"scatter","root":0,"bytes":0}` + "\n" +
		`{"r":3,"op":"scatter","root":0,"bytes":0}` + "\n" +
		`{"r":0,"op":"barrier"}` + "\n" +
		`{"r":1,"op":"barrier"}` + "\n" +
		`{"r":2,"op":"barrier"}` + "\n" +
		`{"r":3,"op":"barrier"}` + "\n"
	tr, err := tracein.ParseBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Ranks != 4 || tr.Events() != 20 {
		t.Fatalf("got %d ranks, %d events", tr.Header.Ranks, tr.Events())
	}
	// A final newline is not required.
	if _, err := tracein.ParseBytes([]byte(strings.TrimSuffix(src, "\n"))); err != nil {
		t.Fatalf("trace without trailing newline: %v", err)
	}
}

// TestParseErrors is the diagnostics table: every malformed input must
// produce a *ParseError anchored to the offending line — never a panic,
// never a silent acceptance.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		want string // substring of the message
	}{
		{"empty", "", 1, "missing header line"},
		{"blank only", "\n\n", 1, "missing header line"},
		{"not json", "hello world\n", 1, "not a trace header"},
		{"json array", "[1,2,3]\n", 1, "not a trace header"},
		{"object but not a header", `{"foo":1}` + "\n", 1, "not a trace header"},
		{"future version", `{"mpisim_trace":2,"ranks":4}` + "\n", 1, "unsupported trace version 2"},
		{"unknown header field", `{"mpisim_trace":1,"ranks":4,"zap":1}` + "\n", 1, `unknown field "zap"`},
		{"zero ranks", `{"mpisim_trace":1,"ranks":0}` + "\n", 1, "ranks must be >= 1"},
		{"negative ranks", `{"mpisim_trace":1,"ranks":-3}` + "\n", 1, "ranks must be >= 1"},
		{"allocation bomb", `{"mpisim_trace":1,"ranks":1000000000}` + "\n", 1, "exceeds the supported maximum"},
		{"unknown comm", `{"mpisim_trace":1,"ranks":4,"comm":"psychic"}` + "\n", 1, `unknown comm model "psychic"`},
		{"huge input", `{"mpisim_trace":1,"ranks":4,"inputs":{"n":1e999}}` + "\n", 1, ""},
		{"negative extrapolated_from", `{"mpisim_trace":1,"ranks":4,"extrapolated_from":-1}` + "\n", 1, "extrapolated_from"},
		{"header trailing garbage", `{"mpisim_trace":1,"ranks":4} junk` + "\n", 1, "trailing content"},
		{"event not an object", hdr4 + "42\n", 2, "expected a JSON object"},
		{"event bad json", hdr4 + "{broken\n", 2, ""},
		{"event trailing garbage", hdr4 + `{"r":0,"op":"barrier"} junk` + "\n", 2, "trailing content"},
		{"missing r", hdr4 + `{"op":"barrier"}` + "\n", 2, `missing field "r"`},
		{"missing op", hdr4 + `{"r":0}` + "\n", 2, `missing field "op"`},
		{"rank out of range", hdr4 + `{"r":4,"op":"barrier"}` + "\n", 2, "rank 4 out of range"},
		{"negative rank", hdr4 + `{"r":-1,"op":"barrier"}` + "\n", 2, "rank -1 out of range"},
		{"unknown op", hdr4 + `{"r":0,"op":"teleport"}` + "\n", 2, `unknown op "teleport"`},
		{"unknown event field", hdr4 + `{"r":0,"op":"barrier","zz":1}` + "\n", 2, `unknown field "zz"`},
		{"missing required field", hdr4 + `{"r":0,"op":"send","peer":1,"tag":0}` + "\n", 2, "missing field(s): bytes"},
		{"foreign field", hdr4 + `{"r":0,"op":"compute","sec":1,"peer":2}` + "\n", 2, "does not take field(s): peer"},
		{"barrier with payload", hdr4 + `{"r":0,"op":"barrier","bytes":4}` + "\n", 2, "does not take field(s): bytes"},
		{"negative sec", hdr4 + `{"r":0,"op":"compute","sec":-1}` + "\n", 2, "sec must be finite"},
		{"infinite sec", hdr4 + `{"r":0,"op":"compute","sec":1e999}` + "\n", 2, ""},
		{"negative bytes", hdr4 + `{"r":0,"op":"send","peer":1,"tag":0,"bytes":-8}` + "\n", 2, "bytes must be >= 0"},
		{"peer out of range", hdr4 + `{"r":0,"op":"send","peer":4,"tag":0,"bytes":8}` + "\n", 2, "peer 4 out of range"},
		{"send wildcard peer", hdr4 + `{"r":0,"op":"send","peer":-1,"tag":0,"bytes":8}` + "\n", 2, "peer -1 out of range"},
		{"recv below wildcard", hdr4 + `{"r":0,"op":"recv","peer":-2,"tag":0,"bytes":8}` + "\n", 2, "peer -2 out of range"},
		{"peer2 out of range", hdr4 + `{"r":0,"op":"sendrecv","peer":1,"tag":0,"bytes":8,"peer2":9,"tag2":0}` + "\n", 2, "peer2 9 out of range"},
		{"root out of range", hdr4 + `{"r":0,"op":"bcast","root":4,"bytes":8}` + "\n", 2, "root 4 out of range"},
		{"sizes wrong length", hdr4 + `{"r":0,"op":"scatter","root":0,"bytes":0,"sizes":[1,2]}` + "\n", 2, "sizes has 2 entries"},
		{"negative size entry", hdr4 + `{"r":0,"op":"scatter","root":0,"bytes":0,"sizes":[1,2,-3,4]}` + "\n", 2, "sizes[2] must be >= 0"},
		{"scatter sizes off root", hdr4 + `{"r":1,"op":"scatter","root":0,"bytes":0,"sizes":[1,2,3,4]}` + "\n", 2, "only valid on the root"},
		{"error on later line", hdr4 + `{"r":0,"op":"barrier"}` + "\n" + `{"r":0,"op":"warp"}` + "\n", 3, `unknown op "warp"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tracein.ParseBytes([]byte(tc.src))
			if err == nil {
				t.Fatalf("parse accepted malformed input")
			}
			var perr *tracein.ParseError
			if !errors.As(err, &perr) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if perr.Line != tc.line {
				t.Errorf("error anchored to line %d, want %d: %v", perr.Line, tc.line, err)
			}
			if tc.want != "" && !strings.Contains(perr.Msg, tc.want) {
				t.Errorf("message %q does not contain %q", perr.Msg, tc.want)
			}
		})
	}
}

// FuzzParseTrace feeds the parser arbitrary bytes. The contract under
// fuzzing: never panic; every rejection is a line-anchored *ParseError;
// the scanner and the writer agree with the reference codec
// (checkAgainstReference); every accepted trace re-serializes
// canonically and stably (write → parse → write is a fixed point).
func FuzzParseTrace(f *testing.F) {
	valid := hdr4 +
		`{"r":0,"op":"compute","sec":0.001}` + "\n" +
		`{"r":0,"op":"send","peer":1,"tag":7,"bytes":2048}` + "\n" +
		`{"r":1,"op":"recv","peer":0,"tag":7,"bytes":2048}` + "\n" +
		`{"r":0,"op":"allreduce","bytes":64}` + "\n" +
		`{"r":0,"op":"scatter","root":0,"bytes":0,"sizes":[8,16,24,32]}` + "\n" +
		`{"r":0,"op":"barrier"}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(hdr4)+20]))                                    // truncated mid-event
	f.Add([]byte(strings.Replace(valid, `"bytes":2048`, `"bytes":-1`, 1))) // corrupt value
	f.Add([]byte(strings.Replace(valid, `"mpisim_trace":1`, `"mpisim_trace":99`, 1)))
	f.Add([]byte(strings.Replace(valid, `"op":"send"`, `"op":"zap"`, 1)))
	f.Add([]byte(`{"mpisim_trace":1,"ranks":999999999}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\xff\xfe not a trace"))
	f.Add([]byte(hdr4 + `{"R":0,"op":"delay","sec":1e-7,"task":"w\u00e9\n","task":null}` + "}\n"))
	f.Add([]byte(hdr4 + " { \"op\" : \"alltoall\" , \"sizes\" : [ 1 , 2 , 3 , 4 ] , \"bytes\" : 0 , \"r\" : 3 } \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := checkAgainstReference(t, data)
		if err != nil {
			return
		}
		// Accepted: the canonical serialization must parse back and be
		// a fixed point byte-for-byte.
		var buf bytes.Buffer
		if err := tracein.Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not serialize: %v", err)
		}
		tr2, err := tracein.ParseBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("canonical serialization does not parse: %v", err)
		}
		var buf2 bytes.Buffer
		if err := tracein.Write(&buf2, tr2); err != nil {
			t.Fatalf("reparsed trace does not serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("write→parse→write is not a fixed point")
		}
	})
}
