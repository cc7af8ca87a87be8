package tracein_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpisim/internal/core"
	"mpisim/internal/irgen"
	"mpisim/internal/tracein"
)

// stricterClasses are the inputs the scanner rejects although the
// reference (encoding/json) decoder took them, each by the words its
// diagnostic must carry. DESIGN.md's trace section documents them.
var stricterClasses = []string{
	"case-sensitive",   // "R" for "r": encoding/json folds key case
	"is null",          // null for a value: encoding/json read it as absent
	"duplicate field",  // encoding/json kept the last
	"invalid UTF-8",    // encoding/json substituted U+FFFD
	"trailing content", // a stray } or ] after the object: Decoder.More missed it
}

func stricterClass(msg string) bool {
	for _, c := range stricterClasses {
		if strings.Contains(msg, c) {
			return true
		}
	}
	return false
}

// checkAgainstReference holds the shipped codec to the reference one on
// arbitrary input: what the scanner accepts the reference accepts, to a
// DeepEqual Trace that both writers serialize to the same bytes; the
// scanner's first rejection comes no later than the reference's, and
// earlier only for a documented stricter class; Validate agrees with
// Parse. It returns the scanner's result.
func checkAgainstReference(t testing.TB, data []byte) (*tracein.Trace, error) {
	t.Helper()
	got, gerr := tracein.ParseBytes(data)
	want, werr := tracein.RefParseBytes(data)

	var gpe, wpe *tracein.ParseError
	if gerr != nil && !errors.As(gerr, &gpe) {
		t.Fatalf("rejection is %T, want *ParseError: %v", gerr, gerr)
	}
	if werr != nil && !errors.As(werr, &wpe) {
		t.Fatalf("reference rejection is %T, want *ParseError: %v", werr, werr)
	}
	switch {
	case gerr == nil && werr != nil:
		t.Fatalf("scanner accepts what the reference rejects: %v", werr)
	case gerr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner and reference parse to different traces")
		}
		var gb, wb bytes.Buffer
		if err := tracein.Write(&gb, got); err != nil {
			t.Fatalf("accepted trace does not serialize: %v", err)
		}
		if err := tracein.RefWrite(&wb, got); err != nil {
			t.Fatalf("reference writer: %v", err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("Write differs from the reference writer:\n%s\nvs\n%s", gb.Bytes(), wb.Bytes())
		}
	case werr == nil || gpe.Line < wpe.Line:
		if !stricterClass(gpe.Msg) {
			t.Fatalf("scanner rejects what the reference accepts, outside the documented classes: %v", gerr)
		}
	case gpe.Line > wpe.Line:
		t.Fatalf("scanner accepted line %d, which the reference rejects: %v", wpe.Line, werr)
	}

	hdr, wild, verr := tracein.Validate(bytes.NewReader(data))
	switch {
	case (verr == nil) != (gerr == nil), verr != nil && verr.Error() != gerr.Error():
		t.Fatalf("Validate and Parse disagree: %v vs %v", verr, gerr)
	case verr == nil && !reflect.DeepEqual(*hdr, got.Header):
		t.Fatalf("Validate returns a different header than Parse")
	}
	if verr == nil {
		if rank, call, ok := got.AnySource(); ok != (wild != nil) || ok && *wild != (tracein.Wildcard{Rank: rank, Call: call}) {
			t.Fatalf("Validate finds the wildcard receive %+v, AnySource rank %d call %d (%v)", wild, rank, call, ok)
		}
	}
	return got, gerr
}

// TestStricterThanReference pins one input per documented stricter
// class (and the spellings of each the differential fuzz found): the
// reference accepts it, the scanner rejects it by name.
func TestStricterThanReference(t *testing.T) {
	cases := []struct{ name, line, want string }{
		{"upper-case key", `{"R":0,"op":"barrier"}`, "case-sensitive"},
		{"mixed-case key", `{"r":0,"op":"send","Peer":1,"tag":0,"bytes":8}`, "case-sensitive"},
		{"kelvin-sign key", `{"r":0,"op":"delay","sec":1,"tas` + "\u212a" + `":"w"}`, "case-sensitive"},
		{"null value", `{"r":0,"op":"delay","sec":1,"task":null}`, "is null"},
		{"null sizes", `{"r":0,"op":"alltoall","bytes":8,"sizes":null}`, "is null"},
		{"null sizes entry", `{"r":0,"op":"alltoall","bytes":8,"sizes":[1,null,3,4]}`, "is null"},
		{"duplicate key", `{"r":0,"r":1,"op":"barrier"}`, "duplicate field"},
		{"invalid UTF-8", `{"r":0,"op":"delay","sec":1,"task":"w` + "\xff" + `"}`, "invalid UTF-8"},
		{"invalid UTF-8 after escape", `{"r":0,"op":"delay","sec":1,"task":"\tw` + "\xc0" + `"}`, "invalid UTF-8"},
		{"stray closing brace", `{"r":0,"op":"barrier"}}`, "trailing content"},
		{"stray closing bracket", `{"r":0,"op":"barrier"} ] junk`, "trailing content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := []byte(hdr4 + tc.line + "\n")
			if _, err := tracein.RefParseBytes(src); err != nil {
				t.Fatalf("the reference rejects it too (not a stricter class): %v", err)
			}
			_, err := checkAgainstReference(t, src)
			var perr *tracein.ParseError
			if !errors.As(err, &perr) || perr.Line != 2 || !strings.Contains(perr.Msg, tc.want) {
				t.Fatalf("got %v, want a line-2 ParseError naming %q", err, tc.want)
			}
		})
	}
}

// TestAcceptedGrammar pins what the scanner must keep accepting beyond
// Write's own output: any key order, insignificant whitespace, every
// standard string escape (in keys too), and the number spellings
// encoding/json took.
func TestAcceptedGrammar(t *testing.T) {
	lines := []string{
		`{"op":"send","bytes":8,"tag":0,"peer":1,"r":0}`,
		" \t{ \"r\" : 0 ,\t\"op\" : \"barrier\" } \r",
		`{"r":0,"op":"barrier"}`,
		`{"r":0,"op":"delay","sec":1E-3,"task":"a\"b\\c\/d\b\f\n\r\té😀\ud800x"}`,
		`{"r":0,"op":"delay","sec":0.5e+1,"task":"naïve ☃"}`,
		`{"r":-0,"op":"compute","sec":-0}`,
		`{"r":0,"op":"compute","sec":1e-400}`,
		`{"r":0,"op":"recv","peer":-1,"tag":-9223372036854775808,"bytes":9223372036854775807}`,
		`{"r":0,"op":"alltoall","bytes":0,"sizes":[ 1 , 2,3 ,4 ]}`,
		"\v\f{\"r\":0,\"op\":\"barrier\"} ",
	}
	tr, err := checkAgainstReference(t, []byte(hdr4+strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() != len(lines) {
		t.Fatalf("parsed %d events, want %d", tr.Events(), len(lines))
	}
	if got, want := tr.CallsOf(0)[3].Task, "a\"b\\c/d\b\f\n\r\té😀\ufffdx"; got != want {
		t.Fatalf("escapes decoded to %q, want %q", got, want)
	}
}

// TestRejectedGrammar: malformed JSON the reference rejects stays
// rejected, on the right line.
func TestRejectedGrammar(t *testing.T) {
	for _, line := range []string{
		`{"r":01,"op":"barrier"}`, `{"r":+1,"op":"barrier"}`, `{"r":1.0,"op":"barrier"}`,
		`{"r":1e0,"op":"barrier"}`, `{"r":9223372036854775808,"op":"barrier"}`, `{"r":-,"op":"barrier"}`,
		`{"r":0,"op":"compute","sec":1.}`, `{"r":0,"op":"compute","sec":.5}`, `{"r":0,"op":"compute","sec":1e}`,
		`{"r":0,"op":"compute","sec":"1"}`, `{"r":0,"op":"compute","sec":NaN}`, `{"r":0,"op":"compute","sec":0x10}`,
		`{"r":0,"op":barrier}`, `{"r":0,"op":7}`, `{"r":"0","op":"barrier"}`, `{"r":0,"op":"barrier",}`,
		`{,"r":0,"op":"barrier"}`, `{"r":0 "op":"barrier"}`, `{"r" 0,"op":"barrier"}`, `{r:0,"op":"barrier"}`,
		`{"r":0,"op":"barrier"`, `{"r":0,"op":"barrier`, `{`, `{}`, `[]`, `null`, `"r"`,
		`{"r":0,"op":"delay","sec":1,"task":"a` + "\x01" + `"}`, `{"r":0,"op":"delay","sec":1,"task":"\x"}`,
		`{"r":0,"op":"delay","sec":1,"task":"\u12g4"}`, `{"r":0,"op":"delay","sec":1,"task":"\u12"}`,
		`{"r":0,"op":"delay","sec":1,"task":"\`, `{"r":0,"op":"delay","sec":1,"task":["w"]}`,
		`{"r":0,"op":"alltoall","bytes":0,"sizes":[1,2,3,4,]}`, `{"r":0,"op":"alltoall","bytes":0,"sizes":[1 2 3 4]}`,
		`{"r":0,"op":"alltoall","bytes":0,"sizes":[1,2,3,4.0]}`, `{"r":0,"op":"alltoall","bytes":0,"sizes":{"0":1}}`,
		`{"r":0,"op":"alltoall","bytes":0,"sizes":[1,2,3,4`, `{"r":0,"op":"alltoall","bytes":0,"sizes":[]}`,
		`{"r":0,"op":"barrier"} {"r":1,"op":"barrier"}`, `{"r":0,"op":"barrier","x":{"r":[1,{"a":null}]}}`,
	} {
		_, err := checkAgainstReference(t, []byte(hdr4+line+"\n"))
		var perr *tracein.ParseError
		if !errors.As(err, &perr) || perr.Line != 2 {
			t.Errorf("%s: got %v, want a line-2 ParseError", line, err)
		}
	}
}

// TestReferenceOnExampleTraces runs the differential on the committed
// example traces.
func TestReferenceOnExampleTraces(t *testing.T) {
	files, err := filepath.Glob("../../examples/traces/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example traces found: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkAgainstReference(t, data); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestReferenceOnGeneratedPrograms records irgen's random SPMD programs
// (shifts, nests, reductions: p2p and collective calls with computed
// arguments) and runs the differential on each recording.
func TestReferenceOnGeneratedPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		prog, inputs := irgen.Program(seed, irgen.Config{})
		_, tr, _ := recordRun(t, prog.Name, prog, core.DirectExec, 4, inputs, "")
		var buf bytes.Buffer
		if err := tracein.Write(&buf, tr); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		parsed, err := checkAgainstReference(t, buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(parsed, tr) {
			t.Fatalf("seed %d: parsed trace differs from the recording", seed)
		}
	}
}
