package tracein

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mpisim/internal/mpi"
)

// TestFloatFormIsEncodingJSONs holds appendFloat to json.Marshal's
// float64 form — the form every committed and user-held v1 trace is
// written in — on the values where the form changes shape and on 1e5
// random bit patterns.
func TestFloatFormIsEncodingJSONs(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return // no JSON form: TestWriteRejectsNonFiniteSec
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal gives %s", f, got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 3.6e-8, 1e-9, 1e-10, 1e-100,
		1e20, 9.99999e20, 1e21, 1.5e21, 1e22, 1e100, 123456789012345678, 0.000037001999999999996,
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 2.2250738585072014e-308, // denormals, least normal
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, 1 << 53, 1<<53 + 2,
	}
	for _, f := range edges {
		check(f)
		check(-f)
		check(math.Nextafter(f, math.Inf(1)))
		check(math.Nextafter(f, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestStringFormIsEncodingJSONs does the same for task names: the
// direct path and the json.Marshal fallback must be indistinguishable.
func TestStringFormIsEncodingJSONs(t *testing.T) {
	for _, s := range []string{
		"", "w_1", "task 12 (line 3: x = y)", `a"b`, `a\b`, "a<b", "a>b", "a&b", "tab\there", "nl\n", "\x00\x1f",
		"\x7f", "é", "☃😀", "  ", "bad\xffutf8", "�",
	} {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); string(got) != string(want) {
			t.Errorf("appendString(%q) = %s, json.Marshal gives %s", s, got, want)
		}
	}
}

// TestWriteRejectsNonFiniteSec: a call log carrying NaN or ±Inf seconds
// has no v1 spelling; Write must fail rather than emit a line Parse
// would refuse.
func TestWriteRejectsNonFiniteSec(t *testing.T) {
	for _, sec := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, op := range []string{"compute", "delay"} {
			tr := &Trace{Header: Header{Version: SchemaVersion, Ranks: 1},
				Calls: [][]mpi.Call{{{Op: op, Sec: sec}}}}
			if err := Write(io.Discard, tr); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("Write of a %s with sec %v: %v", op, sec, err)
			}
			if err := RefWrite(io.Discard, tr); err == nil {
				t.Errorf("the reference writer accepts a %s with sec %v", op, sec)
			}
		}
	}
	// An op that carries no sec ignores the field, as it always did.
	tr := &Trace{Header: Header{Version: SchemaVersion, Ranks: 1},
		Calls: [][]mpi.Call{{{Op: "barrier", Sec: math.NaN()}}}}
	if err := Write(io.Discard, tr); err != nil {
		t.Errorf("Write of a barrier with a stray NaN sec: %v", err)
	}
	// An op the format does not know is refused by name.
	tr.Calls[0][0].Op = "teleport"
	if err := Write(io.Discard, tr); err == nil || !strings.Contains(err.Error(), `unknown op "teleport"`) {
		t.Errorf("Write of an unknown op: %v", err)
	}
}
