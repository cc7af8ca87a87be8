package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpisim/internal/core"
	"mpisim/internal/mpi"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// ringTraceJSONL hand-builds a small valid ring trace: per rank a
// condensed-task delay, a ring sendrecv and a barrier, with full
// provenance (machine, inputs, scaling function) so replay and
// extrapolation have everything they need.
func ringTraceJSONL(t *testing.T, p int) string {
	t.Helper()
	calls := make([][]mpi.Call, p)
	for r := 0; r < p; r++ {
		calls[r] = []mpi.Call{
			{Op: "delay", Task: "w_1", Sec: 0.001},
			{Op: "sendrecv", Peer: (r + 1) % p, Tag: 7, Bytes: 4096,
				Peer2: (r - 1 + p) % p, Tag2: 7},
			{Op: "barrier"},
		}
	}
	tr, err := tracein.New(tracein.Header{
		App: "ringtest", Mode: "measured",
		Machine: "ibmsp", Comm: "analytic",
		Inputs:    map[string]float64{"N": float64(16 * p)},
		TaskScale: map[string]string{"w_1": "N / P"},
	}, calls)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracein.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// traceSpec wraps a trace (and optional extrapolation target) in a
// submission body.
func traceSpec(t *testing.T, jsonl string, traceRanks int) string {
	t.Helper()
	spec := map[string]interface{}{"trace": jsonl}
	if traceRanks > 0 {
		spec["trace_ranks"] = traceRanks
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTraceJobLifecycle submits a trace, watches it replay to done, and
// checks the artifact is a normal run artifact with replay provenance.
func TestTraceJobLifecycle(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, code, body := submit(t, ts, traceSpec(t, ringTraceJSONL(t, 4), 0))
	if code != 202 {
		t.Fatalf("submit: %d (%s)", code, body)
	}

	v := pollUntil(t, ts, id, terminal, 30*time.Second)
	if v.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", v.State, v.Error)
	}
	if v.Mode != "replay" {
		t.Errorf("view mode = %q, want replay", v.Mode)
	}
	if v.Workload != "ringtest" {
		t.Errorf("workload = %q, want the trace header's app name", v.Workload)
	}

	a, err := trace.DecodeArtifact(fetchArtifact(t, ts, id))
	if err != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
	if a.App != "ringtest" || a.Mode != "replay" || a.Machine == "" {
		t.Fatalf("artifact provenance = app %q mode %q machine %q", a.App, a.Mode, a.Machine)
	}
	if a.Report == nil || a.Report.Time <= 0 || len(a.Report.Ranks) != 4 {
		t.Fatalf("artifact report unexpected: %+v", a.Report)
	}
}

// TestTraceMalformedIs400 verifies malformed traces are rejected at
// admission with the parser's line-anchored diagnostic and are never
// enqueued.
func TestTraceMalformedIs400(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := ringTraceJSONL(t, 4)
	bad := []struct{ name, jsonl string }{
		{"truncated header", good[:20]},
		{"corrupt event", strings.Replace(good, `"op":"barrier"`, `"op":"zap"`, 1)},
		{"peer out of range", strings.Replace(good, `"peer":1`, `"peer":99`, 1)},
		{"empty", ""},
	}
	for _, c := range bad {
		id, code, body := submit(t, ts, traceSpec(t, c.jsonl, 0))
		if code != 400 {
			t.Errorf("%s: submit = %d (%s), want 400", c.name, code, body)
		}
		if id != "" {
			t.Errorf("%s: malformed trace was assigned job id %s", c.name, id)
		}
		if c.jsonl != "" && !strings.Contains(string(body), "line") {
			t.Errorf("%s: diagnostic not line-anchored: %s", c.name, body)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("malformed traces were enqueued: %+v", jobs)
	}
}

// TestTraceCacheHit verifies an identical trace resubmission is
// answered from the content-addressed artifact cache (the spec hash
// covers the trace text) with a byte-identical artifact.
func TestTraceCacheHit(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := traceSpec(t, ringTraceJSONL(t, 4), 0)
	idA, _, _ := submit(t, ts, spec)
	vA := pollUntil(t, ts, idA, terminal, 30*time.Second)
	if vA.State != JobDone {
		t.Fatalf("first run ended %s (%s)", vA.State, vA.Error)
	}

	idB, _, _ := submit(t, ts, spec)
	vB := pollUntil(t, ts, idB, terminal, 30*time.Second)
	if vB.State != JobDone || !vB.Cached {
		t.Fatalf("resubmission: state %s cached %v, want done from cache", vB.State, vB.Cached)
	}
	if !bytes.Equal(fetchArtifact(t, ts, idA), fetchArtifact(t, ts, idB)) {
		t.Fatalf("cached artifact differs from the fresh one")
	}
}

// TestTraceExtrapolatedJob submits a 4-rank trace with trace_ranks 16:
// the daemon extrapolates server-side and replays at the larger size.
func TestTraceExtrapolatedJob(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, code, body := submit(t, ts, traceSpec(t, ringTraceJSONL(t, 4), 16))
	if code != 202 {
		t.Fatalf("submit: %d (%s)", code, body)
	}
	v := pollUntil(t, ts, id, terminal, 30*time.Second)
	if v.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", v.State, v.Error)
	}
	a, err := trace.DecodeArtifact(fetchArtifact(t, ts, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Ranks) != 16 {
		t.Fatalf("extrapolated replay has %d ranks, want 16", len(a.Report.Ranks))
	}

	// trace_ranks outside the cap or not a multiple is a 400.
	if _, code, _ := submit(t, ts, traceSpec(t, ringTraceJSONL(t, 4), 6)); code != 400 {
		t.Errorf("non-multiple trace_ranks accepted: %d", code)
	}
}

// TestTraceWildcardRefusedOnParallelEngine runs a daemon on two host
// workers: a trace with a receive from any source fails its job with
// core.Prepare's refusal, which names the rank and the call and says how
// to replay it; the same trace without the wildcard replays.
func TestTraceWildcardRefusedOnParallelEngine(t *testing.T) {
	srv := newTestServer(t, Options{HostWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	exact := ringTraceJSONL(t, 4)
	wildcard := strings.Replace(exact, `"peer2":0,`, `"peer2":-1,`, 1)
	if wildcard == exact {
		t.Fatal("the ring trace has no sendrecv receiving from rank 0")
	}
	for _, c := range []struct {
		name, jsonl string
		want        JobState
	}{{"wildcard", wildcard, JobFailed}, {"exact", exact, JobDone}} {
		id, code, body := submit(t, ts, traceSpec(t, c.jsonl, 0))
		if code != 202 {
			t.Fatalf("%s: submit: %d (%s)", c.name, code, body)
		}
		v := pollUntil(t, ts, id, terminal, 30*time.Second)
		if v.State != c.want {
			t.Fatalf("%s: job ended %s (%s), want %s", c.name, v.State, v.Error, c.want)
		}
		if c.want == JobFailed && (!strings.Contains(v.Error, "trace rank 1, call 1 receives from any source") ||
			!strings.Contains(v.Error, "one host worker")) {
			t.Errorf("%s: refusal %q does not name rank 1's call 1 and the way out", c.name, v.Error)
		}
	}
}

// TestTracePaperScaleInline is the trace door's front-door identity at
// paper scale: sweep3d AM recorded at 4,096 ranks — 61 MB per rank, as
// v1 wrote it — fits the daemon's inline cap as its classes, replays to
// done, and the artifact is byte-identical to the one core.Prepare/Run
// makes driven as mpisim -tracein drives it.
func TestTracePaperScaleInline(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays 4,096 ranks")
	}
	spec, err := DecodeSpec([]byte(`{"app":"sweep3d","mode":"am","ranks":4096,"skip_checks":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(0); err != nil {
		t.Fatal(err)
	}
	plan, err := core.Prepare(spec, mpi.Config{HostWorkers: 1, RecordCalls: true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracein.Record(out.Report, plan.Header())
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := tracein.Write(&jsonl, tr); err != nil {
		t.Fatal(err)
	}
	body := traceSpec(t, jsonl.String(), 0)
	t.Logf("%d ranks in %d classes, %d events: %d trace bytes, %d spec bytes", tr.Header.Ranks, tr.Classes(), tr.Events(), jsonl.Len(), len(body))
	if len(body) > maxSpecBytes {
		t.Fatalf("the spec is %d bytes, over the %d-byte inline cap", len(body), maxSpecBytes)
	}

	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, code, resp := submit(t, ts, body)
	if code != 202 {
		t.Fatalf("submit: %d (%s)", code, resp)
	}
	if v := pollUntil(t, ts, id, terminal, 120*time.Second); v.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", v.State, v.Error)
	}
	if !bytes.Equal(fetchArtifact(t, ts, id), predictLikeMpisim(t, body, 1)) {
		t.Fatal("the daemon's artifact differs from the CLI path's")
	}
}
