package svc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpisim/internal/trace"
)

// quickSpec is a sample-app run that finishes in well under a second.
func quickSpec() string {
	return `{"app":"sample","mode":"measured","ranks":4,
		"inputs":{"PATTERN":2,"ITERS":50,"WORK":100,"MSG":64}}`
}

// slowSpec runs for several seconds (a blocking exchange per iteration,
// so cancellation bites within milliseconds).
func slowSpec(iters int) string {
	return fmt.Sprintf(`{"app":"sample","mode":"measured","ranks":4,
		"inputs":{"PATTERN":2,"ITERS":%d,"WORK":100,"MSG":64}}`, iters)
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.NoSync = true
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv
}

// submit POSTs a spec and returns (job id, HTTP status, body).
func submit(t *testing.T, ts *httptest.Server, spec string) (string, int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(body, &v)
	return v.ID, resp.StatusCode, body
}

// getView fetches one job's view.
func getView(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollUntil polls the job until cond holds, failing at the deadline.
func pollUntil(t *testing.T, ts *httptest.Server, id string, cond func(JobView) bool, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getView(t, ts, id)
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (error %q) after %v", id, v.State, v.Error, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func terminal(v JobView) bool { return v.State.Terminal() }

// fetchArtifact GETs the artifact bytes and checks the content-address
// header matches the body.
func fetchArtifact(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact for %s: %d (%s)", id, resp.StatusCode, body)
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get("X-Artifact-Sha256"); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("artifact header %s does not match body hash", got)
	}
	return body
}

// TestJobLifecycle walks the happy path: submit → 202 + Location,
// pending/compiling/running → done, artifact fetch, per-job obs plane,
// list and healthz.
func TestJobLifecycle(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, code, body := submit(t, ts, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", code, body)
	}
	if id == "" {
		t.Fatalf("submit answered without a job id: %s", body)
	}

	v := pollUntil(t, ts, id, terminal, 30*time.Second)
	if v.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", v.State, v.Error)
	}
	if v.Progress != 1 {
		t.Errorf("done progress = %v, want 1", v.Progress)
	}
	if v.Artifact == "" || v.ArtifactURL == "" {
		t.Fatalf("done job has no artifact: %+v", v)
	}

	data := fetchArtifact(t, ts, id)
	a, err := trace.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
	if a.Partial || a.Report == nil || a.Report.Time <= 0 {
		t.Fatalf("artifact unexpected: partial=%v report=%v", a.Partial, a.Report)
	}

	// The per-job telemetry plane answers under /jobs/{id}/obs/.
	for _, ep := range []string{"run", "healthz", "series?since=0"} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/obs/" + ep)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("obs/%s: %d (%s)", ep, resp.StatusCode, b)
		}
		if !json.Valid(b) {
			t.Fatalf("obs/%s is not JSON: %s", ep, b)
		}
	}
	var run struct {
		State string `json:"state"`
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/obs/run")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&run)
	resp.Body.Close()
	if err != nil || run.State != "done" {
		t.Fatalf("obs/run state = %q (%v), want done", run.State, err)
	}

	// List and health agree.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("GET /jobs = %+v (%v)", list, err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "serving" || h.Jobs[JobDone] != 1 {
		t.Fatalf("healthz = %+v (%v)", h, err)
	}
}

// TestOverloadReturns429 fills the admission queue and verifies the
// daemon sheds load with 429 + Retry-After instead of accepting
// unbounded work.
func TestOverloadReturns429(t *testing.T) {
	srv := newTestServer(t, Options{Concurrency: 1, QueueCap: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idA, code, body := submit(t, ts, slowSpec(500000))
	if code != http.StatusAccepted {
		t.Fatalf("submit A: %d (%s)", code, body)
	}
	// Wait for the worker to take A so the queue depth is deterministic.
	pollUntil(t, ts, idA, func(v JobView) bool { return v.State != JobPending }, 10*time.Second)

	idB, code, body := submit(t, ts, slowSpec(500001))
	if code != http.StatusAccepted {
		t.Fatalf("submit B: %d (%s)", code, body)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(slowSpec(500002)))
	if err != nil {
		t.Fatal(err)
	}
	overflow, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d (%s), want 429", resp.StatusCode, overflow)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	// Cancel both admitted jobs; the queued one aborts without running.
	for _, id := range []string{idA, idB} {
		resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: %d", id, resp.StatusCode)
		}
	}
	vA := pollUntil(t, ts, idA, terminal, 30*time.Second)
	vB := pollUntil(t, ts, idB, terminal, 30*time.Second)
	if vA.State != JobAborted || vB.State != JobAborted {
		t.Fatalf("after cancel: A=%s B=%s, want aborted/aborted", vA.State, vB.State)
	}
	if vB.Error != "cancelled by client" {
		t.Errorf("queued-cancel error = %q", vB.Error)
	}
	// The running job was cancelled mid-flight: its partial artifact is
	// flagged partial with a cancellation reason.
	if vA.Artifact != "" {
		a, err := trace.DecodeArtifact(fetchArtifact(t, ts, idA))
		if err != nil {
			t.Fatal(err)
		}
		if !a.Partial || !strings.Contains(a.AbortReason, "canceled") {
			t.Errorf("cancelled run artifact: partial=%v reason=%q", a.Partial, a.AbortReason)
		}
	}
}

// TestCancelStopsAComputingJob cancels a direct-execution job whose ranks
// sit in a compute loop that would run for minutes and reaches no kernel
// call: the job must turn terminal — aborted, not failed — within 2 s
// and the only worker must take the next job. The program is tried with
// a barrier behind the loop and with no communication at all.
func TestCancelStopsAComputingJob(t *testing.T) {
	srv := newTestServer(t, Options{Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tail := range []string{"  BARRIER\n", ""} {
		spin, err := json.Marshal(map[string]interface{}{
			"program": "program spin\n  double precision W(1)\n  read(*, N)\n" +
				"  do k = 1, N\n    W(1) = (W(1) + k)\n  enddo\n" + tail + "end\n",
			"mode": "de", "ranks": 2, "inputs": map[string]float64{"N": 2e9},
		})
		if err != nil {
			t.Fatal(err)
		}
		id, code, body := submit(t, ts, string(spin))
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d (%s)", code, body)
		}
		pollUntil(t, ts, id, func(v JobView) bool { return v.State == JobRunning }, 10*time.Second)
		time.Sleep(100 * time.Millisecond) // let the ranks get into the loop
		resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v := pollUntil(t, ts, id, terminal, 2*time.Second); v.State != JobAborted {
			t.Fatalf("cancelled job ended %s (%s), want aborted", v.State, v.Error)
		}
		next, code, body := submit(t, ts, quickSpec())
		if code != http.StatusAccepted {
			t.Fatalf("submit after cancel: %d (%s)", code, body)
		}
		if v := pollUntil(t, ts, next, terminal, 10*time.Second); v.State != JobDone {
			t.Fatalf("job after the cancelled one ended %s (%s), want done", v.State, v.Error)
		}
	}
}

// TestPanicIsolation recovers a journaled job whose spec materialization
// genuinely panics (NAS SP on a non-square rank count, which admission
// refuses but a journal written before the rank rule may hold) and
// verifies the poisoned job becomes a failed record while the daemon
// keeps serving.
func TestPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenJournal(dir, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{App: "nassp", Mode: "measured", Ranks: 3}
	if err := jr.Append(&Record{ID: "j1", State: JobPending, Spec: spec, SpecHash: spec.Hash()}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	srv := newTestServer(t, Options{Dir: dir, Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v := pollUntil(t, ts, "j1", terminal, 30*time.Second)
	if v.State != JobFailed {
		t.Fatalf("poisoned job ended %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "panic") {
		t.Errorf("failure diagnostic %q does not mention the panic", v.Error)
	}

	// The server survived: a healthy job still completes.
	id2, code, body := submit(t, ts, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d (%s)", code, body)
	}
	if v2 := pollUntil(t, ts, id2, terminal, 30*time.Second); v2.State != JobDone {
		t.Fatalf("post-panic job ended %s (%s), want done", v2.State, v2.Error)
	}
}

// TestFailedRunKeepsSnapshot maps a kernel-level panic
// (*sim.PanicError) onto a failed record carrying the diagnostic
// snapshot, exercising finishJob directly.
func TestFailedRunKeepsSnapshot(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An inline program whose loop bound divides by an input set to
	// zero: expression evaluation panics inside the interpreter, the
	// panic is confined to this job, and the daemon keeps serving.
	prog := `{"program":"program div0\n  ! input Z\n  read(*, Z)\n  b = ceildiv(10, Z)\n  do j = 1, b ! t1\n    acc = (acc + 1)\n  enddo\nend",
		"ranks":2,"mode":"measured","inputs":{"Z":0},"limits":{"max_events":100000}}`
	id, code, body := submit(t, ts, prog)
	if code != http.StatusAccepted {
		t.Fatalf("submit inline program: %d (%s)", code, body)
	}
	v := pollUntil(t, ts, id, terminal, 30*time.Second)
	if v.State != JobFailed {
		t.Fatalf("job ended %s (%s), want failed", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "zero") && !strings.Contains(v.Error, "panic") {
		t.Errorf("diagnostic %q does not surface the division by zero", v.Error)
	}
	// And the daemon still answers.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after in-kernel panic: %v / %v", err, resp)
	} else {
		resp.Body.Close()
	}
}

// TestDrain covers graceful shutdown: running jobs abort with partial
// artifacts and progress, queued jobs stay pending for the next start,
// and new submissions are refused with 503.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Options{Dir: dir, Concurrency: 1, QueueCap: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idRun, code, body := submit(t, ts, slowSpec(500000))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", code, body)
	}
	pollUntil(t, ts, idRun, func(v JobView) bool { return v.State == JobRunning }, 10*time.Second)
	idQueued, code, body := submit(t, ts, slowSpec(500003))
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: %d (%s)", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	vRun := getView(t, ts, idRun)
	if vRun.State != JobAborted {
		t.Fatalf("running job after drain: %s, want aborted", vRun.State)
	}
	if vRun.Artifact == "" {
		t.Fatal("drained job persisted no partial artifact")
	}
	a, err := trace.DecodeArtifact(fetchArtifact(t, ts, idRun))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Partial {
		t.Error("drained artifact not flagged partial")
	}
	if vQ := getView(t, ts, idQueued); vQ.State != JobPending {
		t.Fatalf("queued job after drain: %s, want pending (recovered next start)", vQ.State)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(quickSpec()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// healthz reports draining with 503 so load balancers stop routing.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", resp.StatusCode)
	}
}

// TestJobBudgetAborts verifies per-job limits: a tiny event budget
// aborts the run as `aborted` (not failed), with the budget reason.
func TestJobBudgetAborts(t *testing.T) {
	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"app":"sample","mode":"measured","ranks":4,
		"inputs":{"PATTERN":2,"ITERS":100000,"WORK":100,"MSG":64},
		"limits":{"max_events":2000}}`
	id, code, body := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", code, body)
	}
	v := pollUntil(t, ts, id, terminal, 30*time.Second)
	if v.State != JobAborted {
		t.Fatalf("budgeted job ended %s (%s), want aborted", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "budget") && !strings.Contains(v.Error, "events") {
		t.Errorf("abort reason %q does not mention the event budget", v.Error)
	}
}

// TestLimitClamping pins the clamp semantics: requests tighten, never
// exceed, the operator caps.
func TestLimitClamping(t *testing.T) {
	cases := []struct {
		req, cap, want int64
	}{
		{0, 0, 0},        // nothing set: unlimited
		{500, 0, 500},    // request only
		{0, 100, 100},    // unset request inherits the cap
		{50, 100, 50},    // tighter request wins
		{1000, 100, 100}, // looser request clamped
		{-5, 0, 0},       // negative sanitized
	}
	for _, c := range cases {
		if got := clamp(c.req, c.cap); got != c.want {
			t.Errorf("clamp(%d, %d) = %d, want %d", c.req, c.cap, got, c.want)
		}
	}
	if got := clamp(5*time.Second, time.Second); got != time.Second {
		t.Errorf("clamp loose request = %v, want 1s", got)
	}
	if got := clamp(0, time.Second); got != time.Second {
		t.Errorf("clamp unset request = %v, want 1s", got)
	}
}

// TestDoneImpliesCached hammers submit → done → resubmit: the moment a
// job reads done its artifact must already be indexed, so the
// resubmission is answered from the cache every time. (The daemon used
// to journal done first and index after; about one resubmission in a
// thousand fell in between and ran again.) The watcher spins on the
// job's state in-process and submits through the handler directly, so
// no network hop hides the window; and because the window is still only
// nanoseconds wide, the log hook checks the order itself on every
// round: when the index entry is published the job must not be done yet.
func TestDoneImpliesCached(t *testing.T) {
	var srv *Server
	srv = newTestServer(t, Options{Logf: func(format string, args ...any) {
		if !strings.HasPrefix(format, "svc: cached artifact") {
			return
		}
		spec := args[2].(string) // the spec hash's first 8 digits
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, j := range srv.jobs {
			if strings.HasPrefix(j.specHash, spec) && j.stateIs() == JobDone {
				t.Errorf("job %s read done before its artifact was indexed", j.id)
			}
		}
	}})
	post := func(spec string) JobView {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(spec)))
		var v JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || w.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s (%v)", w.Code, w.Body.Bytes(), err)
		}
		return v
	}
	for i := 0; i < 100; i++ {
		// A fresh spec each round, so the first submission always runs.
		spec := fmt.Sprintf(`{"app":"sample","mode":"measured","ranks":2,
			"inputs":{"PATTERN":2,"ITERS":1,"WORK":%d,"MSG":64}}`, 100+i)
		first := post(spec)
		srv.mu.Lock()
		j := srv.jobs[first.ID]
		srv.mu.Unlock()
		for deadline := time.Now().Add(30 * time.Second); ; {
			st := j.stateIs()
			if st == JobDone {
				break
			}
			if st.Terminal() || time.Now().After(deadline) {
				t.Fatalf("round %d: job %s is %s", i, first.ID, st)
			}
		}
		if again := post(spec); !again.Cached {
			t.Fatalf("round %d: resubmitted the instant %s read done, and missed the cache (job %s is %s)",
				i, first.ID, again.ID, again.State)
		}
	}
}

// TestCalibrationObeysCancelAndWallBudget submits AM jobs whose
// calibration runs for seconds (Sweep3D's timer run keeps executing its
// cell, whose fixup branch reads computed values): cancelling one, and
// one with a wall-clock budget of 300 ms, must each end aborted within
// 2 s, saying it was the calibration, and leave no w_i table cached.
func TestCalibrationObeysCancelAndWallBudget(t *testing.T) {
	srv := newTestServer(t, Options{Concurrency: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := func(limits string) string {
		return `{"app":"sweep3d","mode":"am","ranks":4,"inputs":{"IT":4,"JT":4,"KT":40000,"MK":10}` + limits + `}`
	}
	for _, tc := range []struct {
		name, limits string
		cancel       bool
	}{
		{"cancel", "", true},
		{"wall budget", `,"limits":{"wall_timeout_ms":300}`, false},
	} {
		id, code, body := submit(t, ts, spec(tc.limits))
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit: %d (%s)", tc.name, code, body)
		}
		if tc.cancel {
			pollUntil(t, ts, id, func(v JobView) bool { return v.State == JobCompiling }, 10*time.Second)
			time.Sleep(300 * time.Millisecond) // into the timer run
			resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		v := pollUntil(t, ts, id, terminal, 3*time.Second)
		if v.State != JobAborted || !strings.Contains(v.Error, "calibration run: ") {
			t.Fatalf("%s: job ended %s (%q), want aborted in the calibration run", tc.name, v.State, v.Error)
		}
	}
	for key, e := range srv.compile.entries {
		if len(e.cal) > 0 {
			t.Fatalf("compile entry %s cached a table from an aborted calibration: %v", key, e.cal)
		}
	}
}
