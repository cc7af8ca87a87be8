package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpisim/internal/core"
	"mpisim/internal/mpi"
	"mpisim/internal/trace"
	"mpisim/internal/tracein"
)

// TestCachedVsFresh is the determinism gate for the daemon's caches and
// for the two front doors. Per spec: a repeat submission must be answered
// from the store (Cached=true, same content address, no second
// simulation); a submission that shares the compile and calibration keys
// but not the spec hash must re-simulate through those caches; a
// completely fresh daemon in a fresh data directory must compute the
// same thing; and core.Prepare/Run driven the way cmd/mpisim drives them
// (no cache, one and two host workers) must too. All of it byte for byte.
func TestCachedVsFresh(t *testing.T) {
	ringIR, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "ring.ir"))
	if err != nil {
		t.Fatal(err)
	}
	inline, _ := json.Marshal(string(ringIR))
	const loss = `{"seed":42,"retry":{"timeout":5e-4,"backoff":2,"max_retries":16},"loss":[{"prob":0.05}]}`
	rows := []struct {
		name string
		// spec is the submission minus its limits, so the variant can add
		// one that changes the hash and nothing else.
		spec, limits string
		want         JobState
		// twoWorkers: also predict on two real host workers. Exact only for
		// a run that completes: where a budget trips depends on the engine's
		// window boundaries. (The torus rows were excluded while calibration
		// ran on the prediction's engine and summed its samples in whatever
		// order the workers reached the collector.)
		twoWorkers bool
	}{
		// AM deliberately: the compile + calibration caches sit in the
		// loop being proven.
		{"am app", `"app":"sample","mode":"am","ranks":4,"inputs":{"PATTERN":2,"ITERS":50,"WORK":100,"MSG":64}`, "", JobDone, true},
		{"de inline program", `"program":` + string(inline) + `,"mode":"de","ranks":8,"inputs":{"N":32,"STEPS":2}`, "", JobDone, true},
		{"am torus", `"app":"sweep3d","mode":"am","ranks":16,"topology":"torus:dims=4x4"`, "", JobDone, true},
		{"torus + faults", `"app":"sweep3d","mode":"am","ranks":16,"topology":"torus:dims=4x4","placement":"roundrobin","faults":` + loss, "", JobDone, true},
		{"event-budget abort", `"app":"sweep3d","mode":"de","ranks":8`, `"max_events":200`, JobAborted, false},
		{"am event-budget abort", `"app":"sweep3d","mode":"am","ranks":256`, `"max_events":2000`, JobAborted, false},
		{"trace replay", strings.Trim(traceSpec(t, ringTraceJSONL(t, 8), 0), "{}"), "", JobDone, true},
		{"trace extrapolated x4", strings.Trim(traceSpec(t, ringTraceJSONL(t, 8), 32), "{}"), "", JobDone, true},
	}

	srvA := newTestServer(t, Options{})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	// A brand-new daemon, brand-new directory.
	srvB := newTestServer(t, Options{})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			body := func(limits string) string {
				if limits == "" {
					return "{" + row.spec + "}"
				}
				return "{" + row.spec + `,"limits":{` + limits + "}}"
			}
			run := func(ts *httptest.Server, spec string) (JobView, []byte) {
				id, code, resp := submit(t, ts, spec)
				if code != http.StatusAccepted {
					t.Fatalf("submit: %d (%s)", code, resp)
				}
				v := pollUntil(t, ts, id, terminal, 60*time.Second)
				if v.State != row.want {
					t.Fatalf("run ended %s (%s), want %s", v.State, v.Error, row.want)
				}
				return v, fetchArtifact(t, ts, id)
			}
			spec := body(row.limits)
			v1, fresh := run(tsA, spec)
			if v1.Cached {
				t.Fatal("first run claims to be cached")
			}

			// Partial artifacts never enter the artifact cache.
			if row.want == JobDone {
				v2, cached := run(tsA, spec)
				if !v2.Cached {
					t.Fatal("repeat submission was not answered from the artifact cache")
				}
				if v2.Artifact != v1.Artifact || !bytes.Equal(cached, fresh) {
					t.Fatal("cached artifact differs from the fresh run")
				}
			}

			variant := `"wall_timeout_ms":540000`
			if row.limits != "" {
				variant = row.limits + "," + variant
			}
			v3, warm := run(tsA, body(variant))
			if v3.Cached || v3.SpecHash == v1.SpecHash {
				t.Fatal("the variant spec did not re-simulate")
			}
			if !bytes.Equal(warm, fresh) {
				t.Fatal("artifact through the warm compile/calibration caches differs from the cold run")
			}

			v4, other := run(tsB, spec)
			if !bytes.Equal(other, fresh) {
				t.Fatal("artifacts differ across independent daemons for the same spec")
			}
			if v4.Artifact != v1.Artifact {
				t.Fatalf("content addresses differ across daemons: %s vs %s", v4.Artifact, v1.Artifact)
			}

			if got := predictLikeMpisim(t, spec, 1); !bytes.Equal(got, fresh) {
				t.Error("core.Prepare/Run without a cache differs from the daemon's artifact")
			}
			// The report also counts how the engine's workers synchronised
			// (windows, cross-worker messages); the prediction is everything
			// else, and does not depend on the worker count.
			if !row.twoWorkers {
				return
			}
			if got := predictLikeMpisim(t, spec, 2); !bytes.Equal(sansEngineCounters(t, got), sansEngineCounters(t, fresh)) {
				t.Error("core.Prepare/Run on two host workers predicts differently from the daemon on one")
			}
		})
	}
}

// sansEngineCounters re-encodes an artifact without the two kernel
// counters that describe the simulator's parallel engine rather than the
// simulated run.
func sansEngineCounters(t *testing.T, data []byte) []byte {
	t.Helper()
	a, err := trace.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	a.Report.Kernel.Windows, a.Report.Kernel.CrossWorker = 0, 0
	out, err := trace.EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// predictLikeMpisim runs a submission body the way cmd/mpisim runs its
// flags: the trace parsed by the caller, no cache, no telemetry plane.
func predictLikeMpisim(t *testing.T, body string, hostWorkers int) []byte {
	t.Helper()
	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(0); err != nil {
		t.Fatal(err)
	}
	var tr *tracein.Trace
	if spec.Trace != "" {
		if tr, err = tracein.ParseBytes([]byte(spec.Trace)); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := core.Prepare(spec, mpi.Config{HostWorkers: hostWorkers, RealParallel: hostWorkers > 1}, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := trace.EncodeArtifact(out.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheSurvivesRestart proves the artifact cache is rebuilt from
// the journal: after a clean drain and restart, the same spec is
// answered cached without re-running.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := newTestServer(t, Options{Dir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	id1, _, _ := submit(t, ts1, quickSpec())
	v1 := pollUntil(t, ts1, id1, terminal, 30*time.Second)
	if v1.State != JobDone {
		t.Fatalf("run ended %s (%s)", v1.State, v1.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2 := newTestServer(t, Options{Dir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	// The replayed job is visible with its artifact intact.
	if v := getView(t, ts2, id1); v.State != JobDone || v.Artifact != v1.Artifact {
		t.Fatalf("replayed job: %+v", v)
	}
	if !bytes.Equal(fetchArtifact(t, ts2, id1), fetchArtifact(t, ts2, id1)) {
		t.Fatal("artifact unstable across reads")
	}
	id2, _, _ := submit(t, ts2, quickSpec())
	v2 := pollUntil(t, ts2, id2, terminal, 30*time.Second)
	if v2.State != JobDone || !v2.Cached || v2.Artifact != v1.Artifact {
		t.Fatalf("post-restart repeat: state=%s cached=%v artifact=%s, want cached %s",
			v2.State, v2.Cached, v2.Artifact, v1.Artifact)
	}
}

// TestCrashRecoveryRerun kills the daemon mid-run (simulated SIGKILL:
// journaling stops, no terminal records land) and verifies the next
// start re-runs both the interrupted job and the still-queued one to
// completion, and sweeps the orphaned artifact bytes the dying run left
// in the store.
func TestCrashRecoveryRerun(t *testing.T) {
	dir := t.TempDir()
	srv1 := newTestServer(t, Options{Dir: dir, Concurrency: 1})
	ts1 := httptest.NewServer(srv1.Handler())

	idRun, _, _ := submit(t, ts1, slowSpec(150000))
	pollUntil(t, ts1, idRun, func(v JobView) bool { return v.State == JobRunning }, 10*time.Second)
	idQueued, _, _ := submit(t, ts1, quickSpec())

	srv1.crash()
	ts1.Close()

	// A stray unreferenced blob and a torn temp file, as a crash between
	// a store write and its journal record would leave.
	stray := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, casDirName, stray), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, casDirName, tmpPrefix+"x"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, Options{Dir: dir, Concurrency: 1, Recover: RecoverRerun})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if _, err := os.Stat(filepath.Join(dir, casDirName, stray)); !os.IsNotExist(err) {
		t.Error("orphaned artifact not swept on recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, casDirName, tmpPrefix+"x")); !os.IsNotExist(err) {
		t.Error("torn temp file not swept on recovery")
	}

	// The interrupted job re-runs start to finish — determinism means
	// the re-run is the same prediction the killed run would have made —
	// and the queued job runs after it.
	vR := pollUntil(t, ts2, idRun, terminal, 120*time.Second)
	if vR.State != JobDone {
		t.Fatalf("re-run job ended %s (%s), want done", vR.State, vR.Error)
	}
	if vR.Artifact == "" {
		t.Fatal("re-run job has no artifact")
	}
	vQ := pollUntil(t, ts2, idQueued, terminal, 60*time.Second)
	if vQ.State != JobDone {
		t.Fatalf("recovered queued job ended %s (%s), want done", vQ.State, vQ.Error)
	}

	// Every surviving store blob is referenced by the journal.
	entries, err := os.ReadDir(filepath.Join(dir, casDirName))
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for _, v := range srv2.Jobs() {
		if v.Artifact != "" {
			referenced[v.Artifact] = true
		}
	}
	for _, e := range entries {
		if !referenced[e.Name()] {
			t.Errorf("unreferenced blob %s survives recovery", e.Name())
		}
	}
}

// TestCrashRecoveryAbort is the other policy: the interrupted job is
// marked aborted instead of re-run; queued jobs still re-run.
func TestCrashRecoveryAbort(t *testing.T) {
	dir := t.TempDir()
	srv1 := newTestServer(t, Options{Dir: dir, Concurrency: 1})
	ts1 := httptest.NewServer(srv1.Handler())

	idRun, _, _ := submit(t, ts1, slowSpec(500000))
	pollUntil(t, ts1, idRun, func(v JobView) bool { return v.State == JobRunning }, 10*time.Second)
	idQueued, _, _ := submit(t, ts1, quickSpec())
	srv1.crash()
	ts1.Close()

	srv2 := newTestServer(t, Options{Dir: dir, Concurrency: 1, Recover: RecoverAbort})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	vR := getView(t, ts2, idRun)
	if vR.State != JobAborted || !strings.Contains(vR.Error, "interrupted") {
		t.Fatalf("interrupted job: state=%s error=%q, want aborted/interrupted", vR.State, vR.Error)
	}
	vQ := pollUntil(t, ts2, idQueued, terminal, 60*time.Second)
	if vQ.State != JobDone {
		t.Fatalf("recovered queued job ended %s (%s), want done", vQ.State, vQ.Error)
	}
}

// TestJournalTornFinalLine: a crash mid-append leaves a torn last line;
// replay drops it and keeps every intact record, and reopening for
// append truncates the torn fragment so records written by the
// recovered daemon land on a fresh line — a second restart must replay
// cleanly, not reject the journal as corrupt.
func TestJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeSpec([]byte(`{"app":"sample","ranks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{ID: "j1", State: JobPending, Spec: spec, SpecHash: spec.Hash()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{ID: "j1", State: JobRunning}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"id":"j1","state":"do`) // torn mid-record
	f.Close()

	recs, next, intact, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay with torn final line: %v", err)
	}
	if len(recs) != 2 || next != 3 {
		t.Fatalf("replay = %d records, next %d; want 2, 3", len(recs), next)
	}
	// A server starts on it, resolving the interrupted job — and its
	// abort record goes after the truncated-away torn fragment.
	srv := newTestServer(t, Options{Dir: dir, Recover: RecoverAbort})
	if v := srv.Jobs(); len(v) != 1 || v[0].State != JobAborted {
		t.Fatalf("recovered jobs = %+v", v)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	} else if fi.Size() <= intact {
		t.Fatalf("journal size %d after recovery append, want > intact prefix %d", fi.Size(), intact)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Second restart cycle: the journal must be every-line intact.
	recs2, _, _, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay after recovery appended past a torn tail: %v", err)
	}
	if n := len(recs2); n != 3 {
		t.Fatalf("second replay = %d records, want 3 (pending, running, aborted)", n)
	}
	if last := recs2[len(recs2)-1]; last.State != JobAborted {
		t.Fatalf("last recovered record state = %s, want aborted", last.State)
	}
}

// TestJournalUnterminatedFinalRecord: a final line that parses but has
// no trailing newline is a torn append (the writer emits record+newline
// in one write); replay drops it and the truncation point excludes it.
func TestJournalUnterminatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeSpec([]byte(`{"app":"sample","ranks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{ID: "j1", State: JobPending, Spec: spec, SpecHash: spec.Hash()}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":2,"id":"j1","state":"running"}`) // valid JSON, newline never landed
	f.Close()

	recs, next, intact, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay with unterminated final record: %v", err)
	}
	if len(recs) != 1 || next != 2 {
		t.Fatalf("replay = %d records, next %d; want 1, 2", len(recs), next)
	}
	if intact != fi.Size() {
		t.Fatalf("intact prefix = %d, want %d (end of last newline-terminated record)", intact, fi.Size())
	}
	// Reopening truncates the unterminated tail; the next append starts
	// a fresh line and a further replay sees both records intact.
	j2, err := OpenJournal(dir, next, intact, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(&Record{ID: "j1", State: JobAborted, Error: "interrupted"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs2, _, _, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("replay after truncate+append: %v", err)
	}
	if len(recs2) != 2 || recs2[1].State != JobAborted {
		t.Fatalf("second replay = %+v, want pending then aborted", recs2)
	}
}

// TestJournalMidFileCorruption: a malformed line with intact records
// after it is real corruption, not a torn append; replay must refuse.
func TestJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := DecodeSpec([]byte(`{"app":"sample","ranks":4}`))
	j.Append(&Record{ID: "j1", State: JobPending, Spec: spec})
	j.Close()
	path := filepath.Join(dir, journalName)
	data, _ := os.ReadFile(path)
	data = append([]byte("GARBAGE NOT JSON\n"), data...)
	os.WriteFile(path, data, 0o644)
	if _, _, _, err := ReplayJournal(dir); err == nil {
		t.Fatal("replay accepted mid-file corruption")
	}
}

// TestStoreChecksumVerification: blobs are re-hashed on read; flipped
// bits are corruption, not data.
func TestStoreChecksumVerification(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"report":{"time":1}}`)
	hash, err := st.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := st.Put(payload); err != nil || again != hash {
		t.Fatalf("re-put: %s, %v", again, err)
	}
	got, err := st.Get(hash)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: %q, %v", got, err)
	}
	// Flip a byte on disk behind the store's back.
	path := filepath.Join(dir, casDirName, hash)
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := st.Get(hash); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corrupted read: err=%v, want checksum mismatch", err)
	}
	// Traversal-shaped names never reach the filesystem.
	if _, err := st.Get("../../etc/passwd"); err == nil {
		t.Fatal("path traversal accepted")
	}
}

// TestCalibrationTablePersisted: an AM job persists its w_i table under
// cal/, so a restarted daemon skips calibration for the same context.
func TestCalibrationTablePersisted(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Options{Dir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := `{"app":"sample","mode":"am","ranks":4,
		"inputs":{"PATTERN":2,"ITERS":50,"WORK":100,"MSG":64}}`
	id, _, _ := submit(t, ts, spec)
	if v := pollUntil(t, ts, id, terminal, 60*time.Second); v.State != JobDone {
		t.Fatalf("AM run ended %s (%s)", v.State, v.Error)
	}
	entries, err := os.ReadDir(filepath.Join(dir, calDirName))
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			saved++
		}
	}
	if saved == 0 {
		t.Fatal("AM run persisted no calibration table")
	}
}
