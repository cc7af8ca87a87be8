package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RecoverPolicy selects what a restarted daemon does with jobs the
// previous daemon was killed in the middle of (state compiling or
// running in the journal). Queued (pending) jobs always re-run.
type RecoverPolicy string

const (
	// RecoverRerun re-enqueues interrupted jobs; determinism of the
	// simulator means the re-run produces the same artifact the killed
	// run would have.
	RecoverRerun RecoverPolicy = "rerun"
	// RecoverAbort marks interrupted jobs aborted ("interrupted: daemon
	// restarted mid-run") without re-running them.
	RecoverAbort RecoverPolicy = "abort"
)

// Options configures a Server. The zero value of every field has a
// sensible default.
type Options struct {
	// Dir is the data directory: journal.jsonl, cas/ (artifacts) and
	// cal/ (calibration tables). Required.
	Dir string
	// Concurrency is the number of jobs simulated at once (default 2).
	Concurrency int
	// QueueCap bounds the admission queue: submissions finding it full
	// are answered 429 + Retry-After (default 16).
	QueueCap int
	// HostWorkers is the simulation engine's worker count per job
	// (default 1; results are byte-identical across worker counts, so
	// this is purely a throughput knob).
	HostWorkers int
	// MaxRanks caps the target process count a spec may ask for
	// (default 65536).
	MaxRanks int
	// MaxEventsCap / MaxVirtualTimeCap / WallTimeoutCap cap (and, when
	// a spec leaves them unset, default) the per-job run budgets.
	// WallTimeoutCap defaults to 10 minutes; the event and virtual-time
	// caps default to unlimited.
	MaxEventsCap      int64
	MaxVirtualTimeCap float64
	WallTimeoutCap    time.Duration
	// StallEvents arms the no-progress watchdog for jobs that do not
	// set their own (0 = off).
	StallEvents int64
	// RetryAfter is the Retry-After hint on 429/503 (default 2s).
	RetryAfter time.Duration
	// Recover selects the interrupted-job policy (default RecoverRerun).
	Recover RecoverPolicy
	// NoSync disables per-record journal fsync (tests only).
	NoSync bool
	// Logf, when set, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() error {
	if o.Dir == "" {
		return fmt.Errorf("svc: Options.Dir is required")
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.HostWorkers <= 0 {
		o.HostWorkers = 1
	}
	if o.MaxRanks <= 0 {
		o.MaxRanks = 65536
	}
	if o.WallTimeoutCap <= 0 {
		o.WallTimeoutCap = 10 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.Recover == "" {
		o.Recover = RecoverRerun
	}
	if o.Recover != RecoverRerun && o.Recover != RecoverAbort {
		return fmt.Errorf("svc: unknown recover policy %q", o.Recover)
	}
	return nil
}

// Server is the simulation service: admission queue, worker pool,
// journal, artifact store and HTTP surface. Create with NewServer,
// serve Handler(), stop with Drain.
type Server struct {
	opts    Options
	journal *Journal
	store   *Store
	compile *compileCache
	mux     *http.ServeMux

	baseCtx   context.Context
	cancelAll context.CancelFunc
	stopCh    chan struct{}
	stopOnce  sync.Once
	queue     chan *job
	workerWG  sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	cacheIdx map[string]string // spec hash -> artifact hash (done jobs)
	jobNum   int64
	// reserving counts submissions that passed the admission check but
	// have not yet sent to the queue (their journal append runs outside
	// mu). The invariant len(queue)+reserving <= QueueCap guarantees the
	// post-append send never blocks.
	reserving int
	draining  bool
	crashed   atomic.Bool // test hook: simulate an unclean death (outside mu: append runs both with and without it held)
}

// NewServer opens (creating or recovering) the data directory and
// starts the worker pool. Recovery replays the journal, resolves
// non-terminal jobs per Options.Recover, rebuilds the artifact-cache
// index from done records, and sweeps orphaned store content.
func NewServer(opts Options) (*Server, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	recs, nextSeq, intactSize, err := ReplayJournal(opts.Dir)
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	compile, err := newCompileCache(opts.Dir)
	if err != nil {
		return nil, err
	}
	journal, err := OpenJournal(opts.Dir, nextSeq, intactSize, !opts.NoSync)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts: opts, journal: journal, store: store, compile: compile,
		baseCtx: ctx, cancelAll: cancel,
		stopCh:   make(chan struct{}),
		jobs:     map[string]*job{},
		cacheIdx: map[string]string{},
	}

	// Fold the journal into the job table. Artifacts referenced by any
	// record stay; everything else in the store is an orphan.
	referenced := map[string]bool{}
	for i := range recs {
		rec := &recs[i]
		if rec.Artifact != "" {
			referenced[rec.Artifact] = true
		}
		j, ok := s.jobs[rec.ID]
		if !ok {
			if rec.Spec == nil {
				// A mutation for a job whose submit record predates the
				// journal (should not happen); skip it.
				s.logf("svc: journal: dropping record seq=%d for unknown job %s", rec.Seq, rec.ID)
				continue
			}
			rec.Spec.Normalize()
			j = newJob(rec.ID, rec.Spec, rec.SpecHash, opts.HostWorkers)
			s.jobs[rec.ID] = j
			s.order = append(s.order, rec.ID)
			if n := jobNumOf(rec.ID); n > s.jobNum {
				s.jobNum = n
			}
		}
		j.apply(rec)
	}
	if removed, err := store.Sweep(referenced); err != nil {
		journal.Close()
		return nil, err
	} else if removed > 0 {
		s.logf("svc: store: swept %d orphaned file(s)", removed)
	}

	// Resolve non-terminal jobs deterministically: pending re-runs;
	// interrupted (compiling/running) re-runs or aborts per policy.
	var requeue []*job
	for _, id := range s.order {
		j := s.jobs[id]
		switch st := j.stateIs(); {
		case st == JobPending:
			requeue = append(requeue, j)
		case !st.Terminal():
			if opts.Recover == RecoverRerun {
				if err := s.append(&Record{ID: j.id, State: JobPending}); err != nil {
					journal.Close()
					return nil, err
				}
				j.apply(&Record{State: JobPending})
				requeue = append(requeue, j)
			} else {
				rec := &Record{ID: j.id, State: JobAborted,
					Error: "interrupted: daemon restarted mid-run"}
				if err := s.append(rec); err != nil {
					journal.Close()
					return nil, err
				}
				j.apply(rec)
			}
		}
		if st := j.stateIs(); st.Terminal() || st == JobPending {
			// Telemetry tracker for replayed jobs reflects the journal.
			if st.Terminal() {
				j.ri.Finish(st.runState(), 0, j.errText)
			}
		}
		if j.stateIs() == JobDone && j.artifact != "" && store.Has(j.artifact) {
			s.cacheIdx[j.specHash] = j.artifact
		}
	}

	// The queue must hold every recovered job plus a full admission
	// window without ever blocking a submit that passed the depth check.
	s.queue = make(chan *job, opts.QueueCap+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	if len(requeue) > 0 {
		s.logf("svc: recovered %d job(s) to the queue", len(requeue))
	}

	s.buildMux()
	s.workerWG.Add(opts.Concurrency)
	for i := 0; i < opts.Concurrency; i++ {
		go s.worker()
	}
	return s, nil
}

// jobNumOf parses the numeric component of a job ID ("j000017-…" → 17).
func jobNumOf(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	rest := id[1:]
	if i := strings.IndexByte(rest, '-'); i > 0 {
		rest = rest[:i]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// append journals a record. In the simulated-crash test state the
// journal is gone — appends vanish exactly as they would on SIGKILL.
func (s *Server) append(rec *Record) error {
	if s.crashed.Load() {
		return nil
	}
	return s.journal.Append(rec)
}

// transition journals a job mutation write-ahead, then folds it into
// memory. Journal failures are logged but do not stop the job: the
// in-memory state keeps serving, and the operator sees the log line.
func (s *Server) transition(j *job, rec *Record) {
	rec.ID = j.id
	if err := s.append(rec); err != nil {
		s.logf("svc: journal append failed for %s: %v", j.id, err)
	}
	j.apply(rec)
}

// rememberArtifact indexes a completed run's artifact under its spec
// hash, so identical future submissions are answered from the store.
// Only complete (done) artifacts enter the index: partial artifacts
// embed wall-clock-dependent progress and must never be replayed as a
// finished result.
func (s *Server) rememberArtifact(specHash, artifactHash string, size int64) {
	s.mu.Lock()
	s.cacheIdx[specHash] = artifactHash
	s.mu.Unlock()
	s.logf("svc: cached artifact %s (%d bytes) for spec %s", artifactHash[:8], size, specHash[:8])
}

// worker pulls jobs until drain.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case j := <-s.queue:
			select {
			case <-s.stopCh:
				// Drain won the race: leave the job pending in the
				// journal for the next daemon.
				return
			default:
			}
			s.execute(j)
		}
	}
}

// Drain gracefully stops the server: no new admissions, running jobs
// cancelled via their contexts (each persists a partial artifact with
// its progress on the way out), workers joined, journal closed. Queued
// jobs stay pending in the journal for the next start. The context
// bounds how long Drain waits for workers.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cancelAll()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("svc: drain timed out with workers still busy")
	}
	return s.journal.Close()
}

// crash simulates SIGKILL for the recovery tests: journaling stops
// mid-flight (no terminal records), workers are torn down, the journal
// file handle is closed. Nothing is drained gracefully.
func (s *Server) crash() {
	s.crashed.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cancelAll()
	s.workerWG.Wait()
	s.journal.Close()
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("/jobs/{id}/obs/", s.handleObs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
}

// httpError answers with a JSON {"error": ...} diagnostic.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) retryAfterSeconds() string {
	secs := int(s.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleSubmit is POST /jobs: decode strictly, validate cheaply,
// admission-check, journal write-ahead, then either answer from the
// artifact cache or enqueue. The fsynced journal append runs outside
// s.mu — a reservation taken under the lock holds the queue slot — so
// concurrent submissions and the read-only handlers never serialize on
// a disk sync.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.admit(spec); err != nil {
		httpError(w, http.StatusBadRequest, "svc: %v", err)
		return
	}
	hash := spec.Hash()

	// The store stat is a disk access; take it before the lock. Cache
	// index entries are only ever added, never removed, so a hit seen
	// here stays valid.
	s.mu.Lock()
	cachedArtifact := s.cacheIdx[hash]
	s.mu.Unlock()
	cacheHit := cachedArtifact != "" && s.store.Has(cachedArtifact)

	// Admission: reserve a queue slot (or confirm the cache hit) under
	// the lock, without journaling yet.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		httpError(w, http.StatusServiceUnavailable, "draining: not admitting new jobs")
		return
	}
	if !cacheHit && len(s.queue)+s.reserving >= s.opts.QueueCap {
		depth := len(s.queue) + s.reserving
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		httpError(w, http.StatusTooManyRequests,
			"admission queue full (%d queued); retry later", depth)
		return
	}
	if !cacheHit {
		s.reserving++
	}
	s.jobNum++
	id := fmt.Sprintf("j%06d-%s", s.jobNum, hash[:8])
	j := newJob(id, spec, hash, s.opts.HostWorkers)
	s.mu.Unlock()

	// Write-ahead barrier, outside the lock.
	appendErr := s.append(&Record{ID: id, State: JobPending, Spec: spec, SpecHash: hash})

	// Publish the job (or release the reservation on journal failure).
	s.mu.Lock()
	if !cacheHit {
		s.reserving--
	}
	if appendErr != nil {
		// The job was never published; its number stays burned so IDs
		// taken by concurrent submissions remain unique.
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "journal: %v", appendErr)
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	if !cacheHit {
		// Cannot block: the reservation held this slot until now, and
		// reservation-to-send happens atomically under mu.
		s.queue <- j
	}
	s.mu.Unlock()

	if cacheHit {
		rec := &Record{ID: id, State: JobDone, Artifact: cachedArtifact,
			Progress: 1, Cached: true}
		if err := s.append(rec); err == nil {
			j.apply(rec)
			j.ri.Finish(JobDone.runState(), 0, "")
		} else {
			// The cache answer could not be journaled; fall back to a
			// real run so the journal stays authoritative. Cache hits
			// skip the depth check, so a full queue fails the job
			// instead of blocking.
			select {
			case s.queue <- j:
			default:
				frec := &Record{ID: id, State: JobFailed,
					Error: "journal unavailable and queue full"}
				_ = s.append(frec)
				j.apply(frec)
			}
		}
	}

	v := j.view()
	w.Header().Set("Location", "/jobs/"+id)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleArtifact serves the run artifact bytes, checksum-verified by
// the store on every read.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	v := j.view()
	if v.Artifact == "" {
		if v.State.Terminal() {
			httpError(w, http.StatusNotFound, "job %s (%s) has no artifact", j.id, v.State)
		} else {
			httpError(w, http.StatusConflict, "job %s still %s; artifact not ready", j.id, v.State)
		}
		return
	}
	data, err := s.store.Get(v.Artifact)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Artifact-Sha256", v.Artifact)
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch st := j.stateIs(); {
	case st.Terminal():
		httpError(w, http.StatusConflict, "job already %s", st)
		return
	case st == JobPending:
		// Never started: journal the abort directly; the worker skips
		// terminal jobs it dequeues.
		s.transition(j, &Record{State: JobAborted, Error: "cancelled by client"})
		j.ri.Finish(JobAborted.runState(), 0, "cancelled by client")
	default:
		// Compiling or running: cancel the run context; the abort path
		// persists the partial artifact and journals the terminal state.
		j.requestCancel()
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleObs mounts the job's live telemetry plane (metrics, /series,
// /run, /healthz, /events) under /jobs/{id}/obs/.
func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	http.StripPrefix("/jobs/"+id+"/obs", j.obs).ServeHTTP(w, r)
}

// Health is the /healthz body: daemon status plus job-state counts.
type Health struct {
	// Status is "serving" or "draining".
	Status string `json:"status"`
	// Jobs counts jobs by state.
	Jobs map[JobState]int `json:"jobs"`
	// QueueDepth is the number of admitted-but-unstarted jobs.
	QueueDepth int `json:"queue_depth"`
	// QueueCap and Concurrency echo the admission configuration.
	QueueCap    int `json:"queue_cap"`
	Concurrency int `json:"concurrency"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := Health{
		Status:      "serving",
		Jobs:        map[JobState]int{},
		QueueDepth:  len(s.queue),
		QueueCap:    s.opts.QueueCap,
		Concurrency: s.opts.Concurrency,
	}
	if s.draining {
		h.Status = "draining"
	}
	for _, j := range s.jobs {
		h.Jobs[j.stateIs()]++
	}
	s.mu.Unlock()
	code := http.StatusOK
	if h.Status != "serving" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// Jobs returns the current job views, submission order (oldest first);
// a convenience for embedding and tests.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.order))
	ids := append([]string(nil), s.order...)
	sort.SliceStable(ids, func(a, b int) bool { return jobNumOf(ids[a]) < jobNumOf(ids[b]) })
	for _, id := range ids {
		views = append(views, s.jobs[id].view())
	}
	return views
}
