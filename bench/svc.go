package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/core"
	"mpisim/internal/ir"
	"mpisim/internal/machine"
	netpkg "mpisim/internal/net"
	"mpisim/internal/svc"
	"mpisim/internal/trace"
)

const pollInterval = 2 * time.Millisecond

// daemon is a live mpisimd child on a fresh data directory.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string
}

// startDaemon launches mpisimd and returns once /healthz answers 200.
func startDaemon(e env) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir, err := os.MkdirTemp(e.tmp(""), "mpisimd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin("mpisimd"), "-addr", addr, "-dir", dir,
		"-concurrency", "2", "-workers", "1", "-q")
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mpisimd at %s not healthy after 10s: %v", addr, err)
		}
	}
}

// stop drains the daemon, waits for it and removes its data directory.
// It returns the daemon's peak RSS and its user+sys processor time.
func (d *daemon) stop() (rssMB, cpu float64, err error) {
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	err = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
		cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return rssMB, cpu, err
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) float64 {
	total := 0.0
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil
	})
	return total
}

// job is what a client saw of one submission.
type job struct {
	sub                            submission
	op                             int
	start, submitted, done, inHand time.Time
	polls                          int
	view                           svc.JobView
	artifact                       []byte
	rejected                       bool
	err                            error
}

func (j *job) wall() float64 { return j.inHand.Sub(j.start).Seconds() }

// runJob submits, polls until the job is terminal, and fetches the
// artifact. Nothing is checked here: the client's processor time belongs
// to the daemon during the window.
func runJob(c *http.Client, base string, sub submission, op int) *job {
	j := &job{sub: sub, op: op, start: time.Now()}
	defer func() { j.inHand = time.Now() }()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(sub.body))
	if err != nil {
		j.err = err
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submitted = time.Now()
	j.done = j.submitted
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		j.rejected = true
	}
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &j.view)
	}
	for err == nil && !j.view.State.Terminal() {
		if time.Since(j.start) > opTimeout {
			err = fmt.Errorf("job %s still %s after %v", j.view.ID, j.view.State, opTimeout)
			break
		}
		time.Sleep(pollInterval)
		j.polls++
		err = getJSON(c, base+"/jobs/"+j.view.ID, &j.view)
		j.done = time.Now()
	}
	if err == nil && j.view.State != svc.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", j.view.ID, j.view.State, j.view.Error)
	}
	if err == nil {
		j.artifact, err = get(c, base+"/jobs/"+j.view.ID+"/artifact")
	}
	j.err = err
	return j
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, err
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// warmupSpec is the set-up job: outside the mix, so it seeds no cache
// entry the mix would hit.
var warmupSpec = []byte(`{"app":"sample","mode":"am","ranks":4}`)

// setupSvc starts a daemon on a fresh directory and runs one warm-up job.
func setupSvc(e env) (*daemon, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	if j := runJob(http.DefaultClient, d.base, submission{body: warmupSpec}, -1); j.err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up job: %w", j.err)
	}
	return d, nil
}

// pass is one run of the mix against a fresh daemon, as the client and
// the daemon's exit saw it.
type pass struct {
	jobs                     []*job
	window                   float64 // first submit to last artifact in hand
	rssMB, cpu               float64 // the daemon at drain
	journalBytes, storeBytes float64
}

// runMix submits the blocks in order from one closed-loop client on one
// connection (the daemon has one processor: a second client's job would
// only time-share it, and which jobs then overlap changes from run to
// run), then drains and stops d.
func runMix(d *daemon, blocks [][blockLen]submission) (*pass, error) {
	p := &pass{}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: opTimeout}
	defer client.CloseIdleConnections()
	start := time.Now()
	for _, b := range blocks {
		for _, sub := range b {
			p.jobs = append(p.jobs, runJob(client, d.base, sub, len(p.jobs)))
		}
	}
	p.window = time.Since(start).Seconds()
	p.journalBytes = dirBytes(filepath.Join(d.dir, "journal.jsonl"))
	p.storeBytes = dirBytes(filepath.Join(d.dir, "cas"))
	var err error
	p.rssMB, p.cpu, err = d.stop()
	return p, err
}

// passStats is what the output checks make of one pass.
type passStats struct {
	digest                                        string // over every job's digest, in submission order
	walls, cold, hit, submit, fetch, queued, runs []float64
	events                                        int64 // kernel events of the cold jobs
	polls, rejected, hits                         int
}

// checkPass runs the output checks on a pass's jobs, after its window.
func checkPass(res *result, p *pass) *passStats {
	st := &passStats{}
	first := map[int][]byte{}
	all := sha256.New()
	for _, j := range p.jobs {
		res.Attempted++
		st.walls = append(st.walls, j.wall())
		if j.rejected {
			st.rejected++
		}
		st.polls += j.polls
		art := checkJob(res, j, first)
		if art == nil {
			res.Failed++
			continue
		}
		fmt.Fprintln(all, digest(art.Report))
		st.submit = append(st.submit, j.submitted.Sub(j.start).Seconds())
		st.fetch = append(st.fetch, j.inHand.Sub(j.done).Seconds())
		if j.view.Cached {
			st.hits++
			st.hit = append(st.hit, j.wall())
			continue
		}
		st.cold = append(st.cold, j.wall())
		st.events += art.Report.Kernel.Events
		if v := j.view; v.StartedAt != nil && v.FinishedAt != nil {
			st.queued = append(st.queued, v.StartedAt.Sub(v.SubmittedAt).Seconds())
			st.runs = append(st.runs, v.FinishedAt.Sub(*v.StartedAt).Seconds())
		}
	}
	st.digest = hex.EncodeToString(all.Sum(nil))[:32]
	return st
}

// runSvc is the untraced pass of svc_mix: the seed's mix, start to finish
// against a fresh mpisimd, again and again until the window is used up,
// with a calibration after every set-up and every mix.
func runSvc(e env, w workload, golden map[string]string) *result {
	res := newResult(w.name, 0)
	blocks, _, err := loadMix(e)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	sc := newScaler(e)

	// Per pass: the scaled set-up, the window as measured and scaled, every
	// job's scaled wall, the daemon's peak RSS.
	var setups, windows, raw, rss []float64
	var jobWalls [][]float64
	var events int64 // of one pass: the digest pins it
	want := ""
	for start := time.Now(); len(windows) == 0 || (time.Since(start).Seconds() < e.seconds && !e.smoke); {
		t0 := time.Now()
		d, err := setupSvc(e)
		if err != nil {
			res.problem("set-up: %v", err)
			res.Attempted, res.Failed = res.Attempted+1, res.Failed+1
			return res
		}
		setups = append(setups, time.Since(t0).Seconds()*sc.factor())
		p, err := runMix(d, blocks)
		if err != nil {
			res.problem("mpisimd did not drain cleanly: %v", err)
		}
		f := sc.factor()
		st := checkPass(res, p)
		if want == "" {
			want = st.digest
		} else if st.digest != want {
			res.problem("pass %d: digest %s differs from the first pass's %s", len(windows)+1, st.digest, want)
		}
		events = st.events
		for i := range st.walls {
			st.walls[i] *= f
		}
		jobWalls = append(jobWalls, st.walls)
		raw = append(raw, p.window)
		windows = append(windows, p.window*f)
		rss = append(rss, p.rssMB)
	}
	checkGolden(res, e, golden, w.name, want)
	checkRSS(res, e, rss)
	if sc.err != nil {
		res.problem("%v", sc.err)
	}

	// The tail: per pass, the highest percentile the passes' jobs together
	// support.
	var tails []float64
	for _, jw := range jobWalls {
		tails = append(tails, percentile(jw, tailPercent(res.Attempted)))
	}
	// The op's wall is the mean job's: what one what-if point of the mix
	// costs. (Its job walls spread over two decades, 1 ms cache hits to
	// 0.3 s cold jobs, and the cheap half is mostly polling and fsync
	// latency: a median or interquartile mean over them moved by 16-22% of
	// itself between runs of the same code, the mean by 4-9%.) One client
	// in a closed loop, so the rate is its reciprocal.
	jobs := float64(len(blocks) * blockLen)
	wall := median(windows) / jobs
	res.fillEndToEnd(wall, median(tails), 1/wall, float64(events)/median(windows), len(windows), rss, setups)
	res.addRaw(median(raw)/jobs, sc)
	return res
}

// loadMix lists the mix's programs and generates the seed's submissions.
func loadMix(e env) ([][blockLen]submission, []program, error) {
	progs, err := loadPrograms()
	if err != nil {
		return nil, nil, err
	}
	blocks, err := genMix(machineForSeed(e.seed), progs, e.smoke)
	return blocks, progs, err
}

// runSvcTraced is the traced pass of svc_mix: the mix once, each job's
// phases recorded as spans, then an in-process timing of the layers the
// daemon calls per job.
func runSvcTraced(e env, w workload) *result {
	res := newResult(w.name, 1)
	rec := newRecorder(w.name)
	blocks, progs, err := loadMix(e)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	sc := newScaler(e)
	d, err := setupSvc(e)
	if err != nil {
		res.problem("set-up: %v", err)
		res.Attempted, res.Failed = 1, 1
		return res
	}
	p, err := runMix(d, blocks)
	if err != nil {
		res.problem("mpisimd did not drain cleanly: %v", err)
	}
	sc.factor()
	st := checkPass(res, p)

	for _, j := range p.jobs {
		root := rec.add("svc.job", noParent, j.op, j.start, j.inHand)
		rec.add("svc.submit", root, j.op, j.start, j.submitted)
		wait := rec.add("svc.wait", root, j.op, j.submitted, j.done)
		rec.add("svc.artifact_fetch", root, j.op, j.done, j.inHand)
		if v := j.view; !v.Cached && v.StartedAt != nil && v.FinishedAt != nil {
			// The daemon's own timestamps, on the same host clock.
			rec.add("svc.queue_wait", wait, j.op, v.SubmittedAt, *v.StartedAt)
			rec.add("svc.run", wait, j.op, *v.StartedAt, *v.FinishedAt)
		}
	}
	v := map[string]float64{
		"svc.submit_s":           median(st.submit),
		"svc.queue_wait_s":       median(st.queued),
		"svc.run_s":              median(st.runs),
		"svc.cold_job_s":         median(st.cold),
		"svc.cachehit_job_s":     median(st.hit),
		"svc.artifact_fetch_s":   median(st.fetch),
		"svc.artifact_hit_ratio": float64(st.hits) / float64(len(p.jobs)),
		"svc.rejected":           float64(st.rejected),
		"svc.poll_requests":      float64(st.polls),
		"svc.journal_bytes":      p.journalBytes,
		"svc.store_bytes":        p.storeBytes,
		"proc.cpu_s":             p.cpu,
	}
	counts := map[string]int{"svc.submit_s": len(st.submit), "svc.queue_wait_s": len(st.queued), "svc.run_s": len(st.runs),
		"svc.cold_job_s": len(st.cold), "svc.cachehit_job_s": len(st.hit), "svc.artifact_fetch_s": len(st.fetch)}
	if err := svcLayers(rec, progs, blocks, v, counts); err != nil {
		res.problem("in-process layer pass: %v", err)
	}
	sc.factor()
	v["host.calib_s"], counts["host.calib_s"] = median(sc.calibs), len(sc.calibs)
	if sc.err != nil {
		res.problem("%v", sc.err)
	}
	res.fill(perLayer, v, counts)
	if err := rec.write(filepath.Join(e.outDir, "trace_"+w.name+".json")); err != nil {
		res.problem("%v", err)
	}
	return res
}

// checkJob verifies one job's outcome: it ended done with an artifact
// that decodes, and a repeat was answered with the first answer's bytes
// (whether from the cache is counted, as svc.artifact_hit_ratio, not
// required: a miss re-runs the job and must still give the same bytes).
// It returns the decoded artifact, or nil when a check failed.
func checkJob(res *result, j *job, first map[int][]byte) *trace.Artifact {
	if j.err != nil {
		res.problem("submission %d: %v", j.op, j.err)
		return nil
	}
	art, err := trace.DecodeArtifact(j.artifact)
	if err != nil {
		res.problem("submission %d: artifact: %v", j.op, err)
		return nil
	}
	if !j.sub.again {
		first[j.sub.index] = j.artifact
	} else if !bytes.Equal(first[j.sub.index], j.artifact) {
		res.problem("submission %d: the repeat's artifact differs from the first answer's", j.op)
		return nil
	}
	return art
}

// svcLayers times, in-process, the layer calls the daemon makes per cold
// job, once per distinct input of the mix: build or parse and compile per
// program, verify and calibrate per AM compile key, net.Build per
// non-flat network. Each metric is the median over those inputs.
func svcLayers(rec *recorder, progs []program, blocks [][blockLen]submission, v map[string]float64, counts map[string]int) error {
	return rec.call("layers", noParent, func(root int) error {
		irProgs := make([]*ir.Program, len(progs))
		compiled := make([]*compiler.Result, len(progs))
		tasks := 0
		for i, p := range progs {
			name := "ir.build"
			if p.text != "" {
				name = "ir.parse"
			}
			err := rec.call(name, root, func(int) (err error) {
				if p.text == "" {
					irProgs[i] = apps.Registry()[p.name].Build()
				} else {
					irProgs[i], err = ir.Parse(p.text)
				}
				return err
			})
			if err != nil {
				return err
			}
			err = rec.call("compiler.compile", root, func(int) (err error) {
				compiled[i], err = compiler.Compile(irProgs[i])
				return err
			})
			if err != nil {
				return err
			}
			tasks += len(compiled[i].TaskVars)
		}
		v["compiler.tasks"] = float64(tasks)

		type calKey struct {
			prog             int
			topology, placed string
		}
		type netKey struct {
			topology, placed string
			ranks            int
		}
		calibrated, built := map[calKey]bool{}, map[netKey]bool{}
		for _, b := range blocks {
			for _, sub := range b[:2] {
				p := sub.point
				m := machine.IBMSP()
				m.Topology, m.Placement = p.topology, p.placed
				if nk := (netKey{p.topology, p.placed, p.ranks}); p.topology != "flat" && !built[nk] {
					built[nk] = true
					if err := rec.call("net.build", root, func(int) error {
						_, err := netpkg.Build(m, p.ranks)
						return err
					}); err != nil {
						return err
					}
				}
				ck := calKey{p.prog, p.topology, p.placed}
				if p.mode != "am" || calibrated[ck] {
					continue
				}
				calibrated[ck] = true
				cr := calRanks(p.ranks) // 16 at every rank count of the mix: one table per compile key
				inputs := inlineInputs
				if progs[p.prog].text == "" {
					inputs = apps.Registry()[progs[p.prog].name].Default(cr)
				}
				r := &core.Runner{Program: irProgs[p.prog], Machine: m, Compiled: compiled[p.prog], HostWorkers: 1}
				if err := rec.call("check.run", root, func(int) error {
					_, err := r.Check(cr, inputs)
					return err
				}); err != nil {
					return err
				}
				if err := rec.call("core.calibrate", root, func(int) error {
					_, err := r.Calibrate(cr, inputs)
					return err
				}); err != nil {
					return err
				}
			}
		}
		for metricName, spanName := range map[string]string{
			"ir.build_s": "ir.build", "ir.parse_s": "ir.parse", "compiler.compile_s": "compiler.compile",
			"check.run_s": "check.run", "core.calibrate_s": "core.calibrate", "net.build_s": "net.build",
		} {
			d := rec.durations(spanName)
			v[metricName], counts[metricName] = median(d), len(d)
		}
		return nil
	})
}
