package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mpisim/internal/trace"
)

// env is what one pass needs to know about its surroundings.
type env struct {
	outDir  string // bench/out
	seed    int
	seconds float64
	smoke   bool
}

func (e env) bin(name string) string { return filepath.Join(e.outDir, "bin", name) }
func (e env) tmp(name string) string { return filepath.Join(e.outDir, "tmp", name) }

// tracePath is where the replay workload's set-up records its trace.
func (e env) tracePath(w workload) string { return e.tmp(w.name + ".trace") }

// sized applies -smoke to a workload.
func (e env) sized(w workload) workload {
	if e.smoke && !w.svc {
		w.ranks = smokeRanks
	}
	return w
}

// buildBinaries compiles the programs under test into <out>/bin.
func buildBinaries(e env) error {
	if err := os.MkdirAll(e.tmp(""), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", e.bin("")+string(filepath.Separator), "./cmd/mpisim", "./cmd/mpisimd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/mpisim ./cmd/mpisimd: %w", err)
	}
	return nil
}

// childEnv is the environment of every program the harness starts: one
// processor each. The second virtual processor of this machine comes and
// goes with the host's load (the collector's helper threads get it in one
// minute and not in the next), so a run that counts on it measures the
// host's scheduler; confined to one, an op's wall is its processor time.
func childEnv() []string { return append(os.Environ(), "GOMAXPROCS=1") }

// opTimeout kills an op that hangs, so a pass ends with a failed op
// instead of outliving the driver's patience. Ops take seconds.
const opTimeout = 2 * time.Minute

// op is the outcome of one `mpisim` child.
type op struct {
	wall   float64 // fork to exit
	cpu    float64 // user+sys
	rssMB  float64 // ru_maxrss
	events int64
	digest string
	err    error
}

// runOp runs one mpisim child to completion, then reads the artifact it
// wrote and digests it. Only the child's lifetime is timed.
func runOp(e env, args []string, artifactPath string) op {
	os.Remove(artifactPath)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.bin("mpisim"), args...)
	cmd.Env = childEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	o := op{wall: time.Since(start).Seconds()}
	if err != nil {
		o.err = fmt.Errorf("mpisim %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
		return o
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	o.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	o.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	art, err := trace.ReadArtifact(artifactPath)
	if err != nil {
		o.err = err
		return o
	}
	o.events = art.Report.Kernel.Events
	o.digest = digest(art.Report)
	return o
}

// checkRSS flags peak-RSS readings that are the harness's own. The
// children are vforked, and exec folds the parent's high-water mark into
// the child's ru_maxrss, so a child's reading is never below this
// process's peak RSS and says nothing about the child at or below it.
// (Under -smoke the children are as small as the harness.)
func checkRSS(res *result, e env, rss []float64) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil || e.smoke {
		return
	}
	own := 0.0
	if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
		fmt.Sscan(rest, &own) // kB
	}
	own /= 1024
	res.Metrics["harness_peak_rss_mb"] = metric{Value: own, Unit: "MB"}
	if median(rss) <= own {
		res.problem("peak RSS %.1f MB is not above the harness's own %.1f MB: the reading is the harness's", median(rss), own)
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// recordTrace is the replay workload's share of set-up: simulate the
// am_sweep3d_4k configuration, record its call log and write the trace
// (the verifier is skipped: it does not change the recording). It
// returns the direct run's digest, which every replay must reproduce.
func recordTrace(e env, w workload, machine, tracePath, artifactPath string) (string, error) {
	args := append(w.simArgs(machine), "-nocheck", "-record", tracePath, "-runjson", artifactPath)
	direct := runOp(e, args, artifactPath)
	if direct.err != nil {
		return "", fmt.Errorf("recording the trace: %w", direct.err)
	}
	return direct.digest, nil
}

// setupCLI is the untimed part before the first measured op: record the
// trace when the workload replays one, then one warm-up op. It returns
// the digest every measured op must reproduce.
func setupCLI(e env, w workload, machine, tracePath, artifactPath string) (string, error) {
	want := ""
	if w.replay {
		d, err := recordTrace(e, w, machine, tracePath, artifactPath)
		if err != nil {
			return "", err
		}
		want = d
	}
	warm := runOp(e, w.opArgs(machine, tracePath, artifactPath), artifactPath)
	if warm.err != nil {
		return "", fmt.Errorf("warm-up op: %w", warm.err)
	}
	if want != "" && warm.digest != want {
		return "", fmt.Errorf("replay digest %s differs from the direct run's %s", warm.digest, want)
	}
	return warm.digest, nil
}

// cliSetups is how often a CLI workload's set-up is repeated per run;
// setup_s is the median.
const cliSetups = 3

// runCLI is the untraced pass of a CLI workload: set-up, then a closed
// loop of ops, one child at a time and a calibration after each, until
// the window is used up.
func runCLI(e env, w workload, golden map[string]string) *result {
	res := newResult(w.name, 0)
	machine := machineForSeed(e.seed)
	tracePath, artifactPath := e.tracePath(w), e.tmp(w.name+".json")
	defer os.Remove(tracePath)
	defer os.Remove(artifactPath)
	sc := newScaler(e)

	var setups []float64
	want := ""
	for i := 0; i < cliSetups && (i == 0 || !e.smoke); i++ {
		start := time.Now()
		d, err := setupCLI(e, w, machine, tracePath, artifactPath)
		if err != nil {
			res.problem("set-up: %v", err)
			res.Attempted, res.Failed = 1, 1
			return res
		}
		setups = append(setups, time.Since(start).Seconds()*sc.factor())
		want = d
	}

	var walls, raw, rss []float64
	var events int64 // of one op: the digest pins it, so every op has the same
	for start := time.Now(); len(walls) == 0 || (time.Since(start).Seconds() < e.seconds && !e.smoke); {
		o := runOp(e, w.opArgs(machine, tracePath, artifactPath), artifactPath)
		res.Attempted++
		switch {
		case o.err != nil:
			res.Failed++
			res.problem("op %d: %v", res.Attempted, o.err)
		case o.digest != want:
			res.Failed++
			res.problem("op %d: digest %s differs from set-up's %s", res.Attempted, o.digest, want)
		default:
			events = o.events
		}
		walls = append(walls, o.wall*sc.factor())
		raw = append(raw, o.wall)
		rss = append(rss, o.rssMB)
	}
	checkGolden(res, e, golden, w.name, want)
	checkRSS(res, e, rss)
	if sc.err != nil {
		res.problem("%v", sc.err)
	}

	// One client in a closed loop: the rate is the reciprocal of the wall.
	wall := median(walls)
	tail := percentile(walls, tailPercent(len(walls)))
	res.fillEndToEnd(wall, tail, 1/wall, float64(events)/wall, len(walls), rss, setups)
	res.addRaw(median(raw), sc)
	return res
}

// checkGolden compares a seed-1, full-size digest with bench/golden.json
// (or records it under -update-golden, when golden is the map to fill).
func checkGolden(res *result, e env, golden map[string]string, name, got string) {
	if e.seed != 1 || e.smoke || golden == nil {
		return
	}
	if updateGolden {
		golden[name] = got
		return
	}
	if want, ok := golden[name]; !ok {
		res.problem("%s has no digest for %s (run with -update-golden)", goldenPath, name)
	} else if got != want {
		res.problem("digest %s differs from %s's %s", got, goldenPath, want)
	}
}

// inprocReport is what the re-exec'd traced pass prints on standard
// output for its parent.
type inprocReport struct {
	Digest string             `json:"digest"`
	Values map[string]float64 `json:"values"`
}

// runCLITraced is the traced pass of a CLI workload: one untraced op
// through the binary as the reference, then the same prediction in a
// fresh re-exec of this harness with a span around every layer call. The
// two must agree on the digest, so the harness's copy of the CLI's
// sequence cannot drift from cmd/mpisim unnoticed.
func runCLITraced(e env, w workload) *result {
	res := newResult(w.name, 1)
	res.Attempted = 1
	machine := machineForSeed(e.seed)
	tracePath, artifactPath := e.tracePath(w), e.tmp(w.name+".json")
	defer os.Remove(tracePath)
	defer os.Remove(artifactPath)
	sc := newScaler(e) // the spans are as measured; host.calib_s says how fast the machine was

	want := ""
	if w.replay {
		d, err := recordTrace(e, w, machine, tracePath, artifactPath)
		if err != nil {
			res.problem("set-up: %v", err)
			res.Failed = 1
			return res
		}
		want = d
	}
	ref := runOp(e, w.opArgs(machine, tracePath, artifactPath), artifactPath)
	sc.factor()
	if ref.err != nil || (want != "" && ref.digest != want) {
		res.problem("reference op: digest %s, direct run's %s, err %v", ref.digest, want, ref.err)
		res.Failed = 1
		return res
	}

	self, err := os.Executable()
	if err != nil {
		res.problem("re-exec: %v", err)
		return res
	}
	args := []string{"-inproc", "-workload", w.name, "-seed", fmt.Sprint(e.seed), "-out", e.outDir}
	if e.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	sc.factor()
	if err != nil {
		res.problem("traced pass: %v", err)
		res.Failed = 1
		return res
	}
	var rep inprocReport
	if err := json.Unmarshal(out, &rep); err != nil {
		res.problem("traced pass output: %v", err)
		return res
	}
	if rep.Digest != ref.digest {
		res.problem("mirror check: traced in-process digest %s differs from the binary's %s", rep.Digest, ref.digest)
		res.Failed = 1
	}

	v := rep.Values
	v["proc.cpu_s"] = ref.cpu
	// The wall the spans do not cover: exec, runtime start, flags,
	// stdout, exit. Negative when tracing costs more than those.
	v["proc.overhead_s"] = ref.wall - v["predict_spans_s"]
	v["trace.overhead_pct"] = 100 * (v["traced_total_s"] - ref.wall) / ref.wall
	if k := v["sim.kernel_events_per_s"]; k > 0 {
		v["e2e.kernel_ratio"] = float64(ref.events) / ref.wall / k
	}
	if sc.err != nil {
		res.problem("%v", sc.err)
	}
	v["host.calib_s"] = median(sc.calibs)
	res.fill(perLayer, v, map[string]int{"host.calib_s": len(sc.calibs)})
	res.Metrics["predict_wall_s"] = metric{Value: ref.wall, Unit: "s", N: 1}
	res.Metrics["predict_spans_s"] = metric{Value: v["predict_spans_s"], Unit: "s"}
	return res
}
