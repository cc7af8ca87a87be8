// Command bench is the whole-prediction benchmark: it builds cmd/mpisim
// and cmd/mpisimd, runs five workloads through those binaries with
// tracing off for the end-to-end metrics, and runs each again as a traced
// pass for the per-layer metrics. See README.md in this directory.
//
//	go run ./bench                                  # every workload, both passes
//	go run ./bench -repeat 2                        # twice, compared against the bounds
//	go run ./bench -workload svc_mix -trace 0       # one pass, one JSON line last
//	go run ./bench -smoke                           # 64 ranks, one op, nine jobs
//	go run ./bench -update-golden                   # rewrite bench/golden.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// updateGolden makes the seed-1 digests be recorded instead of checked.
var updateGolden bool

func main() {
	started := time.Now()
	var (
		name    = flag.String("workload", "", "run one pass of this workload and print one JSON line last (default: every workload, both passes)")
		seed    = flag.Int("seed", 1, "workload seed: the target machine of the CLI workloads, svc_mix's submission order")
		seconds = flag.Float64("seconds", 22, "length of a workload's timed window")
		traced  = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass through the binaries, 1 = traced per-layer pass")
		smoke   = flag.Bool("smoke", false, "tiny sizes: 64 ranks, one op, nine jobs")
		repeat  = flag.Int("repeat", 1, "run the full set this many times and compare the first two")
		outDir  = flag.String("out", "bench/out", "directory for binaries, span files and results")
		resPath = flag.String("result", "", "with -workload: also write the pass's full result to this file")
		inproc  = flag.Bool("inproc", false, "internal: the re-exec'd in-process traced pass")
		calib   = flag.Bool("calibrate", false, "internal: the calibration child")
	)
	flag.BoolVar(&updateGolden, "update-golden", false, "record the seed-1 digests in bench/golden.json instead of checking them")
	flag.Parse()
	if *calib {
		calibrateMain()
		return
	}
	e := env{outDir: *outDir, seed: *seed, seconds: *seconds, smoke: *smoke}

	if *inproc {
		w, _ := workloadByName(*name)
		rep, err := runInproc(e, e.sized(w), started)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if err := buildBinaries(e); err != nil {
		fatal(err)
	}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		golden, err := readGolden()
		if err != nil {
			if !updateGolden {
				fatal(err)
			}
			golden = map[string]string{}
		}
		if updateGolden {
			e.seed = 1
		}
		res := runPass(e, w, *traced, golden)
		res.print(os.Stderr)
		if *resPath != "" {
			if err := writeJSON(*resPath, res); err != nil {
				fatal(err)
			}
		}
		if updateGolden && res.Correct {
			if err := writeGolden(golden); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "%s rewritten\n", goldenPath)
		}
		defs := endToEnd
		if *traced == 1 {
			defs = perLayer
		}
		fmt.Println(res.driverLine(defs))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	ok := true
	var sets []*resultSet
	for r := 1; r <= *repeat; r++ {
		set := &resultSet{Host: hostInfo(e), Started: time.Now().UTC().Format(time.RFC3339)}
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				res, err := runPassInChild(e, w, trace)
				if err != nil {
					fatal(err)
				}
				ok = ok && res.Correct
				set.Results = append(set.Results, res)
			}
		}
		path := filepath.Join(e.outDir, fmt.Sprintf("result_%d.json", r))
		if err := writeJSON(path, set); err != nil {
			fatal(err)
		}
		fmt.Printf("results written to %s, spans to %s\n", path, filepath.Join(e.outDir, "trace_<workload>.json"))
		sets = append(sets, set)
	}
	if len(sets) >= 2 {
		ok = compare(os.Stdout, sets[0], sets[1]) && ok
	}
	if !ok {
		fmt.Println("FAILED: see PROBLEM lines and verdicts above")
		os.Exit(1)
	}
}

// runPassInChild runs one pass the way the benchmark driver does, in a
// harness process of its own, so that every pass of the full set starts
// from the same small harness: a child's peak-RSS reading starts from its
// parent's (ownPeakRSSMB), and a harness that has run a traced pass
// in-process is no longer small. The child prints the pass's metrics.
func runPassInChild(e env, w workload, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := e.tmp(fmt.Sprintf("result_%s_%d.json", w.name, trace))
	defer os.Remove(path)
	args := []string{"-workload", w.name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(e.seed),
		"-seconds", fmt.Sprint(e.seconds), "-out", e.outDir, "-result", path}
	if e.smoke {
		args = append(args, "-smoke")
	}
	if updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stdout
	runErr := cmd.Run() // non-zero when the pass is not correct; its result says why
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %v: %w", w.name, trace, runErr, err)
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// runPass runs one pass of one workload.
func runPass(e env, w workload, traced int, golden map[string]string) *result {
	w = e.sized(w)
	switch {
	case w.svc && traced == 1:
		return runSvcTraced(e, w)
	case w.svc:
		return runSvc(e, w, golden)
	case traced == 1:
		return runCLITraced(e, w)
	}
	return runCLI(e, w, golden)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// host describes where and on what a result set was measured.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int     `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func hostInfo(e env) host {
	commit := "unknown" // a checkout without git history
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: e.seed, Seconds: e.seconds, Smoke: e.smoke,
	}
}

// resultSet is one full run of the benchmark, as written to
// <out>/result_<n>.json and committed under bench/baseline/.
type resultSet struct {
	Host    host      `json:"host"`
	Started string    `json:"started"`
	Results []*result `json:"results"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
