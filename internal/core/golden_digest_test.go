package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/mpi"
	"mpisim/internal/tracein"
)

// The benchmark's seed-1 digests (bench/golden.json) pin what every
// benchmarked prediction simulates. The benchmark fails a run whose
// digest moves, so this test recomputes each one through Prepare and
// Plan.Run and says so first. A moved digest is a change of simulated
// results: fix the change, or ask the benchmark's owner to re-record the
// digests (the file is theirs and is never edited here).

// benchDigest is bench/digest.go's digest: the predicted time, the
// kernel's event and message counts and every rank's finish time, floats
// in their shortest round-trip form.
func benchDigest(rep *mpi.Report) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(h, "time=%s events=%d messages=%d ranks=%d\n",
		f(rep.Time), rep.Kernel.Events, rep.Kernel.Delivered, len(rep.Ranks))
	for i := range rep.Ranks {
		fmt.Fprintf(h, "%s\n", f(float64(rep.Ranks[i].FinishTime)))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// predictDigest runs one spec the way the front doors do, on one host
// worker, and digests the report.
func predictDigest(t *testing.T, spec *RunSpec, host mpi.Config, cache Cache, tr *tracein.Trace) string {
	t.Helper()
	spec.Normalize()
	var hdr *tracein.Header
	if tr != nil {
		hdr = &tr.Header
	}
	if err := spec.ValidateWith(hdr, 0); err != nil {
		t.Fatalf("%s: %v", spec.Workload(), err)
	}
	host.HostWorkers = 1
	plan, err := Prepare(spec, host, cache, tr)
	if err != nil {
		t.Fatalf("%s: %v", spec.Workload(), err)
	}
	out, err := plan.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", spec.Workload(), err)
	}
	return benchDigest(out.Report)
}

// benchSweep3D is a CLI workload of the benchmark: mpisim -app sweep3d
// -machine ibmsp -inputs KT=40,MK=10 (bench/workloads.go).
func benchSweep3D(mode string, ranks int, nocheck bool) *RunSpec {
	return &RunSpec{App: "sweep3d", Mode: mode, Ranks: ranks, Machine: "ibmsp",
		Inputs: map[string]float64{"KT": 40, "MK": 10}, SkipChecks: nocheck}
}

func TestBenchGoldenDigests(t *testing.T) {
	data, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, name, got string) {
		t.Helper()
		if want := golden[name]; got != want {
			t.Errorf("%s: digest %s, bench/golden.json has %s. The benchmark fails every run "+
				"whose seed-1 digest moves; the digests change only through the benchmark's owner.",
				name, got, want)
		}
	}

	t.Run("am_sweep3d_1k", func(t *testing.T) {
		check(t, "am_sweep3d_1k", predictDigest(t, benchSweep3D("am", 1024, false), mpi.Config{}, nil, nil))
	})
	t.Run("de_sweep3d_256", func(t *testing.T) {
		check(t, "de_sweep3d_256", predictDigest(t, benchSweep3D("de", 256, false), mpi.Config{}, nil, nil))
	})
	t.Run("replay_sweep3d_1k", func(t *testing.T) {
		// The set-up records with -nocheck, writes the trace and replays it.
		spec := benchSweep3D("am", 1024, true)
		spec.Normalize()
		plan, err := Prepare(spec, mpi.Config{HostWorkers: 1, RecordCalls: true}, nil, nil)
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
		path := filepath.Join(t.TempDir(), "run.trace")
		if err := tracein.WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		if tr, err = tracein.ParseFile(path); err != nil {
			t.Fatal(err)
		}
		check(t, "replay_sweep3d_1k", predictDigest(t, &RunSpec{Mode: "replay"}, mpi.Config{}, nil, tr))
	})
	t.Run("am_sweep3d_16k_nocheck", func(t *testing.T) {
		if testing.Short() {
			t.Skip("16,384 ranks")
		}
		check(t, "am_sweep3d_16k_nocheck", predictDigest(t, benchSweep3D("am", 16384, true), mpi.Config{}, nil, nil))
	})
	t.Run("svc_mix", func(t *testing.T) {
		lines := map[int]string{} // by distinct spec: a repeat is the daemon's cached answer
		all := sha256.New()
		cache := &mapCache{compiled: map[string]compiledProgram{}, tasks: map[string]map[string]float64{}}
		for _, sub := range benchMix(t) {
			if _, ok := lines[sub.index]; !ok {
				lines[sub.index] = predictDigest(t, sub.spec, mpi.Config{}, cache, nil)
			}
			fmt.Fprintln(all, lines[sub.index])
		}
		check(t, "svc_mix", hex.EncodeToString(all.Sum(nil))[:32])
	})
}

// mapCache keeps compiled programs and w_i tables by key, as the daemon
// does.
type mapCache struct {
	compiled map[string]compiledProgram
	tasks    map[string]map[string]float64
}

type compiledProgram struct {
	prog *ir.Program
	res  *compiler.Result
}

func (c *mapCache) Compiled(key string, build func() (*ir.Program, *compiler.Result, error)) (*ir.Program, *compiler.Result, error) {
	if v, ok := c.compiled[key]; ok {
		return v.prog, v.res, nil
	}
	p, res, err := build()
	if err == nil {
		c.compiled[key] = compiledProgram{p, res}
	}
	return p, res, err
}

func (c *mapCache) TaskTimes(_, key string, calibrate func() (map[string]float64, error)) (map[string]float64, error) {
	if tt, ok := c.tasks[key]; ok {
		return tt, nil
	}
	tt, err := calibrate()
	if err == nil {
		c.tasks[key] = tt
	}
	return tt, err
}

// mixJob is one submission of the svc_mix workload.
type mixJob struct {
	spec  *RunSpec
	index int // the distinct spec
}

// benchMix mirrors bench/specgen.go's genMix at seed 1 (machine ibmsp):
// 42 what-if points, program x ranks x mode x topology x placement,
// shuffled and submitted in blocks of two new specs and the first again.
func benchMix(t *testing.T) []mixJob {
	t.Helper()
	type program struct{ app, text string }
	var progs []program
	for _, a := range []string{"sweep3d", "tomcatv", "nassp", "sample"} {
		progs = append(progs, program{app: a})
	}
	files, err := filepath.Glob("../../examples/programs/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{text: string(text)})
	}
	type point struct {
		prog, ranks      int
		mode             string
		topology, placed string
	}
	var variants []point
	for _, tp := range []string{"flat", "torus:dims=4x4", "fattree:k=4"} {
		for _, pl := range []string{"block", "roundrobin"} {
			variants = append(variants, point{topology: tp, placed: pl})
		}
	}
	mixRanks := []int{16, 64, 256}
	var points []point
	for pi := range progs {
		for k, vi := range []int{pi % len(variants), (pi + len(variants)/2) % len(variants)} {
			p := variants[vi]
			p.prog = pi
			for _, ranks := range mixRanks[:len(mixRanks)-k] {
				p.ranks, p.mode = ranks, "am"
				points = append(points, p)
				if k == 0 && ranks <= 16 {
					p.mode = "de"
					points = append(points, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	if len(points) != 42 {
		t.Fatalf("%d points, bench/specgen.go's mix has 42", len(points))
	}
	spec := func(p point) *RunSpec {
		s := &RunSpec{Mode: p.mode, Ranks: p.ranks, Machine: "ibmsp", Topology: p.topology, Placement: p.placed}
		if pr := progs[p.prog]; pr.text == "" {
			s.App = pr.app
		} else {
			s.Program = pr.text
			s.Inputs = map[string]float64{"N": 512, "STEPS": 4}
		}
		return s
	}
	var jobs []mixJob
	for i := 0; i < len(points); i += 2 {
		jobs = append(jobs, mixJob{spec(points[i]), i}, mixJob{spec(points[i+1]), i + 1}, mixJob{spec(points[i]), i})
	}
	return jobs
}
