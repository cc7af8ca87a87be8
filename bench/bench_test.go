package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mpisim/internal/mpi"
	"mpisim/internal/sim"
	"mpisim/internal/svc"
)

// The harness names its files relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(v, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95 (nearest rank)", got)
	}
	if got := percentile(v, 100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The tail is the p95 only when at least ten samples lie beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20, 50},   // a CLI window: the median is all the sample supports
		{199, 50},  // 9 beyond the p95: still the median
		{200, 95},  // exactly 10 beyond
		{252, 95},  // four passes of svc_mix: 12 beyond
		{1000, 95}, // 50 beyond
	} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 3},
		{ID: 2, Parent: 0, Start: 2, End: 5},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 8, End: 12}, // runs past the parent: clipped
		{ID: 4, Parent: 2, Start: 2, End: 4},  // grandchild: only its parent's business
		{ID: 5, Parent: -1, Start: 20, End: 21},
	}
	want := []float64{10 - (4 + 2), 2, 3 - 2, 4, 2, 1}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderCallNests(t *testing.T) {
	rec := newRecorder("w")
	err := rec.call("outer", noParent, func(outer int) error {
		return rec.call("inner", outer, func(int) error {
			_ = make([]byte, 1<<20)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	in, out := rec.named("inner")[0], rec.named("outer")[0]
	if in.Parent != out.ID || in.Start < out.Start || in.End > out.End || in.Workload != "w" {
		t.Errorf("inner %+v not nested in outer %+v", in, out)
	}
	if out.AllocBytes < 1<<20 {
		t.Errorf("outer span saw %d allocated bytes, want at least 1 MiB", out.AllocBytes)
	}
}

func testReport() *mpi.Report {
	rep := &mpi.Report{Time: 0.1 + 0.2, Kernel: &sim.Result{Events: 7, Delivered: 3}}
	for _, ft := range []float64{0.30000000000000004, 1e-9, 2.5} {
		rs := mpi.RankStats{}
		rs.FinishTime = sim.Time(ft)
		rep.Ranks = append(rep.Ranks, rs)
	}
	return rep
}

// The digest is pinned: it must not change with the Go version or with
// fields the benchmark does not promise to hold still.
func TestDigestStable(t *testing.T) {
	const want = "19b0d985742f98d5e28a82826e0bd4e6"
	rep := testReport()
	got := digest(rep)
	if got != digest(testReport()) {
		t.Fatal("digest differs between equal reports")
	}
	if got != want {
		t.Errorf("digest = %s, want the pinned %s", got, want)
	}
	rep.Kernel.Windows = 99 // host-side: how the engine got there
	rep.TotalPeakBytes = 1 << 30
	if digest(rep) != got {
		t.Error("digest depends on a field outside the pinned statistics")
	}
	rep.Ranks[1].FinishTime = 1.0000000000000002e-9 // one ulp
	if digest(rep) == got {
		t.Error("digest missed a one-ulp change of a finish time")
	}
}

func TestMixDeterministicAndValid(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	a, err := genMix(machineForSeed(7), progs, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genMix(machineForSeed(7), progs, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	c, _ := genMix(machineForSeed(8), progs, false)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same mix")
	}

	shape := func(blocks [][blockLen]submission) map[string]int {
		m := map[string]int{}
		for _, bl := range blocks {
			for _, s := range bl[:2] {
				m[fmt.Sprint(s.point)]++
			}
		}
		return m
	}
	if !reflect.DeepEqual(shape(a), shape(c)) {
		t.Error("seeds 7 and 8 submit different sets of specs: their work is not comparable")
	}

	seen := map[string]bool{}
	again, total := 0, 0
	for _, bl := range a {
		for k, s := range bl {
			total++
			spec, err := svc.DecodeSpec(s.body)
			if err != nil {
				t.Fatalf("submission does not decode: %v", err)
			}
			if err := spec.Validate(mixMaxRanks); err != nil {
				t.Fatalf("submission fails JobSpec.Validate: %v", err)
			}
			if s.again {
				again++
				if k != 2 || s.index != bl[0].index {
					t.Fatalf("repeat %d does not close its block by asking the first spec again", s.index)
				}
				continue
			}
			if h := spec.Hash(); seen[h] {
				t.Fatalf("spec %d is not distinct", s.index)
			} else {
				seen[h] = true
			}
		}
	}
	if total != 63 || again*3 != total {
		t.Errorf("%d submissions, %d repeats: want 63 with exactly a third repeated", total, again)
	}
}

// BENCHMARK.json is written by hand to the builder's contract; the
// harness's tables must agree with it.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, listed []benchMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, l, d)
			}
			if !nameRE.MatchString(l.Name) || !unitRE.MatchString(l.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the contract's alphabet", kind, i, l.Name, l.Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	sawSetup := false
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower better")
	}
	// The driver's list is the head of the harness's: what its time cap
	// has room for.
	if len(bj.Workloads) > len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload's two passes through the real binaries
// at tiny sizes: 64 ranks, one op, nine jobs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/mpisim and cmd/mpisimd")
	}
	out := t.TempDir()
	cmd := exec.Command("go", "run", "./bench", "-smoke", "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./bench -smoke: %v\n%s\n%s", err, stdout, stderr.Bytes())
	}
	for _, w := range workloads {
		for _, pass := range []string{" (trace 0): correct=true", " (trace 1): correct=true"} {
			if !strings.Contains(string(stdout), w.name+pass) {
				t.Errorf("output lacks %q", w.name+pass)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
			t.Errorf("no span file: %v", err)
		}
	}
	if strings.Contains(string(stdout), "PROBLEM") {
		t.Errorf("smoke run reported problems:\n%s", stdout)
	}
}
