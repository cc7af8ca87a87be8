package check

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/compiler"
	"mpisim/internal/ir"
	"mpisim/internal/irgen"
)

// The golden diagnostics corpus is the verifier's differential oracle:
// testdata/golden holds Result.JSON() for every case below as written by
// the map-based evaluator this package shipped with through PR 13, and
// the current evaluator must reproduce every file byte for byte
// (messages, lines, witness ranks, order). It stands in for keeping the
// old evaluator beside the new one.
//
//	go test ./internal/check -run TestGoldenCorpus -update
//
// rewrites the corpus; do that only for a deliberate change of
// diagnostics, and review the diff.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current evaluator")

type goldenCase struct {
	name string
	prog *ir.Program
	opts Options
}

// goldenRanks are the rank counts every registered app is recorded at
// (all squares, as nassp requires).
var goldenRanks = []int{4, 16, 64, 256, 1024}

const (
	goldenSeeds   = 200
	budgetedSeeds = 10
)

// budgetedMaxOps are analysis budgets tight enough to truncate the
// budgeted programs' traces: on all four ranks for most seeds, on two of
// four for seeds 6 (at 40), 7 and 9 (at 80).
var budgetedMaxOps = []int{40, 80}

func budgetedProgram(seed int64) (*ir.Program, map[string]float64) {
	return irgen.Program(seed, irgen.Config{MaxNests: 6, MaxTimeSteps: 12})
}

func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	add := func(name string, p *ir.Program, opts Options) {
		cases = append(cases, goldenCase{name, p, opts})
	}
	for _, name := range apps.Names() {
		spec := apps.Registry()[name]
		for _, ranks := range goldenRanks {
			add(fmt.Sprintf("app_%s_%d", name, ranks), spec.Build(),
				Options{Ranks: ranks, Inputs: spec.Default(ranks)})
		}
		// Unbound inputs: every degrade path (may-operations, unknown
		// trip counts, data-dependent peers).
		add(fmt.Sprintf("app_%s_4_unbound", name), spec.Build(), Options{Ranks: 4})
		add(fmt.Sprintf("app_%s_4_maxops50", name), spec.Build(),
			Options{Ranks: 4, Inputs: spec.Default(4), MaxOps: 50})
		// Compiler-emitted programs are checked on traces alone.
		comp, err := compiler.Compile(spec.Build())
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		add(fmt.Sprintf("simplified_%s_4", name), comp.Simplified, Options{Ranks: 4, Inputs: spec.Default(4)})
		add(fmt.Sprintf("timer_%s_4", name), comp.Timer, Options{Ranks: 4, Inputs: spec.Default(4)})
	}

	files, err := filepath.Glob("../../examples/programs/*.ir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		base := strings.TrimSuffix(filepath.Base(f), ".ir")
		for _, ranks := range []int{4, 16} {
			add(fmt.Sprintf("example_%s_%d", base, ranks), p,
				Options{Ranks: ranks, Inputs: map[string]float64{"N": 32, "STEPS": 2}})
		}
	}

	for _, ranks := range []int{4, 16} {
		addMut := func(name string, p *ir.Program, inputs map[string]float64) {
			add(fmt.Sprintf("mutant_%s_%d", name, ranks), p, Options{Ranks: ranks, Inputs: inputs})
		}
		p, in := mutantDroppedRecv(t)
		addMut("droppedrecv", p, in)
		p, in = mutantSkewedTag(t)
		addMut("skewedtag", p, in)
		p, in = mutantShrunkBuffer(t)
		addMut("shrunkbuffer", p, in)
		for _, app := range []string{"tomcatv", "sweep3d"} {
			p, in = mutantDivergentCollective(t, app)
			addMut("divergent_"+app, p, in)
		}
		addMut("recvbeforesend", mutantRecvBeforeSendRing(), nil)
		addMut("headtohead", mutantHeadToHead(), nil)
	}

	for seed := int64(0); seed < goldenSeeds; seed++ {
		p, inputs := irgen.Program(seed, irgen.Config{})
		ranks := []int{1, 3, 4, 16}[seed%4]
		add(fmt.Sprintf("irgen_%03d_%d", seed, ranks), p, Options{Ranks: ranks, Inputs: inputs})
	}
	for seed := int64(0); seed < budgetedSeeds; seed++ {
		p, inputs := budgetedProgram(seed)
		for _, maxOps := range budgetedMaxOps {
			add(fmt.Sprintf("irgen_budget_%03d_4_maxops%d", seed, maxOps), p,
				Options{Ranks: 4, Inputs: inputs, MaxOps: maxOps})
		}
	}
	return cases
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".json") }

func TestGoldenCorpus(t *testing.T) {
	cases := goldenCases(t)
	if *update {
		if err := os.RemoveAll(filepath.Join("testdata", "golden")); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		res, err := Run(c.prog, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, '\n')
		if *update {
			if err := os.WriteFile(goldenPath(c.name), got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Errorf("%s: %v (run with -update to record)", c.name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: diagnostics differ from the golden corpus\n--- want\n%s--- got\n%s", c.name, want, got)
		}
	}
	if !*update {
		files, _ := filepath.Glob(goldenPath("*"))
		if len(files) != len(cases) {
			t.Errorf("testdata/golden holds %d files for %d cases", len(files), len(cases))
		}
	}
}
