package check

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
)

// The per-rank path works over plan slots and the shared arena: what
// check.Run allocates is the plan, the compile result and the passes'
// tables, not a per-rank environment. The ceiling is two orders of
// magnitude under the ~3000 objects per rank of the map-based evaluator.
func TestRunAllocsPerRank(t *testing.T) {
	const ranks, perRank = 1024, 40
	spec := apps.Registry()["sweep3d"]
	p, inputs := spec.Build(), spec.Default(ranks)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(p, Options{Ranks: ranks, Inputs: inputs}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > perRank*ranks {
		t.Errorf("check.Run(sweep3d, %d ranks) allocates %.0f objects, %.1f per rank; ceiling %d per rank",
			ranks, allocs, allocs/ranks, perRank)
	}
}

// Traces are built on demand: a pass subset that consumes none evaluates
// no rank, whatever the rank count.
func TestTraceFreePassesEvaluateNoRank(t *testing.T) {
	const ranks = 65536
	spec := apps.Registry()["sweep3d"]
	start := time.Now()
	res, ctx, err := run(spec.Build(), Options{
		Ranks: ranks, Inputs: spec.Default(ranks), Passes: []string{"slice", "netconfig"},
	}, classMinRanks)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.evals != 0 || ctx.traces != nil {
		t.Errorf("slice+netconfig evaluated %d ranks (traces built: %v); want none", ctx.evals, ctx.traces != nil)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("trace-free check at %d ranks took %v; want well under a second", ranks, d)
	}
	if res.HasErrors() {
		t.Errorf("unexpected errors:\n%s", res.Text(Error))
	}
	// evals counts evaluator runs: every rank below classMinRanks, one per
	// rank class from there on (the other ranks are instantiated).
	for _, c := range []struct{ ranks, evals int }{{16, 16}, {64, 9}} {
		_, ctx, err = run(spec.Build(), Options{Ranks: c.ranks, Inputs: spec.Default(c.ranks), Passes: []string{"bounds"}}, classMinRanks)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.evals != c.evals {
			t.Errorf("bounds at %d ranks evaluated %d ranks; want %d", c.ranks, ctx.evals, c.evals)
		}
	}
}

func TestUnknownPassIsAnError(t *testing.T) {
	spec := apps.Registry()["tomcatv"]
	res, err := Run(spec.Build(), Options{Ranks: appRanks, Inputs: spec.Default(appRanks),
		Passes: []string{"deadlock", "deadlok"}})
	if err == nil {
		t.Fatalf("misspelt pass ran as a clean check: %+v", res)
	}
	for _, want := range []string{`"deadlok"`, "sendrecv", "netconfig"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// The worklist simulation must stop in the recorded stuck states: the
// wait-for text is what a user debugs from.
func TestStuckStatesReportTheRecordedCycle(t *testing.T) {
	divergent, inputs := mutantDivergentCollective(t, "tomcatv")
	cases := []struct {
		name   string
		prog   *ir.Program
		inputs map[string]float64
		sev    Severity
		msg    string
	}{
		{"recv-before-send ring", mutantRecvBeforeSendRing(), nil, Error,
			"deadlock: wait-for cycle rank 3 at RECV from 2 tag 5 (line 3) -> rank 2 at RECV from 1 tag 5 (line 3) -> " +
				"rank 1 at RECV from 0 tag 5 (line 3) -> rank 0 at RECV from 3 tag 5 (line 3) -> rank 3"},
		{"head-to-head send/send", mutantHeadToHead(), nil, Warning,
			"unsafe under synchronous sends: wait-for cycle rank 1 at SEND to 0 tag 9 (line 3) -> " +
				"rank 0 at SEND to 1 tag 9 (line 3) -> rank 1"},
		{"divergent collective", divergent, inputs, Error,
			"deadlock: wait-for cycle rank 1 at ALLREDUCE(max) rmax (line 61) -> " +
				"rank 0 at RECV from 1 tag 10 (line 31) -> rank 1"},
	}
	for _, c := range cases {
		res, err := Run(c.prog, Options{Ranks: appRanks, Inputs: c.inputs, Passes: []string{"deadlock"}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []Diagnostic
		for _, d := range res.Diags {
			if d.Pass == "deadlock" {
				got = append(got, d)
			}
		}
		if len(got) != 1 || got[0].Severity != c.sev || got[0].Message != c.msg {
			t.Errorf("%s: deadlock diagnostics\n got %v\nwant one %s: %s", c.name, got, c.sev, c.msg)
		}
	}
}

// Truncation is recorded once, while the arena is filled, however few
// ranks hit the budget: here two of four do, and sendrecv, deadlock and
// collective must degrade exactly as the golden corpus records.
func TestEdgePartlyTruncatedRun(t *testing.T) {
	const seed, maxOps = 7, 80
	p, inputs := budgetedProgram(seed)
	res, ctx, err := run(p, Options{Ranks: 4, Inputs: inputs, MaxOps: maxOps}, classMinRanks)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.Truncated() {
		t.Fatal("no rank hit the budget")
	}
	truncatedRanks := 0
	for _, d := range res.Diags {
		if d.Pass == "trace" && d.Severity == Warning {
			truncatedRanks++
		}
		if d.Severity == Error {
			t.Errorf("a truncated analysis reported an error: %s", d)
		}
	}
	if truncatedRanks != 2 {
		t.Errorf("%d ranks truncated; the case is meant to truncate 2 of 4", truncatedRanks)
	}
	text := res.Text(Warning)
	for _, want := range []string{
		"has no matching", "(analysis is approximate",
		"deadlock analysis is incomplete", "collective-consistency analysis is incomplete",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	raw, err := os.ReadFile(goldenPath("irgen_budget_007_4_maxops80"))
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Diags, want.Diags) {
		t.Errorf("diagnostics differ from the golden corpus:\n got %v\nwant %v", res.Diags, want.Diags)
	}
}
