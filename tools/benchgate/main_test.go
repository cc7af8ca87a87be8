package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	lines := []string{
		"goos: linux",
		"BenchmarkKernelObs/off-8    3  102637211 ns/op  0.006273 allocs/event  2556578 events/sec",
		"BenchmarkKernelObs/disabled-8  3  103826099 ns/op  0.006327 allocs/event  2527303 events/sec",
		"BenchmarkNoMetric-8  10  12345 ns/op",
		"PASS",
	}
	got := parseBench(lines)
	if len(got) != 2 {
		t.Fatalf("parsed %d entries, want 2: %v", len(got), got)
	}
	if got["BenchmarkKernelObs/off"] != 2556578 {
		t.Errorf("off = %g, want 2556578 (cpu suffix must be stripped)", got["BenchmarkKernelObs/off"])
	}
	if _, ok := got["BenchmarkNoMetric"]; ok {
		t.Error("benchmark without events/sec must be ignored")
	}
}

func TestParseBenchBestOfN(t *testing.T) {
	// `go test -count N` repeats each benchmark; the best run wins.
	lines := []string{
		"BenchmarkKernelGuard/off-8  3  110000000 ns/op  2400000 events/sec",
		"BenchmarkKernelGuard/off-8  3  100000000 ns/op  2600000 events/sec",
		"BenchmarkKernelGuard/off-8  3  105000000 ns/op  2500000 events/sec",
	}
	got := parseBench(lines)
	if got["BenchmarkKernelGuard/off"] != 2600000 {
		t.Errorf("off = %g, want best-of-3 2600000", got["BenchmarkKernelGuard/off"])
	}
}

func TestPairListSet(t *testing.T) {
	var p pairList
	if err := p.Set("a,b,0.05"); err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0].base != "a" || p[0].other != "b" || p[0].frac != 0.05 {
		t.Fatalf("parsed pair = %+v", p)
	}
	for _, bad := range []string{"a,b", "a,b,x", "a,b,1.5", "a,b,0"} {
		if err := p.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestGateBaselineMissingRowsInformational(t *testing.T) {
	// The input ran a subset of the recorded rows (the env-gated
	// large-rank rows were skipped) plus one new row: neither direction
	// of mismatch may fail the gate; only a real regression does.
	got := map[string]float64{
		"BenchmarkKernelSequential/procs=4096": 900000,  // regressed
		"BenchmarkKernelSequential/procs=32":   5000000, // new, not recorded
	}
	entries := []baseEntry{
		{Name: "BenchmarkKernelSequential/procs=4096", EventsSec: 1000000},
		{Name: "BenchmarkKernelSequential/procs=65536", EventsSec: 2000000}, // not run
	}
	var sb strings.Builder
	if f := gateBaseline(&sb, got, entries, 0.20); f != 0 {
		t.Fatalf("failures = %d, want 0 (missing rows are informational):\n%s", f, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "procs=65536") || !strings.Contains(out, "not run (informational)") {
		t.Errorf("missing informational line for the unrun baseline row:\n%s", out)
	}
	if !strings.Contains(out, "not in baseline (new benchmark, not gated)") {
		t.Errorf("missing informational line for the new benchmark:\n%s", out)
	}
	if f := gateBaseline(&sb, got, entries, 0.05); f != 1 {
		t.Fatalf("failures = %d, want 1 at the 5%% threshold", f)
	}
}
