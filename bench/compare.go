package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the harness reads: the
// bounds live there and nowhere else.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON() (*benchmarkJSON, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// compare prints every end-to-end metric of every workload from two runs
// of the same commit side by side with its bound, and reports whether
// each pair agrees within it.
func compare(w io.Writer, a, b *resultSet) bool {
	bj, err := readBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return false
	}
	find := func(s *resultSet, workload string) *result {
		for _, r := range s.Results {
			if r.Workload == workload && r.Trace == 0 {
				return r
			}
		}
		return nil
	}
	ok := true
	fmt.Fprintf(w, "\n%-24s %-20s %14s %14s %8s %6s  verdict\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, wl := range workloads {
		ra, rb := find(a, wl.name), find(b, wl.name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-24s missing from a run\n", wl.name)
			ok = false
			continue
		}
		for _, m := range bj.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := "pass"
			if !(diff <= m.Bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-24s %-20s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		for _, r := range []*result{ra, rb} {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "%-24s failed_share %d/%d  FAIL\n", wl.name, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	return ok
}
