package sim

import (
	"strings"
	"testing"

	"mpisim/internal/obs"
)

// TestObsTotalsMatchResult checks that the flushed registry totals
// exactly equal the Result counters, and that instrumentation does not
// perturb the simulated result.
func TestObsTotalsMatchResult(t *testing.T) {
	ref := runKernel(t, Config{Workers: 1}, 8, ringProgram(8, 3, 1e-5))

	reg := obs.NewRegistry(4)
	reg.SetEnabled(true)
	cfg := Config{Workers: 4, Lookahead: 1e-5, RealParallel: true, Metrics: reg}
	res := runKernel(t, cfg, 8, ringProgram(8, 3, 1e-5))

	if res.EndTime != ref.EndTime {
		t.Fatalf("instrumented EndTime %v != uninstrumented %v", res.EndTime, ref.EndTime)
	}
	want := map[string]int64{
		"sim_events_total":             res.Events,
		"sim_messages_delivered_total": res.Delivered,
		"sim_cross_worker_total":       res.CrossWorker,
		"sim_windows_total":            res.Windows,
	}
	got := map[string]int64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = int64(s.Value)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
	// Every pooled message allocation is either a free-list hit or a pool
	// miss; the ring program sends one message per delivery.
	allocs := got["sim_pool_msg_hit_total"] + got["sim_pool_msg_miss_total"]
	if allocs != res.Delivered {
		t.Errorf("message pool hits+misses = %d, want %d delivered", allocs, res.Delivered)
	}
	// The ring processes are blocking bodies: Run starts a goroutine for
	// each, and its handler runs once for the start and once for every
	// message the body receives.
	if got["sim_goroutine_fallbacks_total"] != 8 {
		t.Errorf("sim_goroutine_fallbacks_total = %d, want 8", got["sim_goroutine_fallbacks_total"])
	}
	if want := 8 + res.Delivered; got["sim_continuations_total"] != want {
		t.Errorf("sim_continuations_total = %d, want %d", got["sim_continuations_total"], want)
	}
	// Cross-worker traffic went through barrier batches: the byte counter
	// must account for exactly the cross-worker events.
	if wantB := res.CrossWorker * eventBytes; got["sim_xworker_batch_bytes"] != wantB {
		t.Errorf("sim_xworker_batch_bytes = %d, want %d", got["sim_xworker_batch_bytes"], wantB)
	}
}

// TestObsDisabledRegistryStaysZero: a registry that is attached but not
// enabled must record nothing, while the simulation still completes.
func TestObsDisabledRegistryStaysZero(t *testing.T) {
	reg := obs.NewRegistry(1)
	res := runKernel(t, Config{Workers: 1, Metrics: reg}, 4, ringProgram(4, 2, 1e-5))
	if res.Events == 0 {
		t.Fatal("simulation processed no events")
	}
	for _, s := range reg.Snapshot() {
		if s.Value != 0 || s.Count != 0 {
			t.Errorf("disabled registry metric %s recorded value=%g count=%d", s.Name, s.Value, s.Count)
		}
	}
}

// TestObsTracerEmitsSimulatorPlane: an enabled tracer attached to the
// kernel yields worker metadata and sampled counter tracks on the
// simulator plane.
func TestObsTracerEmitsSimulatorPlane(t *testing.T) {
	var sb strings.Builder
	tr := obs.NewTracer(obs.NewJSONLSink(&sb))
	cfg := Config{Workers: 2, Lookahead: 1e-6, Tracer: tr}
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) {
			id := p.ID()
			// Enough traffic for at least two sample points per worker
			// (the wallclock-rate track needs a previous sample).
			for r := 0; r < 400; r++ {
				p.Send((id+1)%n, nil, 8, p.Now()+1e-6)
				p.RecvSrcTag(Any, Any)
				p.Advance(1e-7)
			}
		})
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"name":"worker 0"`) {
		t.Errorf("missing worker 0 metadata track:\n%.400s", out)
	}
	if !strings.Contains(out, `"name":"queue_depth"`) {
		t.Errorf("missing sampled queue_depth counter track:\n%.400s", out)
	}
	if !strings.Contains(out, `"name":"wall_ns_per_virtual_s"`) {
		t.Errorf("missing wall_ns_per_virtual_s counter track:\n%.400s", out)
	}
}
