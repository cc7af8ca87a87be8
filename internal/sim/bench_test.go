package sim

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"mpisim/internal/obs"
)

// The BenchmarkKernel* suite measures raw kernel throughput (events/sec)
// and steady-state allocation behaviour (allocs/event) across the
// engine and protocol axes at 16 to 65536 target processes (the
// top row is gated behind MPISIM_BENCH_LARGE so routine runs stay fast).
// scripts/bench_kernel.sh runs it and records the results in
// BENCH_kernel.json so the performance trajectory is tracked across PRs.
//
// The workloads are handler chains (cont.go), as every process of a
// prediction is. What a blocking body costs over one is recorded once, in
// EXPERIMENTS.md "Host cost of rank scheduling".

// benchSpawner populates a kernel with the workload's processes.
type benchSpawner func(k *Kernel, procs, rounds int, latency Time)

// contExch is a neighbour-exchange process: every round it does local
// computation, sends to its successor and waits for its predecessor,
// recycling each received message. Fully deterministic,
// communication-dominated — the kernel hot path is the entire cost.
// The bound handler is cached in self so returning it allocates nothing.
type contExch struct {
	n, rounds, r int
	latency      Time
	self         Cont
}

func (c *contExch) step(p *Proc, m *Message) Cont {
	if m != nil {
		p.FreeMessage(m)
		c.r++
		if c.r == c.rounds {
			return nil
		}
	}
	p.Advance(1e-7)
	p.Send((p.ID()+1)%c.n, nil, 64, p.Now()+c.latency)
	p.WaitRecv(Any, Any)
	return c.self
}

func spawnExch(k *Kernel, procs, rounds int, latency Time) {
	for j := 0; j < procs; j++ {
		c := &contExch{n: procs, rounds: rounds, latency: latency}
		c.self = c.step
		k.SpawnCont("p", c.self)
	}
}

// Fan-in: a same-time gather where, every round, all senders deliver to
// one receiver at an identical timestamp. This is the same-time wake
// batching fast path: the first matching delivery resumes the receiver
// and the rest of the batch goes straight to its mailbox, so subsequent
// receives complete inline. The receiver is the highest process id
// because batching only absorbs senders ordered at or before the
// receiver in the deterministic (time, proc, seq) order.

type contFanSend struct {
	recv, rounds, r int
	latency         Time
	self            Cont
}

func (c *contFanSend) step(p *Proc, _ *Message) Cont {
	t := Time(c.r) * 1e-3 // pace the rounds: bounded in-flight messages
	p.Send(c.recv, nil, 8, t+c.latency)
	c.r++
	if c.r == c.rounds {
		return nil
	}
	p.WaitSleep(Time(c.r) * 1e-3)
	return c.self
}

type contFanRecv struct {
	remaining int
	self      Cont
}

func (c *contFanRecv) step(p *Proc, m *Message) Cont {
	if m != nil {
		p.FreeMessage(m)
		c.remaining--
		if c.remaining == 0 {
			return nil
		}
	}
	p.WaitRecv(Any, Any)
	return c.self
}

func spawnFanIn(k *Kernel, procs, rounds int, latency Time) {
	for j := 0; j < procs-1; j++ {
		c := &contFanSend{recv: procs - 1, rounds: rounds, latency: latency}
		c.self = c.step
		k.SpawnCont("p", c.self)
	}
	r := &contFanRecv{remaining: (procs - 1) * rounds}
	r.self = r.step
	k.SpawnCont("p", r.self)
}

// benchEventTarget is the approximate number of kernel events per
// benchmark iteration; rounds are scaled down as the process count grows
// so every configuration does comparable work.
const benchEventTarget = 1 << 18

// benchAllocCeiling asserts the allocation budget: steady-state event
// processing must stay essentially allocation-free, with a per-process
// term covering per-run setup (Proc handles, workload state, slot and
// slab sizing, pool warm-up) that amortizes away as rounds grow.
func benchAllocCeiling(b *testing.B, allocs uint64, events int64, procs int) {
	ceiling := 0.05*float64(events) + 24*float64(procs)*float64(b.N)
	if float64(allocs) > ceiling {
		b.Errorf("allocs = %d over ceiling %.0f (events=%d procs=%d N=%d)",
			allocs, ceiling, events, procs, b.N)
	}
}

func benchKernel(b *testing.B, procs, workers int, proto Protocol) {
	benchKernelBody(b, procs, workers, proto, spawnExch)
}

func benchKernelBody(b *testing.B, procs, workers int, proto Protocol,
	spawn benchSpawner, mutate ...func(*Config)) {
	const latency = Time(1e-6)
	rounds := benchEventTarget / procs
	if rounds < 1 {
		rounds = 1
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Workers: workers, Protocol: proto}
		if workers > 1 {
			cfg.Lookahead = latency
			cfg.RealParallel = true
		}
		for _, m := range mutate {
			m(&cfg)
		}
		k, err := NewKernel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		spawn(k, procs, rounds, latency)
		res, err := k.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	// Mallocs delta over the whole measured region: includes per-run
	// setup (Spawn, workload state), so this is an honest upper bound on
	// the steady-state allocation rate.
	allocs := ms.Mallocs - startMallocs
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
	benchAllocCeiling(b, allocs, events, procs)
}

// benchProcCounts returns the process-count axis. The 65536 row models
// the 100k-rank regime and takes long enough that it only runs when
// MPISIM_BENCH_LARGE is set (scripts/bench_kernel.sh sets it when
// recording; CI leaves it unset on the short path).
func benchProcCounts() []int {
	sizes := []int{16, 256, 4096, 16384}
	if os.Getenv("MPISIM_BENCH_LARGE") != "" {
		sizes = append(sizes, 65536)
	}
	return sizes
}

func benchSizes(b *testing.B, workers int, proto Protocol) {
	for _, procs := range benchProcCounts() {
		procs := procs
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchKernel(b, procs, workers, proto)
		})
	}
}

// BenchmarkKernelSequential: the sequential engine (single worker).
func BenchmarkKernelSequential(b *testing.B) { benchSizes(b, 1, ProtocolWindow) }

// BenchmarkKernelFanIn: the sequential engine on the same-time gather
// workload, where same-time wake batching applies.
func BenchmarkKernelFanIn(b *testing.B) {
	for _, procs := range benchProcCounts() {
		procs := procs
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchKernelBody(b, procs, 1, ProtocolWindow, spawnFanIn)
		})
	}
}

// BenchmarkKernelWindow: conservative time-window protocol, 4 workers on
// real goroutines.
func BenchmarkKernelWindow(b *testing.B) { benchSizes(b, 4, ProtocolWindow) }

// BenchmarkKernelNullMessage: null-message protocol, 4 workers on real
// goroutines.
func BenchmarkKernelNullMessage(b *testing.B) { benchSizes(b, 4, ProtocolNullMessage) }

// BenchmarkKernelObs measures the observability plane's cost on the
// sequential engine at 256 processes. "off" is the paired baseline
// (Config.Metrics nil, so every hook is one nil check); "disabled"
// attaches a registry with recording switched off; "metrics" records.
// scripts/ci.sh gates off/metrics against each other, and
// scripts/bench_kernel.sh -check gates "off" against BENCH_kernel.json.
func BenchmarkKernelObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch)
	})
	b.Run("disabled", func(b *testing.B) {
		reg := obs.NewRegistry(1)
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) { cfg.Metrics = reg })
	})
	b.Run("metrics", func(b *testing.B) {
		reg := obs.NewRegistry(1)
		reg.SetEnabled(true)
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) { cfg.Metrics = reg })
	})
}

// BenchmarkKernelTelemetry measures the live-telemetry plane's cost on
// the sequential engine at 256 processes. "off" is the paired baseline:
// a recording registry but no timeline/run-info, so the telemetry hook
// in obsSample is one nil check. "disabled" attaches a timeline that is
// switched off (setupObs drops it, so the cost must equal "off");
// "armed" samples the timeline at a production cadence and heartbeats a
// RunInfo. scripts/ci.sh gates armed within 2% and disabled within 0.5%
// of off in the same process.
func BenchmarkKernelTelemetry(b *testing.B) {
	reg := func() *obs.Registry {
		r := obs.NewRegistry(1)
		r.SetEnabled(true)
		return r
	}
	b.Run("off", func(b *testing.B) {
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) { cfg.Metrics = reg() })
	})
	b.Run("disabled", func(b *testing.B) {
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) {
				cfg.Metrics = reg()
				cfg.Timeline = obs.NewTimeline(nil, obs.TimelineOptions{})
				cfg.RunInfo = nil
			})
	})
	b.Run("armed", func(b *testing.B) {
		tl := obs.NewTimeline(nil, obs.TimelineOptions{})
		tl.SetEnabled(true)
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) {
				cfg.Metrics = reg()
				cfg.Timeline = tl
				cfg.RunInfo = obs.NewRunInfo()
			})
	})
}

// BenchmarkKernelGuard measures the run-limit guard's cost on the
// sequential engine at 256 processes. "off" is the fault/guard layer
// disabled (Config.Limits zero, so the hot loop pays two nil checks per
// event); "armed" arms the watchdog and an unreachable event budget, so
// guardTick runs on every event without ever tripping. scripts/ci.sh
// gates "off" against the recorded BENCH_kernel.json at 2% and "armed"
// against "off" in the same process.
func BenchmarkKernelGuard(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch)
	})
	b.Run("armed", func(b *testing.B) {
		benchKernelBody(b, 256, 1, ProtocolWindow, spawnExch,
			func(cfg *Config) {
				cfg.Limits = Limits{MaxEvents: 1 << 60, StallEvents: 1 << 40}
			})
	})
}

// BenchmarkKernelWorkers sweeps the worker count at a fixed process
// count, exercising the O(W) safeBounds and the sorted outbox merge.
func BenchmarkKernelWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchKernel(b, 1024, workers, ProtocolWindow)
		})
	}
}
