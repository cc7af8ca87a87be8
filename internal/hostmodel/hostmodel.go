// Package hostmodel estimates the running time of the simulator itself
// on a parallel host machine, reproducing the simulator-performance
// studies of the paper (§4.4, Figures 12-16).
//
// The paper measures MPI-Sim's own wall-clock on up to 64 IBM SP host
// processors. This container cannot run 64-way hosts, so the repository
// models the host cost explicitly from the kernel's event statistics:
// direct-executed computation runs at target speed times an
// instrumentation overhead factor, every kernel event and message costs
// fixed simulator overheads, and the conservative protocol charges a
// synchronization cost per time window that grows with the host count.
// The constants are calibrated so the paper's qualitative results hold:
// MPI-SIM-DE runs about twice as slow as the application it predicts,
// MPI-SIM-AM runs faster than the application, and parallel speedup
// saturates near 15 on 64 hosts for communication-bound workloads.
package hostmodel

import (
	"fmt"
	"math"

	"mpisim/internal/mpi"
)

// Params are the host-machine cost coefficients.
type Params struct {
	// ExecFactor multiplies direct-executed target computation: the
	// overhead of running application code inside the simulator (timer
	// trapping, scheduling). ~2 reproduces "MPI-SIM-DE is running about
	// twice slower than the application it is predicting".
	ExecFactor float64
	// EventCost is host seconds per kernel event (thread switch, heap
	// operation).
	EventCost float64
	// MessageCost is host seconds per simulated message (matching,
	// buffering, timestamp bookkeeping).
	MessageCost float64
	// ByteCost is host seconds per simulated message byte (the copy
	// through the simulated network buffers; both simulators move the
	// same byte counts, the optimized one through the dummy buffer).
	ByteCost float64
	// WindowBase is the per-window scheduling cost of the conservative
	// protocol, charged regardless of host count.
	WindowBase float64
	// WindowSync is the additional per-window cost per log2(hosts):
	// the barrier/null-message exchange.
	WindowSync float64
}

// Default returns coefficients calibrated for the paper-shape results.
// Experiments (figs 12-16) use these; they are pinned so regenerated
// results stay byte-identical across kernel optimizations.
func Default() Params {
	return Params{
		ExecFactor:  2.0,
		EventCost:   2e-5,
		MessageCost: 2e-5,
		ByteCost:    2.5e-9,
		WindowBase:  5e-7,
		WindowSync:  2e-6,
	}
}

// Workload summarizes one simulation run for host-cost purposes.
type Workload struct {
	// ExecSeconds is, per target rank, the directly executed target
	// computation (zero when the rank's computation was replaced by
	// delay calls).
	ExecSeconds []float64
	// Events is, per target rank, the kernel events it generated.
	Events []float64
	// Messages is, per target rank, messages sent plus received.
	Messages []float64
	// Bytes is, per target rank, message bytes sent plus received.
	Bytes []float64
	// Blocked is, per target rank, simulated time spent blocked in
	// receives. For direct-execution workloads it drives the
	// critical-path floor: a host cannot process a rank's receive before
	// the upstream rank's computation has been executed (at ExecFactor
	// speed), so pipeline stalls are replayed by the simulator.
	Blocked []float64
	// DirectExec records whether computation was directly executed. Only
	// then does blocked time imply host-side stalls; under the
	// analytical model upstream "computation" is a delay call that costs
	// the host nothing.
	DirectExec bool
	// SimTime is the simulated end time.
	SimTime float64
	// Lookahead is the conservative window width (the network's minimum
	// latency).
	Lookahead float64
}

// FromReport extracts a workload from a simulation report. directExec
// states whether the run executed computation directly (measured/DE) or
// through delay calls (AM): delays cost the simulator nothing beyond
// their events.
func FromReport(rep *mpi.Report, directExec bool, lookahead float64) Workload {
	n := len(rep.Ranks)
	w := Workload{
		ExecSeconds: make([]float64, n),
		Events:      make([]float64, n),
		Messages:    make([]float64, n),
		Bytes:       make([]float64, n),
		Blocked:     make([]float64, n),
		SimTime:     rep.Time,
		Lookahead:   lookahead,
		DirectExec:  directExec,
	}
	for i, rs := range rep.Ranks {
		if directExec {
			w.ExecSeconds[i] = float64(rs.ComputeTime - rs.DelayTime)
		}
		w.Messages[i] = float64(rs.MsgsSent + rs.MsgsRecvd)
		w.Bytes[i] = float64(rs.BytesSent + rs.BytesRecvd)
		w.Blocked[i] = float64(rs.BlockedTime)
		// start event + one deliver per received message.
		w.Events[i] = 1 + float64(rs.MsgsRecvd)
	}
	return w
}

// Ranks returns the number of target ranks in the workload.
func (w Workload) Ranks() int { return len(w.ExecSeconds) }

// rankCost is the host time to simulate one target rank's activity.
func (p Params) rankCost(w Workload, i int) float64 {
	c := w.ExecSeconds[i]*p.ExecFactor +
		w.Events[i]*p.EventCost +
		w.Messages[i]*p.MessageCost
	if i < len(w.Bytes) {
		c += w.Bytes[i] * p.ByteCost
	}
	return c
}

// Runtime estimates the simulator's wall-clock on the given number of
// host processors. Target ranks are block-assigned to hosts as the
// kernel does; the runtime is the maximum per-host load plus the
// synchronization cost of the conservative windows.
func (p Params) Runtime(w Workload, hosts int) (float64, error) {
	n := w.Ranks()
	if n == 0 {
		return 0, fmt.Errorf("hostmodel: empty workload")
	}
	if hosts < 1 {
		return 0, fmt.Errorf("hostmodel: hosts must be >= 1, got %d", hosts)
	}
	if hosts > n {
		hosts = n
	}
	loads := make([]float64, hosts)
	for i := 0; i < n; i++ {
		loads[i*hosts/n] += p.rankCost(w, i)
	}
	maxLoad := 0.0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	floor := p.criticalPathFloor(w)
	if maxLoad < floor {
		maxLoad = floor
	}
	if hosts == 1 {
		return maxLoad, nil
	}
	windows := 1.0
	if w.Lookahead > 0 {
		windows = math.Max(1, w.SimTime/w.Lookahead)
	}
	sync := windows * (p.WindowBase + p.WindowSync*math.Log2(float64(hosts)))
	return maxLoad + sync, nil
}

// criticalPathFloor bounds the runtime of a direct-execution simulation
// from below: the last-finishing rank's executed computation plus its
// compute-induced stalls (blocked time minus the pure network latency of
// its messages) must be replayed at ExecFactor speed regardless of host
// count. Analytical-model workloads have no such floor; their upstream
// work is delay calls.
func (p Params) criticalPathFloor(w Workload) float64 {
	if !w.DirectExec {
		return 0
	}
	floor := 0.0
	for i := range w.ExecSeconds {
		stall := 0.0
		if i < len(w.Blocked) {
			stall = w.Blocked[i]
			if i < len(w.Messages) {
				stall -= w.Messages[i] * w.Lookahead
			}
			if stall < 0 {
				stall = 0
			}
		}
		if c := p.ExecFactor * (w.ExecSeconds[i] + stall); c > floor {
			floor = c
		}
	}
	return floor
}

// WallPerVirtualSecond predicts the simulator's host wall-clock cost per
// simulated second: Runtime over the workload's simulated end time. It
// is the model-side counterpart of the kernel's sim_wall_ns_per_virtual_s
// gauge (internal/obs), which samples the same ratio from a live run —
// comparing the two calibrates the host model against reality.
func (p Params) WallPerVirtualSecond(w Workload, hosts int) (float64, error) {
	if w.SimTime <= 0 {
		return 0, fmt.Errorf("hostmodel: non-positive simulated time %g", w.SimTime)
	}
	rt, err := p.Runtime(w, hosts)
	if err != nil {
		return 0, err
	}
	return rt / w.SimTime, nil
}

// Speedup returns Runtime(1 host) / Runtime(hosts).
func (p Params) Speedup(w Workload, hosts int) (float64, error) {
	t1, err := p.Runtime(w, 1)
	if err != nil {
		return 0, err
	}
	th, err := p.Runtime(w, hosts)
	if err != nil {
		return 0, err
	}
	if th == 0 {
		return 0, fmt.Errorf("hostmodel: zero parallel runtime")
	}
	return t1 / th, nil
}
