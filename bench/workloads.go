package main

import "strconv"

// workload is one row of the benchmark. The CLI workloads are one
// `mpisim` invocation per op; svc_mix is a job mix against `mpisimd`.
type workload struct {
	name, why string
	mode      string // "am" or "de" for compiled CLI workloads
	ranks     int
	nocheck   bool
	replay    bool // the op replays the trace recorded in set-up
	svc       bool
}

// The sizes make an op take about a second, so that a run of twenty-odd
// seconds holds twenty-odd ops: sweep3d's host cost is linear in the rank
// count and every layer's share of it is the same at 1k ranks as at 4k or
// 16k. BENCHMARK.json lists the workloads the driver's time cap has room
// for; am_sweep3d_16k_nocheck runs only in the full set.
var workloads = []workload{
	{name: "am_sweep3d_1k", mode: "am", ranks: 1024,
		why: "The paper's headline mode on the default path: the verifier does about three quarters of the work, so a change to internal/check must move it."},
	{name: "de_sweep3d_256", mode: "de", ranks: 256,
		why: "Same program and comm pattern, but interp executes the compute directly: uses interp the opposite way from AM, and the verifier is a tenth of it."},
	{name: "replay_sweep3d_1k", mode: "am", ranks: 1024, replay: true,
		why: "The trace front door: no check, compiler or interp, so a change to those must not move it; tracein.Parse dominates wall and RSS, and set-up exercises the write side."},
	{name: "svc_mix", svc: true,
		why: "Many cheap what-if jobs against a live mpisimd, a third of them cache hits: per-job fixed cost (admission, journal, store, parse, compile, calibrate, net.Build) dominates."},
	{name: "am_sweep3d_16k_nocheck", mode: "am", ranks: 16384, nocheck: true,
		why: "Paper-scale rank count with the verifier bypassed: mpi rank bodies, sim scheduling and per-rank memory dominate. Too long an op for the driver's time cap: full set only."},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeRanks replaces every CLI workload's rank count under -smoke.
const smokeRanks = 64

// machines are the target-machine presets a seed chooses among for the
// CLI workloads. The machine changes every simulated time, and so the
// order ranks block and wake in, but not the event count or the host
// work, so runs at different seeds stay comparable. Seed 1 is the
// default machine.
var machines = []string{"ibmsp", "origin2000", "cluster"}

func machineForSeed(seed int) string {
	return machines[((seed-1)%len(machines)+len(machines))%len(machines)]
}

// sweep3dInputs is what every CLI workload passes as -inputs: the app's
// defaults, spelled out so the run does not depend on them.
const sweep3dInputs = "KT=40,MK=10"

// simArgs is the mpisim command line that simulates the workload's
// program directly (also used to record the replay trace in set-up).
func (w workload) simArgs(machine string) []string {
	args := []string{"-app", "sweep3d", "-mode", w.mode, "-ranks", strconv.Itoa(w.ranks),
		"-machine", machine, "-inputs", sweep3dInputs}
	if w.nocheck {
		args = append(args, "-nocheck")
	}
	return args
}

// opArgs is the command line of one measured op.
func (w workload) opArgs(machine, tracePath, artifactPath string) []string {
	if w.replay {
		return []string{"-tracein", tracePath, "-runjson", artifactPath}
	}
	return append(w.simArgs(machine), "-runjson", artifactPath)
}
