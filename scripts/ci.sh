#!/bin/sh
# ci.sh — the full verification gate, runnable from a clean checkout:
#
#   1. gofmt enforcement over the tree
#   2. tier-1 build + tests (go build ./... && go test ./...), which
#      include the CLI golden corpus (cmd/mpisim/testdata/golden) and the
#      front-door equivalence rows of internal/svc's TestCachedVsFresh
#   3. go vet
#   4. race detector over the concurrent packages (sim kernel — the
#      blocking-body adapter's contract test, body_test.go, included —
#      MPI layer, observability registry, kernel core, interpreter — and
#      the verifier's class differential in its short form)
#   5. simvet self-check: the simulator's own static-analysis suite
#      (contsafe, detpure, slabref, msgown) — unit + golden corpus
#      tests for the analyzers, then the suite over ./... with zero
#      non-suppressed diagnostics required and a per-rule count summary;
#      and one scheduler: the names of the carrier-goroutine path may
#      not reappear in a non-test .go file
#   6. mpicheck over every registered app and every examples/programs/*.ir
#   7. golden trace-export tests (Chrome trace_event + JSONL formats)
#   8. observability overhead gate: the kernel with a disabled metrics
#      registry attached must stay within 5% of the bare kernel
#   9. telemetry overhead gate: timeline disabled within 0.5% of off,
#      armed (production cadence + RunInfo heartbeats) within 2%, both
#      within-run pairs; then an HTTP smoke over every live endpoint
#      (/healthz /run /series /events, JSON/SSE validated by
#      tools/obsprobe) and a profiler smoke (mpisim -profile output must
#      parse with go tool pprof)
#  10. verifier budget: the default-on static verifier may add at most
#      0.25x the unchecked prediction's wall to it — mpisim -app sweep3d
#      -mode am -ranks 4096 default vs -nocheck, best of three alternating
#      runs each (within-run pair) — and at most 1.3x its peak RSS at
#      16,384 ranks (VmHWM, polled, least of three alternating runs
#      each); and the trace door's budget beside
#      it: that run's recorded trace — v2, one call stream per rank class
#      — must be at most 4 MiB (the daemon's inline cap), and mpisim
#      -tracein of it, parse included, may take at most 1.25x the
#      -nocheck run's wall; and the interpreter's:
#      mpisim -app sweep3d -mode de -ranks 256 may take at most 1.25x the
#      wall of that -tracein (best of three alternating; a wall not read
#      fails it); every rank of a prediction is a
#      handler chain and no body goroutine is started: mpisim -metrics for
#      sweep3d -mode am, -mode de and -tracein must report
#      sim_goroutine_fallbacks_total 0 and sim_continuations_total ==
#      sim_events_total; class-native AM's count gate: mpisim -app
#      sweep3d -mode am -ranks 1024 -metrics executes at most 16 ranks
#      (interp_ranks_executed_total; nine classes); and the whole stack
#      over the kernel: -mode am -ranks 16384 -nocheck must reach a
#      fifth of BenchmarkKernelSequential/procs=16384's events/sec,
#      best of five alternating runs each; under MPISIM_BENCH_LARGE, the
#      scale row: wall and peak RSS of a 262,144-rank AM prediction
#  11. trace frontend gate: record → replay round-trip and weak-scaling
#      extrapolation tests (bit-exact replay, sched-equivalence across
#      engines), the fold's differential (expanding the class streams
#      gives back every rank's calls), the recorded traces of the CLI
#      golden corpus (each one Write's form of itself, and its counts
#      those the run printed), every examples/traces/*.jsonl (v1, read as
#      the identity class map) replayed and extrapolated through mpisim
#      and attributed with mpireport
#  12. service gates: determinism (cached vs fresh artifacts
#      byte-identical, the cache index rebuilt from the journal) and
#      crash recovery (kill mid-run, restart under both policies,
#      orphaned-artifact sweep) tests over internal/svc
#  13. daemon smoke: boot mpisimd on a scratch directory, submit with
#      simdctl, poll to done, fetch the artifact, resubmit and require
#      the cached answer byte-identical, probe the per-job obs plane,
#      submit a recorded trace with simdctl -trace (replay artifact +
#      content-addressed cache hit), then SIGTERM with a job still
#      running and require a graceful drain (clean exit 0, abort
#      journaled); in between, while the daemon is up, front-door
#      identity: the same sweep3d AM spec through mpisim -runjson and
#      through simdctl submit must yield byte-identical artifacts (both
#      doors are translations onto core.Prepare/Plan.Run), for a complete
#      run and for one its event budget stops
#  14. fault determinism gate: same fault seed -> byte-identical report,
#      across host worker counts
#  15. fuzz smoke: 10s of randomized fault schedules against the kernel
#      and MPI layer, 10s of hostile job-submission bodies against the
#      daemon's decoder, 10s of malformed JSONL against the trace
#      parser (no panics, every rejection line-anchored, malformed input
#      never enqueues; the hand-written scanner and append writer held to
#      the reference encoding/json codec on every input), and 10s of
#      arbitrary text against the expression parser (no panics; what it
#      accepts prints to text that parses back to the same print), and
#      10s of generated programs (irgen seeds, the access, counting and
#      row shapes on) held to the interpreter's reference evaluator
#  16. fault-layer overhead gate: with the watchdog armed the kernel must
#      stay within 15% of the guard-disabled kernel measured in the same
#      process (within-run pair, immune to host drift)
#  17. network determinism gate: topology-aware runs (bus, torus,
#      fat-tree) are byte-identical across host worker counts
#  18. example network configs: every examples/networks/*.json passes
#      the mpicheck netconfig pass
#  19. network overhead gate: flat topology (the seed-compatible fast
#      path) must stay within 2% events/sec of topology-off measured in
#      the same runs
#  20. trace replay overhead gate: replaying a recorded trace must stay
#      within 25% events/sec of simulating the program directly, and
#      parsing the trace's bytes first within 2.5x of it, measured as
#      within-run pairs
#  21. kernel throughput gate: the full BenchmarkKernel suite (through
#      procs=16384 on the short path; KernelNet included) vs the recorded
#      BENCH_kernel.json at a 25% tolerance — best-of-3 samples of
#      identical code land ±20% apart across sessions on this host, so
#      the cross-session gate catches collapses, while the tight bounds
#      are the within-run pairs above. The procs=65536 rows are
#      nightly-only: set MPISIM_BENCH_LARGE=1 to run them; otherwise
#      benchgate reports them as informational.
#
# Usage: scripts/ci.sh
#        MPISIM_BENCH_LARGE=1 scripts/ci.sh   # nightly: include 65536 rows
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== build"
go build ./...

echo "== vet"
go vet ./...

echo "== tests"
go test ./...

echo "== race (sim kernel + MPI layer + observability + fault injection + network + core + interpreter + service + verifier)"
go test -race ./internal/sim/ ./internal/mpi/ ./internal/obs/ ./internal/fault/ ./internal/net/ ./internal/core/ ./internal/interp/ ./internal/svc/
# The verifier's class differential is CPU-bound, so its short form (40 of
# the 300 generated programs) under the detector.
go test -race -short ./internal/check/

echo "== simvet static-analysis suite"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
# The analyzers' own tests first: the flow-engine/allow unit tests and
# the seeded-violation golden corpus (each analyzer must catch every
# seeded bug and stay silent on the clean fixtures).
go test -count=1 ./tools/analyzers/simvet/...
go build -o "$bin/simvet" ./tools/analyzers/simvet
# The suite over the simulator itself: any non-suppressed diagnostic
# fails the gate (go vet exits non-zero when the tool reports).
simvet_out="$bin/simvet.out"
simvet_status=0
go vet -vettool="$bin/simvet" ./... 2>"$simvet_out" || simvet_status=$?
# Per-rule count summary, failing or not (empty on a clean tree).
awk -F'simvet/' '/simvet\//{split($2, a, ":"); n[a[1]]++}
     END{for (r in n) printf "simvet %s: %d\n", r, n[r]}' "$simvet_out" | sort
if [ "$simvet_status" -ne 0 ]; then
    cat "$simvet_out" >&2
    echo "simvet: non-suppressed diagnostics (see above)" >&2
    exit 1
fi
# One scheduler (ISSUE 21): the kernel runs handlers only, and a blocking
# body is an adapter over them (internal/sim/body.go). The second path
# must not come back by accretion.
if grep -rnE 'ForceGoroutine|contDriver|gworker|loopHandoff' --include='*.go' --exclude='*_test.go' .; then
    echo "one scheduler: a name of the carrier-goroutine path is back in non-test code (see above)" >&2
    exit 1
fi
echo "simvet: 0 non-suppressed diagnostics ($("$bin/simvet" -listrules | awk '/^  /{n++} END{print n}') rules)"

echo "== mpicheck: registered applications"
go build -o "$bin/mpicheck" ./cmd/mpicheck
"$bin/mpicheck" -all -min warning

echo "== mpicheck: example programs"
for f in examples/programs/*.ir; do
    "$bin/mpicheck" -file "$f" -inputs N=32,STEPS=2 -min warning
done

echo "== golden trace exports"
go test -count=1 -run 'Golden' ./internal/obs/ ./internal/trace/

# The overhead gates run the bench set several times in separate
# invocations and let benchgate keep the best events/sec per benchmark:
# interleaving the samples across time windows keeps a host-load burst
# from landing entirely on one side of a pair, so the tight thresholds
# reflect the code, not the noisiest single run. The tightest pairs
# (obs disabled 5%, net flat 2%) get five samples at 1s; a best-of-3 at
# 0.5s has been seen opening a fake 8% gap between identical code paths.
echo "== observability overhead gate"
go build -o "$bin/benchgate" ./tools/benchgate
{ for i in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkKernelObs' -benchtime 1s ./internal/sim/
done; } |
    "$bin/benchgate" \
        -pair "BenchmarkKernelObs/off,BenchmarkKernelObs/disabled,0.05" \
        -pair "BenchmarkKernelObs/off,BenchmarkKernelObs/metrics,0.15"

echo "== telemetry overhead gate"
# Timeline/RunInfo plane: "disabled" is dropped in setupObs, so it must
# be indistinguishable from "off" (0.5%); "armed" samples at the
# production cadence and must stay within 2%. Both pairs are within-run
# and take five interleaved samples like the other tight gates.
{ for i in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkKernelTelemetry' -benchtime 1s ./internal/sim/
done; } |
    "$bin/benchgate" \
        -pair "BenchmarkKernelTelemetry/off,BenchmarkKernelTelemetry/disabled,0.005" \
        -pair "BenchmarkKernelTelemetry/off,BenchmarkKernelTelemetry/armed,0.02"

echo "== telemetry HTTP smoke"
# Boot a short experiment with the telemetry server up, then hit every
# live endpoint and assert well-formed JSON (obsprobe); -obslinger keeps
# the server alive after the run so the probes cannot race completion.
go build -o "$bin/experiments" ./cmd/experiments
go build -o "$bin/obsprobe" ./tools/obsprobe
obsaddr=127.0.0.1:6074
"$bin/experiments" -id fig3 -obshttp "$obsaddr" -obslinger 15s >/dev/null 2>&1 &
exp_pid=$!
"$bin/obsprobe" -retry 5s -require status,state,heartbeat_age_ns "http://$obsaddr/healthz"
"$bin/obsprobe" -require state,percent,events "http://$obsaddr/run"
"$bin/obsprobe" -require points,next "http://$obsaddr/series?since=0"
"$bin/obsprobe" -sse "http://$obsaddr/events"
kill "$exp_pid" 2>/dev/null || true
wait "$exp_pid" 2>/dev/null || true
echo "telemetry HTTP smoke: /healthz /run /series /events OK"

echo "== virtual-time profiler smoke"
# The profile an mpisim run emits must parse with the real consumer.
go build -o "$bin/mpisim" ./cmd/mpisim
"$bin/mpisim" -app sweep3d -mode am -ranks 16 -profile "$bin/prof.pb.gz" >/dev/null
go tool pprof -top -nodecount=5 "$bin/prof.pb.gz" >/dev/null
echo "profiler smoke: go tool pprof parsed $bin/prof.pb.gz"

echo "== verifier budget (default vs -nocheck, within-run pair)"
# The verifier is on by default, so its cost is part of every prediction.
# Both sides run in this invocation, alternating, and the best of three
# is compared: fail when (default - nocheck) > 0.25 x nocheck, ROADMAP's
# budget. Measured 0.2-0.25x with rank classes (one evaluation per class
# of ranks, PR 22), 0.47x per rank before them, 4.4x before the
# plan-compiled evaluator; 0.11-0.34x once AM replays class streams; see
# EXPERIMENTS.md "The verifier at class size" for the reading once the
# arena holds one window per class.
wall_ms() {
    t0=$(date +%s%N)
    "$bin/mpisim" -app sweep3d "$@" >/dev/null
    echo $(( ($(date +%s%N) - t0) / 1000000 ))
}
checked=999999
unchecked=999999
for i in 1 2 3; do
    ms=$(wall_ms -mode am -ranks 4096); [ "$ms" -lt "$checked" ] && checked=$ms
    ms=$(wall_ms -mode am -ranks 4096 -nocheck); [ "$ms" -lt "$unchecked" ] && unchecked=$ms
done
echo "verifier budget: default ${checked} ms, -nocheck ${unchecked} ms"
if [ "$checked" -eq 999999 ] || [ "$unchecked" -eq 999999 ]; then
    echo "verifier budget: a wall could not be read" >&2
    exit 1
fi
if [ $(( (checked - unchecked) * 100 )) -gt $(( unchecked * 25 )) ]; then
    echo "verifier budget: the verifier adds more than 0.25x the unchecked wall" >&2
    exit 1
fi
# Its memory budget: at 16,384 ranks the verifier holds a window per rank
# class, not a trace per rank, so the default path's peak RSS may be at
# most 1.3x the unchecked one's (2.3x while it held a trace per rank).
peak_kb() {
    "$bin/mpisim" -app sweep3d -mode am -ranks 16384 "$@" >/dev/null &
    peak_pid=$!
    peak=0
    while kill -0 "$peak_pid" 2>/dev/null; do
        kb=$(awk '/^VmHWM/ { print $2 }' "/proc/$peak_pid/status" 2>/dev/null || true)
        [ -n "$kb" ] && peak=$kb
        sleep 0.05
    done
    wait "$peak_pid"
    echo "$peak"
}
checked_kb=999999999
unchecked_kb=999999999
for i in 1 2 3; do
    kb=$(peak_kb); [ "$kb" -gt 0 ] && [ "$kb" -lt "$checked_kb" ] && checked_kb=$kb
    kb=$(peak_kb -nocheck); [ "$kb" -gt 0 ] && [ "$kb" -lt "$unchecked_kb" ] && unchecked_kb=$kb
done
echo "verifier memory budget: default ${checked_kb} kB, -nocheck ${unchecked_kb} kB peak RSS at 16384 ranks"
if [ "$checked_kb" -eq 999999999 ] || [ "$unchecked_kb" -eq 999999999 ]; then
    echo "verifier memory budget: a peak RSS could not be read" >&2
    exit 1
fi
if [ $(( checked_kb * 10 )) -gt $(( unchecked_kb * 13 )) ]; then
    echo "verifier memory budget: the default path peaks above 1.3x the unchecked one" >&2
    exit 1
fi
# The trace door's budget, on the same configuration and the same
# best-of-three: the run's own recording must fit the daemon's 4 MiB
# inline cap, and replaying it from the file may take at most 1.25x the
# unchecked program door, which runs the same simulation from the same
# class streams (DESIGN.md "Class-native AM"): 0.81-1.02x in seven
# sessions. Until the program door replayed classes the bar was 0.75x the
# checked direct run (0.41-0.53x then, 0.68-0.78x since); in four of
# those sessions that old bar came to 1.26-1.63x the unchecked
# class-native wall, so 1.25x is no looser than it was. A v2 trace
# holds one call stream per rank class (nine here): 103 KB; the per-rank
# v1 form was 61 MB, the reflective decoder before it 4-5x the direct
# run.
"$bin/mpisim" -app sweep3d -mode am -ranks 4096 -nocheck -record "$bin/sweep4k.jsonl" >/dev/null
size=$(wc -c <"$bin/sweep4k.jsonl" 2>/dev/null || true)
echo "trace size: ${size:-unreadable} bytes at 4096 ranks"
if [ -z "$size" ] || [ "$size" -gt $(( 4 << 20 )) ]; then
    echo "trace size: the recorded 4096-rank trace is over 4 MiB, or its size could not be read" >&2
    exit 1
fi
replay_ms() {
    t0=$(date +%s%N)
    "$bin/mpisim" -tracein "$bin/sweep4k.jsonl" >/dev/null
    echo $(( ($(date +%s%N) - t0) / 1000000 ))
}
replayed=999999
for i in 1 2 3; do
    ms=$(replay_ms); [ "$ms" -lt "$replayed" ] && replayed=$ms
done
echo "replay budget: -tracein ${replayed} ms vs -nocheck ${unchecked} ms"
if [ "$replayed" -eq 999999 ] || [ $(( replayed * 4 )) -gt $(( unchecked * 5 )) ]; then
    echo "replay budget: replaying the recorded trace takes more than 1.25x the unchecked direct run, or its wall could not be read" >&2
    exit 1
fi

# The direct-execution budget beside them: a DE prediction runs the whole
# computation through internal/interp, a replay of the 4096-rank AM trace
# none of it, so their ratio is what the interpreter costs. 256 ranks of
# DE may take at most 1.25x what that replay takes, best of three
# alternating runs: 0.82-1.01x in eight sessions, median 0.90, with
# Sweep3D's sweep nest running by strip (DESIGN.md "What direct execution
# runs by row"); the per-trip cell read 1.19-1.65x in the same sessions,
# median 1.38, so losing the strip fails it in most sessions. It was
# 1.8x against the per-trip cell (1.31-1.78x), and 3.5x the 1024-rank AM
# run before that run stopped interpreting per rank (DESIGN.md
# "Class-native AM").
de=999999
replayed=999999
for i in 1 2 3; do
    ms=$(wall_ms -mode de -ranks 256); [ "$ms" -lt "$de" ] && de=$ms
    ms=$(replay_ms); [ "$ms" -lt "$replayed" ] && replayed=$ms
done
rm -f "$bin/sweep4k.jsonl"
echo "direct-execution budget: de/256 ${de} ms vs the am/4096 replay ${replayed} ms"
if [ "$de" -eq 999999 ] || [ "$replayed" -eq 999999 ] || [ $(( de * 4 )) -gt $(( replayed * 5 )) ]; then
    echo "direct-execution budget: 256 ranks of DE take more than 1.25x replaying 4096 ranks of AM, or a wall could not be read" >&2
    exit 1
fi

# Every rank of a prediction is a handler chain, through each front
# door: no body goroutine is started (Kernel.Spawn is for tests and the
# harness), and every kernel event resumes a handler. (-metrics prints
# the run's own counters.)
"$bin/mpisim" -app sweep3d -mode am -ranks 64 -nocheck -record "$bin/sweep64.jsonl" >/dev/null
for door in "-app sweep3d -mode am -ranks 64" "-app sweep3d -mode de -ranks 64" "-tracein $bin/sweep64.jsonl"; do
    # shellcheck disable=SC2086 # $door is a flag list
    "$bin/mpisim" $door -metrics 2>&1 >/dev/null | awk -v door="$door" '
        $1 == "sim_goroutine_fallbacks_total" { fb = $2; seen++ }
        $1 == "sim_continuations_total" { conts = $2; seen++ }
        $1 == "sim_events_total" { events = $2; seen++ }
        END {
            printf "rank scheduling (%s): %d events, %d continuations, %d goroutine fallbacks\n", door, events, conts, fb
            if (seen != 3 || fb != 0 || conts != events || events == 0) {
                print "rank scheduling: a body goroutine was started, or an event resumed no handler" > "/dev/stderr"
                exit 1
            }
        }'
done
rm -f "$bin/sweep64.jsonl"

# Class-native AM executes one representative per rank class and replays
# its stream for the rest (DESIGN.md "Class-native AM"): a count gate, not
# a wall gate. Sweep3D at 1,024 ranks is nine classes; executing more
# than sixteen ranks means the partition lost its classes.
"$bin/mpisim" -app sweep3d -mode am -ranks 1024 -metrics 2>&1 >/dev/null | awk '
    $1 == "interp_ranks_executed_total" { executed = $2; seen++ }
    $1 == "interp_ranks_replayed_total" { replayed = $2; seen++ }
    END {
        printf "class-native AM: sweep3d at 1024 ranks executes %d ranks and replays %d\n", executed, replayed
        if (seen != 2 || executed > 16 || executed + replayed != 1024) {
            print "class-native AM: more than 16 ranks executed, or the counts were not read" > "/dev/stderr"
            exit 1
        }
    }'

# The stack's budget against the kernel under it (ROADMAP item 3): the
# AM prediction of 16,384 ranks — interpreter, MPI layer, kernel, report,
# process start included — must process events at a fifth of the rate
# the bare kernel benches at the same process count. Best of five each,
# alternating, so a loaded host slows both sides. Measured 0.25-0.28
# (seven runs of this stage), and 0.13-0.17 before PR 19, when a rank was
# a blocking function on a goroutine of its own: a fifth sits 20% under
# the one and 15% over the other. A quarter, which ISSUE 19 asked for, is
# the measured level itself and would flake.
e2e=0
kernel=0
for i in 1 2 3 4 5; do
    t0=$(date +%s%N)
    events=$("$bin/mpisim" -app sweep3d -mode am -ranks 16384 -nocheck | sed -n 's/^kernel: \([0-9]*\) events.*/\1/p')
    rate=$(( ${events:-0} * 1000 / ( ($(date +%s%N) - t0) / 1000000 ) ))
    [ "$rate" -gt "$e2e" ] && e2e=$rate
    rate=$(go test -run '^$' -bench 'BenchmarkKernelSequential/procs=16384' -benchtime 1s ./internal/sim/ |
        awk '/^BenchmarkKernelSequential/ { for (i = 3; i < NF; i++) if ($(i + 1) == "events/sec") printf "%d", $i }')
    [ "${rate:-0}" -gt "$kernel" ] && kernel=$rate
done
echo "stack budget: am/16384 end to end ${e2e} events/s vs bare kernel ${kernel} events/s"
if [ "$e2e" -eq 0 ] || [ "$kernel" -eq 0 ]; then
    echo "stack budget: no event rate read from mpisim or from BenchmarkKernelSequential/procs=16384" >&2
    exit 1
fi
if [ $(( e2e * 5 )) -lt "$kernel" ]; then
    echo "stack budget: the 16384-rank AM prediction runs below a fifth of the kernel's event rate" >&2
    exit 1
fi

# The scale row (nightly): a 262,144-rank prediction through the CLI, the
# paper's point being systems far larger than the host. Informational —
# wall and peak RSS (the process's VmHWM, polled) are printed for
# EXPERIMENTS.md, nothing is gated. Needs ~1 GB and half a minute.
if [ -n "${MPISIM_BENCH_LARGE:-}" ]; then
    t0=$(date +%s%N)
    "$bin/mpisim" -app sweep3d -mode am -ranks 262144 -nocheck >"$bin/scale.out" &
    scale_pid=$!
    hwm=0
    while kill -0 "$scale_pid" 2>/dev/null; do
        kb=$(awk '/^VmHWM/ { print $2 }' "/proc/$scale_pid/status" 2>/dev/null || true)
        [ -n "$kb" ] && hwm=$kb
        sleep 0.2
    done
    wait "$scale_pid"
    echo "scale row: am/262144 $(( ($(date +%s%N) - t0) / 1000000 )) ms, peak RSS $(( hwm / 1024 )) MB, $(sed -n 's/^kernel: //p' "$bin/scale.out")"
fi

echo "== trace frontend gate (record -> replay -> extrapolate)"
# Unit gates: bit-exact round-trip replay, weak-scaling extrapolation
# (16 -> 64 under torus and fat-tree), and record-and-replay determinism
# across engines/worker counts.
go test -count=1 -run 'TestRoundTrip|TestExtrapolate|TestParse|TestReference|TestStricter|TestCodecAllocCeilings|TestFold|TestClassCounts|TestReplayOfClasses' ./internal/tracein/
go test -count=1 -run 'TestSchedEquivalenceReplay' ./internal/core/
go test -count=1 -run 'TestGoldenTraceSections' ./cmd/mpisim/
# Every committed example trace must replay cleanly; the ring trace is
# additionally extrapolated to a 64-rank torus and the pair's scaling
# loss attributed with mpireport.
go build -o "$bin/mpireport" ./cmd/mpireport
for f in examples/traces/*.jsonl; do
    "$bin/mpisim" -tracein "$f" >/dev/null
done
"$bin/mpisim" -tracein examples/traces/ring.jsonl -runjson "$bin/ring8.json" >/dev/null
"$bin/mpisim" -tracein examples/traces/ring.jsonl -xranks 64 \
    -topology torus:dims=8x8 -runjson "$bin/ring64.json" >/dev/null
"$bin/mpireport" "$bin/ring8.json" "$bin/ring64.json" >/dev/null
echo "trace frontend: examples replayed, 8->64 extrapolation attributed"

echo "== service determinism + crash-recovery gate"
go test -count=1 -run 'TestCachedVsFresh|TestCacheSurvivesRestart|TestCrashRecovery|TestDrain|TestJournal|TestStore|TestTrace' ./internal/svc/

echo "== daemon smoke (mpisimd + simdctl)"
go build -o "$bin/mpisimd" ./cmd/mpisimd
go build -o "$bin/simdctl" ./tools/simdctl
simaddr=127.0.0.1:6075
simdir="$bin/mpisimd-data"
"$bin/mpisimd" -addr "$simaddr" -dir "$simdir" -q &
simd_pid=$!
"$bin/obsprobe" -retry 5s -require status,jobs,queue_depth "http://$simaddr/healthz"
quickjob='{"app":"sample","mode":"measured","ranks":4,"inputs":{"PATTERN":2,"ITERS":50,"WORK":100,"MSG":64}}'
job=$("$bin/simdctl" -addr "$simaddr" submit "$quickjob" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$job" ] || { echo "daemon smoke: submit returned no job id" >&2; exit 1; }
"$bin/simdctl" -addr "$simaddr" wait "$job" >/dev/null
"$bin/simdctl" -addr "$simaddr" artifact "$job" >"$bin/artifact1.json"
grep -q '"report"' "$bin/artifact1.json"
"$bin/obsprobe" -require state,percent,events "http://$simaddr/jobs/$job/obs/run"
"$bin/obsprobe" -require status,state "http://$simaddr/jobs/$job/obs/healthz"
# Resubmit the identical spec: must be answered from the artifact cache,
# byte-identical to the fresh run.
job2=$("$bin/simdctl" -addr "$simaddr" submit "$quickjob" |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
"$bin/simdctl" -addr "$simaddr" wait "$job2" >/dev/null
"$bin/simdctl" -addr "$simaddr" artifact "$job2" >"$bin/artifact2.json"
cmp "$bin/artifact1.json" "$bin/artifact2.json"
# Trace job: submit a recorded trace for replay and require a normal
# artifact; an identical resubmission must be answered from the
# content-addressed cache (the spec hash covers the trace text).
tjob=$("$bin/simdctl" -addr "$simaddr" -trace examples/traces/ring.jsonl submit |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$tjob" ] || { echo "daemon smoke: trace submit returned no job id" >&2; exit 1; }
"$bin/simdctl" -addr "$simaddr" wait "$tjob" >/dev/null
"$bin/simdctl" -addr "$simaddr" artifact "$tjob" >"$bin/tartifact1.json"
grep -q '"mode": "replay"' "$bin/tartifact1.json"
tjob2=$("$bin/simdctl" -addr "$simaddr" -trace examples/traces/ring.jsonl submit |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
"$bin/simdctl" -addr "$simaddr" wait "$tjob2" >/dev/null
"$bin/simdctl" -addr "$simaddr" artifact "$tjob2" >"$bin/tartifact2.json"
cmp "$bin/tartifact1.json" "$bin/tartifact2.json"

echo "== front-door identity (mpisim -runjson vs mpisimd artifact)"
# One run description, both doors, the daemon still up from the smoke:
# the artifact mpisim writes and the one mpisimd stores must be the same
# bytes, because both are core.Prepare + Plan.Run on the same spec.
"$bin/mpisim" -app sweep3d -mode am -ranks 64 -runjson "$bin/door_cli.json" >/dev/null
djob=$("$bin/simdctl" -addr "$simaddr" submit '{"app":"sweep3d","mode":"am","ranks":64}' |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$djob" ] || { echo "front-door identity: submit returned no job id" >&2; exit 1; }
"$bin/simdctl" -addr "$simaddr" wait "$djob" >/dev/null
"$bin/simdctl" -addr "$simaddr" artifact "$djob" >"$bin/door_svc.json"
cmp "$bin/door_cli.json" "$bin/door_svc.json"
echo "front-door identity: $(wc -c <"$bin/door_cli.json") artifact bytes identical through mpisim and mpisimd"
# A partial run too: an event budget stops it, both doors write the
# truncated artifact, and its progress is the budget it consumed, not
# what a watcher saw (the daemon attaches a run tracker, mpisim does not).
if "$bin/mpisim" -app sweep3d -mode am -ranks 1024 -budget 2000 -runjson "$bin/door_cli_partial.json" >/dev/null 2>&1; then
    echo "front-door identity: the budgeted run was not stopped" >&2; exit 1
fi
pjob=$("$bin/simdctl" -addr "$simaddr" submit '{"app":"sweep3d","mode":"am","ranks":1024,"limits":{"max_events":2000}}' |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$pjob" ] || { echo "front-door identity: partial submit returned no job id" >&2; exit 1; }
if "$bin/simdctl" -addr "$simaddr" wait "$pjob" >/dev/null 2>&1; then
    echo "front-door identity: the budgeted job was not aborted" >&2; exit 1
fi
"$bin/simdctl" -addr "$simaddr" artifact "$pjob" >"$bin/door_svc_partial.json"
grep -q '"partial": true' "$bin/door_svc_partial.json"
cmp "$bin/door_cli_partial.json" "$bin/door_svc_partial.json"
echo "front-door identity: partial run's $(wc -c <"$bin/door_cli_partial.json") artifact bytes identical through mpisim and mpisimd"

echo "== daemon drain"
# Graceful drain: SIGTERM with a long job still running must cancel it,
# journal the abort, and exit 0.
longjob='{"app":"sample","mode":"measured","ranks":4,"inputs":{"PATTERN":2,"ITERS":500000,"WORK":100,"MSG":64}}'
"$bin/simdctl" -addr "$simaddr" submit "$longjob" >/dev/null
sleep 1
kill -TERM "$simd_pid"
wait "$simd_pid"
grep -q '"state":"aborted"' "$simdir/journal.jsonl"
echo "daemon smoke: submit/wait/artifact/cache/obs/drain OK"

echo "== fault determinism gate"
go test -count=1 -run 'TestFaultDeterminism' ./internal/mpi/

echo "== network determinism gate"
go test -count=1 -run 'TestNetDeterminism|TestNetRealParallelDeterminism' ./internal/mpi/

echo "== example network configs"
for f in examples/networks/*.json; do
    "$bin/mpicheck" -file examples/programs/ring.ir -inputs N=32,STEPS=2 \
        -ranks 8 -netjson "$f" -min warning
done

echo "== fuzz smoke (randomized fault schedules + hostile job submissions + malformed traces + expressions + generated programs)"
go test -fuzz 'FuzzFaultSchedules' -fuzztime 10s -run '^$' ./internal/mpi/
go test -fuzz 'FuzzDecodeSpec' -fuzztime 10s -run '^$' ./internal/svc/
go test -fuzz 'FuzzParseTrace' -fuzztime 10s -run '^$' ./internal/tracein/
go test -fuzz FuzzParseExpr -fuzztime 10s -run '^$' ./internal/ir/
go test -fuzz FuzzOracleGenerated -fuzztime 10s -run '^$' ./internal/interp/

echo "== fault-layer overhead gate"
{ for i in 1 2 3; do
    go test -run '^$' -bench 'BenchmarkKernelGuard' -benchtime 1s ./internal/sim/
done; } |
    "$bin/benchgate" \
        -pair "BenchmarkKernelGuard/off,BenchmarkKernelGuard/armed,0.15"

echo "== network overhead gate"
# Five interleaved samples (not three): the flat-vs-off pair threshold is
# 2% and the two benches are near-identical code paths, so the best-of-N
# on each side needs enough samples that host noise can't open a fake gap.
{ for i in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkKernelNet' -benchtime 1s ./internal/mpi/
done; } |
    "$bin/benchgate" \
        -pair "BenchmarkKernelNet/off,BenchmarkKernelNet/flat,0.02"

echo "== trace replay overhead gate"
# Replay re-issues the recorded call sequence through the same API the
# program used; the trace indirection must stay within 25% events/sec of
# direct simulation, measured within the same runs. `direct` is the same
# ring as a Go mpi.Program under World.RunProgram, so both sides run
# their ranks as continuations on one scheduler (measured: replay at
# 0.84-1.06 of direct). parse+replay starts from the file's bytes — a
# v2 trace: the ring's 16 ranks are three classes, so the file holds
# three ranks' lines — and measures ~2.2x direct (3.6-4.6x when the file
# held every rank), gated at 5x; its absolute rate is held by its
# recorded row in BENCH_kernel.json (the throughput gate below), and the
# -tracein CLI budget above holds the door to 1.25x the unchecked direct run.
{ for i in 1 2 3; do
    go test -run '^$' -bench 'BenchmarkTraceReplay' -benchtime 1s ./internal/tracein/
done; } |
    "$bin/benchgate" \
        -pair "BenchmarkTraceReplay/direct,BenchmarkTraceReplay/replay,0.25" \
        -pair "BenchmarkTraceReplay/direct,BenchmarkTraceReplay/parse+replay,0.80"

echo "== kernel throughput gate (short mode: up to procs=16384)"
# MPISIM_BENCH_LARGE is inherited by the check: unset (the default) the
# 65536 rows in the baseline are informational; the nightly path exports
# it and gates them too.
scripts/bench_kernel.sh -check 0.5s 0.25

echo "CI OK"
