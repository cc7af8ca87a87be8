#!/bin/sh
# bench_kernel.sh — run the kernel throughput suite (BenchmarkKernel* in
# internal/sim, the network-layer BenchmarkKernelNet in internal/mpi,
# the trace-frontend BenchmarkTraceReplay in internal/tracein, and the
# whole AM stack over the kernel, BenchmarkAbstractManyRanks in the root
# package, with its allocations and bytes per target rank) and record
# the results as BENCH_kernel.json so the performance trajectory is
# tracked across PRs.
#
# Usage:
#   scripts/bench_kernel.sh [benchtime]                      # record (default 2s)
#   scripts/bench_kernel.sh -check [benchtime] [maxregress]  # compare, don't record
#
# In -check mode the suite runs (default 1s) and tools/benchgate compares
# events/sec against the recorded BENCH_kernel.json, failing on any
# regression beyond maxregress (default 10%); the baseline file is left
# untouched. CI passes a wider tolerance: the baseline is recorded in a
# different process on a different day, and best-of-3 samples of
# identical code have been observed ±20% apart across sessions on this
# shared host — the cross-session gate is for order-of-magnitude
# collapses (a 3-5x drop), while tight overhead bounds live in ci.sh's
# within-run pair gates.
#
# The procs=65536 rows are env-gated behind MPISIM_BENCH_LARGE (they need
# ~1 GiB and tens of seconds). Record mode always sets it so the baseline
# stays complete; -check mode inherits the caller's environment, so the
# short CI path skips the large rows (benchgate reports them as
# informational) and the nightly path opts in with MPISIM_BENCH_LARGE=1.
#
# Each JSON entry holds the sub-benchmark name, iteration count, ns/op,
# and every custom metric the suite reports (events/sec, allocs/event).
# Record mode samples every benchmark three times (-count 3) and keeps
# the sample with the median events/sec: a single lucky sample would
# record a throughput the best-of-N check side can't reliably reproduce
# on a noisy host, turning the regression gate into a coin flip.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-check" ]; then
    benchtime="${2:-1s}"
    maxregress="${3:-0.10}"
    bin=$(mktemp -d)
    trap 'rm -rf "$bin"' EXIT
    go build -o "$bin/benchgate" ./tools/benchgate
    # Three interleaved passes; benchgate keeps the best events/sec per
    # benchmark, so a single noisy sample can't fail the gate.
    { for i in 1 2 3; do
        go test -bench 'BenchmarkKernel' -benchtime "$benchtime" -run '^$' ./internal/sim/
        go test -bench 'BenchmarkKernelNet' -benchtime "$benchtime" -run '^$' ./internal/mpi/
        go test -bench 'BenchmarkTraceReplay' -benchtime "$benchtime" -run '^$' ./internal/tracein/
        go test -bench 'BenchmarkAbstractManyRanks' -benchtime "$benchtime" -run '^$' .
    done; } | "$bin/benchgate" -baseline BENCH_kernel.json -maxregress "$maxregress"
    exit 0
fi

benchtime="${1:-2s}"
out=BENCH_kernel.json
trap 'rm -f "$out.tmp"' EXIT

export MPISIM_BENCH_LARGE=1 # the recorded baseline always carries the 65536 rows

{ go test -bench 'BenchmarkKernel' -benchtime "$benchtime" -count 3 -run '^$' ./internal/sim/
  go test -bench 'BenchmarkKernelNet' -benchtime "$benchtime" -count 3 -run '^$' ./internal/mpi/
  go test -bench 'BenchmarkTraceReplay' -benchtime "$benchtime" -count 3 -run '^$' ./internal/tracein/
  go test -bench 'BenchmarkAbstractManyRanks' -benchtime "$benchtime" -count 3 -run '^$' .
} |
awk '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; iters = $2
    sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
    line = ""
    ev = 0
    # Fields after the iteration count come in (value, unit) pairs.
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "events/sec") ev = $i + 0
        gsub(/[^A-Za-z0-9]/, "_", unit)
        line = line sprintf(",\n    \"%s\": %s", unit, $i)
    }
    if (!(name in count)) order[n++] = name
    c = count[name]++
    samples[name, c] = sprintf("  {\n    \"name\": \"%s\",\n    \"iterations\": %s%s\n  }", name, iters, line)
    evs[name, c] = ev
}
END {
    if (n == 0) { print "bench_kernel.sh: no benchmark output" > "/dev/stderr"; exit 1 }
    print "["
    for (i = 0; i < n; i++) {
        name = order[i]
        m = count[name]
        # Keep the sample whose events/sec is the median of the -count
        # runs (rank ceil(m/2) in ascending order, ties broken by index).
        pick = 0
        for (a = 0; a < m; a++) {
            le = 0
            for (b = 0; b < m; b++)
                if (evs[name, b] < evs[name, a] || (evs[name, b] == evs[name, a] && b <= a)) le++
            if (le == int((m + 1) / 2)) { pick = a; break }
        }
        printf "%s%s\n", samples[name, pick], (i < n - 1 ? "," : "")
    }
    print "]"
}
' > "$out.tmp"
mv "$out.tmp" "$out" # atomic: a failed run must not clobber the last good file

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
