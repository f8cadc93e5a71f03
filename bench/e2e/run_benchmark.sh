#!/usr/bin/env bash
# End-to-end benchmark of the cWSP simulator (see bench/e2e/README.md).
#
#   run_benchmark.sh [--seed S] [--seconds T] [--json FILE]
#       Full pass: every workload end to end, then traced. Prints every
#       metric with its unit, median, q1/q3 and n, writes one JSON file
#       (default $BUILD_DIR/out/benchmark-seedS.json), and exits
#       nonzero if any check fails.
#   run_benchmark.sh --smoke
#       The same pass at each workload's smallest input, untimed.
#   run_benchmark.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       One workload in one process; the last stdout line is its result.
#   run_benchmark.sh --compare A.json B.json
#       Compare two full-pass files metric by metric against the bounds
#       in BENCHMARK.json; exits nonzero on any worse or unresolved pair.
#
# Builds the benchmark first, as a Release tree in $BUILD_DIR (default
# .bench_build at the repository root), and refuses other build types.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build=${BUILD_DIR:-$root/.bench_build}

if [[ "${1:-}" == "--compare" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: $0 --compare A.json B.json" >&2; exit 2; }
    exec python3 "$here/report.py" compare "$root/BENCHMARK.json" "$2" "$3"
fi

cpus=$(nproc)
jobs=$(( cpus < 4 ? cpus : 4 ))
if [[ -f "$build/CMakeCache.txt" ]]; then
    type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")
    if [[ "$type" != Release && "$type" != RelWithDebInfo ]] ||
        grep -q -- '-fsanitize' "$build/CMakeCache.txt"; then
        echo "$0: refusing to time the '${type:-unset}' or sanitizer" \
             "build tree $build" >&2
        exit 2
    fi
else
    generator=()
    command -v ninja >/dev/null && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2
bench=$build/cwsp_bench
out=$build/out

if [[ " $* " == *" --workload "* ]]; then
    exec "$bench" "$@" --out "$out"
fi

seed=1
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
smoke=()
json=
while [[ $# -gt 0 ]]; do
    case $1 in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --json) json=$2; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) echo "$0: unknown argument $1" >&2; exit 2 ;;
    esac
done
json=${json:-$out/benchmark-seed$seed.json}

status=0
results=()
for workload in sweep_apps sweep_configs crash_campaign \
                crash_campaign_large concurrent_campaign; do
    for trace in 0 1; do
        "$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" "${smoke[@]}" || status=1
        results+=("$out/$workload-seed$seed-trace$trace.json")
    done
done
python3 "$here/report.py" combine "$root/BENCHMARK.json" "$json" \
    "${results[@]}" || status=1
exit $status
