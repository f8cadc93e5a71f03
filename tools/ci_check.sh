#!/usr/bin/env bash
# Sanitizer CI pass: build the tree twice under Debug — once with
# AddressSanitizer, once with UndefinedBehaviorSanitizer — and run
# the full ctest suite under each. Catches the class of bug the
# RelWithDebInfo tier-1 run can't: heap misuse in the ring buffers
# and caches, UB in the timing arithmetic.
#
# A Release simulator-throughput smoke rides along at the end: it
# runs the bench_simspeed aggregate case and warns (never fails) when
# sims_per_sec drops more than 20% below the last committed
# BENCH_trajectory.json entry.
#
# Usage:
#   tools/ci_check.sh [sanitizer...]     # default: address undefined
# Environment:
#   BUILD_ROOT  directory for the sanitizer build trees
#               (default: build-san)
#   JOBS        parallel build/test jobs (default: nproc)
#   BENCH_SMOKE 0 skips the Release bench_simspeed smoke (default: 1)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_ROOT=${BUILD_ROOT:-build-san}
JOBS=${JOBS:-$(nproc)}
SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
    SANITIZERS=(address undefined)
fi

# Halt on the first UB report instead of printing and continuing, so
# a UBSan failure fails the suite.
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1}

for san in "${SANITIZERS[@]}"; do
    dir=$BUILD_ROOT/$san
    echo "== $san: configure ($dir) =="
    cmake -B "$dir" -S . \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCWSP_SANITIZE="$san"
    echo "== $san: build =="
    cmake --build "$dir" -j "$JOBS"
    echo "== $san: ctest =="
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
    echo "== $san: replay-equivalence smoke =="
    # The full ctest pass above already runs test_replay_equiv; this
    # re-runs the trace/crash bit-identity cases, both cache-outcome
    # sources (recorded for the sim's tag geometry, walked live for
    # another) and capri's battery-backed crashes continuing the
    # stream (cursor resume, live tag walk, suffix tail) standalone so
    # a replay divergence under the sanitizer fails with its own
    # banner instead of disappearing into the suite summary.
    "$dir"/tests/test_replay_equiv --gtest_filter=\
'ReplayEquiv.TraceStreamsIdentical:ReplayEquiv.CrashSweepIdentical:'\
'EveryScheme/ReplayEquivSweep.BothOutcomeSources/*:'\
'ReplayEquiv.OutcomesOfEveryFigureGeometry:'\
'ReplayEquiv.CapriCrashesContinueTheStream'
    echo "== $san: batched-interpretation smoke =="
    # Runs of register-only instructions execute as one batch in the
    # timed driver, the stream recorder and sink-less functional runs.
    # Every case holds a batched path to single-stepping: functional
    # state on every app and profile, a per-step copy of the min-clock
    # scheduler (single-core and multicore, sampler attached), and the
    # recorded stream decoded step by step.
    "$dir"/tests/test_batch_equiv
    echo "== $san: invariant smoke (every scheme) =="
    # Online protocol checking over a small batch: attaches the
    # obs::InvariantMonitor to each simulation and fails on any
    # violation (region ordering, undo-log coverage, WPQ capacity,
    # crash quiescence).
    "$dir"/tools/cwsp_analyze --check-invariants \
          --scheme all --app fft --jobs "$JOBS"
    echo "== $san: fault-campaign smoke (every scheme, forked) =="
    # Bounded robustness pass: trace-derived crash points on two
    # apps across all schemes, with nested-crash schedules and
    # torn-log/bit-flip/stale-slot media faults, run differentially
    # against golden. Exits nonzero on any divergence, lost output,
    # or undetected media fault — and the sanitizers watch the
    # hardened recovery path itself while it degrades. Runs in
    # forked mode (--fork) so the checkpoint capture/restore path —
    # the byte-blob component protocol and the shared recording log — is
    # itself exercised under ASan and UBSan.
    "$dir"/tools/cwsp_faultcampaign --apps fft,bzip2 \
          --points 1 --fork --jobs "$JOBS" --quiet
    echo "== $san: one-pass campaign preparation smoke =="
    # A single-core context is prepared with one interpreted pass: the
    # commit-stream recording yields the golden facts and its replay
    # the crash points. These cases hold that preparation to the
    # functional golden passes and an interpreted, every-category
    # enumeration (roster apps and a device-output program, every
    # scheme), and the sort-based crash-point dedup to the std::set
    # rule, so a divergence under the sanitizer fails on its own.
    "$dir"/tests/test_fault_campaign --gtest_filter=\
'FaultCampaign.EnumerationRunIsThePlainRun:'\
'FaultCampaign.CrashPointCollectorDedupsSubsamplesAndBounds'
    echo "== $san: shared-log checkpoint smoke =="
    # A capture pass's checkpoints share its recording log and read
    # it through views, ReplayCache's unstamped stores from each
    # checkpoint's own tail; the cache charges the log once; arena
    # flat maps rebuild into their retired table; capri's checkpoints
    # hold a stream cursor instead of a memory image. Standalone, so a
    # view or accounting fault fails under its own banner.
    "$dir"/tests/test_ckpt_equiv --gtest_filter=\
'CkptEquiv.SharedLogForksMatchScratch:'\
'CkptEquiv.CheckpointCacheLruAndStats:'\
'CkptEquiv.CapriForksContinueTheStream'
    "$dir"/tests/test_sim --gtest_filter='FlatMap64.*'
    echo "== $san: cwsp_run crash-sweep smoke (cwsp, capri) =="
    # The CLI sweep prepares the same way under every scheme: it
    # records, takes the golden facts from the recording and
    # enumerates from the stream; battery-backed capri's crashes then
    # continue the stream. Every point must recover consistently.
    "$dir"/tools/cwsp_run --app fft --scheme cwsp --crash-sweep 8 \
          > /dev/null
    "$dir"/tools/cwsp_run --app fft --scheme capri --crash-sweep 4 \
          > /dev/null
    echo "== $san: large-image campaign smoke (astar, forked) =="
    # fft and bzip2 images span a few pages; astar's spans thousands.
    # Its golden image grows through many slabs, capri's crashes build
    # the whole image from their recording logs, and every case's
    # global check compares thousands of pages, all under the
    # sanitizer.
    "$dir"/tools/cwsp_faultcampaign --apps astar --schemes cwsp,capri \
          --points 1 --fork --jobs "$JOBS" --quiet
    echo "== $san: concurrent campaign smoke (durable-lin on) =="
    # Lock-free queue + hash-map across all schemes, two
    # interleaving schedules each, with the durable-linearizability
    # checker deciding every verdict (concurrent cases have no
    # golden state to diff). Exits nonzero on any violation — and
    # the sanitizers watch the multicore crash/recovery path and the
    # checker's search itself.
    "$dir"/tools/cwsp_faultcampaign --apps cqueue,chash \
          --points 1 --schedules 2 --jobs "$JOBS" --quiet
    echo "== $san: what-if smoke (every scheme, cross-checked) =="
    # Counterfactual waterfalls for one app across all schemes with
    # the stall-attribution cross-check enabled, bypassing the result
    # cache so the idealized configurations (infinite PB, ideal path,
    # free undo logging, ...) actually execute under the sanitizer
    # rather than replaying cached numbers. The tool exits nonzero if
    # any waterfall fails to reconcile bit-exactly; cross-check
    # disagreements are report warnings, not failures.
    "$dir"/tools/cwsp_analyze --whatif --scheme all --app fft \
          --no-sensitivity --no-result-cache --jobs "$JOBS" \
          > /dev/null
    echo "== $san: analyze --diff rejects junk input =="
    # The differ must fail loudly (exit 2) on a metrics-free document
    # instead of printing an empty report and exiting 0.
    echo '{}' > "$dir"/empty_metrics.json
    if "$dir"/tools/cwsp_analyze --diff "$dir"/empty_metrics.json \
          "$dir"/empty_metrics.json > /dev/null 2>&1; then
        echo "ci_check: --diff accepted a metrics-free document" >&2
        exit 1
    fi
    rm -f "$dir"/empty_metrics.json
    echo "== $san: telemetry smoke (every scheme) =="
    # One sampled + traced run per scheme: attaches the counter
    # sampler at the config-derived cadence, exports the Chrome
    # trace with the Perfetto counter tracks merged in, and
    # re-parses it — the validator fails on malformed JSON or a
    # counter track that goes backwards in time (plain runs only;
    # crash runs restart the epoch clock by design). The sampler's
    # probe lambdas and the export path run under the sanitizer.
    for scheme in baseline cwsp capri ido replaycache psp; do
        trace=$dir/telemetry_$scheme.trace.json
        "$dir"/tools/cwsp_run --app fft --scheme "$scheme" \
              --sample-period 0 --trace-out "$trace" > /dev/null
        "$dir"/tools/cwsp_analyze --validate-trace "$trace"
        rm -f "$trace"
    done
done

echo "ci_check: all sanitizer passes clean (${SANITIZERS[*]})"

# Release simulator-throughput smoke (warn-only). Sanitizer builds
# cannot carry a perf floor, so this uses its own Release tree. The
# floor is the last BENCH_trajectory.json entry's aggregate
# sims_per_sec minus 20% — generous enough to ride out box noise; a
# real overhaul regression (the hot path is ~1.4x the trajectory
# baseline) still trips it. Advisory only: wall-clock throughput on a
# shared box is not a gate.
BENCH_SMOKE=${BENCH_SMOKE:-1}
if [ "$BENCH_SMOKE" = 1 ]; then
    dir=$BUILD_ROOT/release
    echo "== release: configure ($dir) =="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release
    echo "== release: build bench_simspeed =="
    cmake --build "$dir" -j "$JOBS" --target bench_simspeed
    echo "== release: bench_simspeed smoke (warn-only floor) =="
    smoke=$dir/simspeed_smoke.json
    "$dir"/bench/bench_simspeed \
        --benchmark_filter='simspeed/aggregate|simspeed/crash_sweep/cwsp' \
        --benchmark_out="$smoke" --benchmark_out_format=json \
        > /dev/null
    python3 - "$smoke" BENCH_trajectory.json <<'EOF'
import json
import os
import sys

smoke_path, traj_path = sys.argv[1], sys.argv[2]
with open(smoke_path) as f:
    smoke = json.load(f)

# The floored cases: the pinned cross-PR aggregate plus the forked
# crash-sweep path (checkpoint-fork sweeps are a perf feature; a
# fidelity-preserving change that quietly re-executes every prefix
# should trip this, not pass silently).
cases = ["simspeed/aggregate", "simspeed/crash_sweep/cwsp"]
current = {}
for b in smoke.get("benchmarks", []):
    name = b.get("name", "")
    for case in cases:
        # Prefer the median when the run used repetitions.
        if name == case + "_median":
            current[case] = b.get("sims_per_sec")
        elif name == case and case not in current:
            current[case] = b.get("sims_per_sec")
if not current:
    print("bench smoke: no floored case found (skipped)")
    sys.exit(0)
trajectory = []
if os.path.exists(traj_path):
    with open(traj_path) as f:
        trajectory = json.load(f)
for case, value in sorted(current.items()):
    floor_value, floor_label = None, None
    suffix = "[{}].sims_per_sec".format(case)
    for entry in reversed(trajectory):
        for metric, mv in entry.get("metrics", {}).items():
            if metric.endswith(suffix):
                floor_value, floor_label = mv, entry.get("name")
                break
        if floor_value is not None:
            break
    if value is None:
        print("bench smoke: {}: no sims_per_sec counter".format(case))
        continue
    if floor_value is None:
        print("bench smoke: {}: {:.1f} sims/s (no trajectory "
          "floor)".format(case, value))
        continue
    floor = 0.8 * floor_value
    verdict = "ok" if value >= floor else "WARNING: below floor"
    print("bench smoke: {}: {:.1f} sims/s vs trajectory '{}' {:.1f} "
          "(floor {:.1f}, -20%): {}".format(
              case, value, floor_label, floor_value, floor, verdict))
# Warn-only by design: exit clean either way.
EOF
fi
