/**
 * @file
 * Command-line driver: run any roster application — or a whole suite
 * in parallel — under any persistence scheme with optional hardware
 * overrides, crash injection, full statistics, and IR dumps.
 *
 *   cwsp_run --list
 *   cwsp_run --app radix --scheme cwsp --stats
 *   cwsp_run --app tpcc --scheme capri --bw 32
 *   cwsp_run --app fft --scheme cwsp --crash 0.5
 *   cwsp_run --app lbm --dump-ir | less
 *   cwsp_run --all --scheme cwsp --jobs 8        # parallel batch
 *   cwsp_run --suite splash3 --scheme capri --jobs 4
 *
 * Batch runs go through the driver::BatchRunner engine: design
 * points are evaluated across a worker pool and memoized in the
 * persistent result cache (see --cache-dir / CWSP_CACHE_DIR), so a
 * repeat invocation re-simulates nothing.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.hh"
#include "core/consistency_checker.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "fault/campaign.hh"
#include "fault/crash_points.hh"
#include "interp/interpreter.hh"
#include "ir/printer.hh"
#include "mem/nvm_device.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "sim/trace_mask.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_run [options]\n"
        "  --list                 list applications and exit\n"
        "  --app NAME             application to run (or `all`)\n"
        "  --suite NAME           run every app of one suite\n"
        "  --scheme NAME          baseline|cwsp|capri|ido|replaycache|psp"
        " (default cwsp)\n"
        "  --bw GB                persist-path bandwidth (default 4)\n"
        "  --rbt N                RBT entries (default 16)\n"
        "  --pb N                 persist-buffer entries (default 50)\n"
        "  --wpq N                WPQ entries (default 24)\n"
        "  --nvm TECH             pmem|sttram|reram|cxl-a..d"
        " (default pmem)\n"
        "  --jobs N               batch worker threads"
        " (default: all cores)\n"
        "  --cache-dir DIR        persistent result cache location\n"
        "  --no-cache             skip the persistent result cache\n"
        "  --crash FRAC           inject a power failure at FRAC of the"
        " run (single app)\n"
        "  --crash-sweep N        crash at N trace-derived interesting"
        " points (single app);\n"
        "                         each point forks from a golden-run"
        " checkpoint\n"
        "  --no-fork              sweep without checkpoint forking"
        " (re-execute prefixes)\n"
        "  --crash-at-event KIND[:N]\n"
        "                         crash at the N-th (default 0) point"
        " of KIND:\n"
        "                         region_begin|region_persist|"
        "mid_drain|undo_append\n"
        "  --stats                dump component statistics (single"
        " app)\n"
        "  --stats-json FILE      write statistics JSON (single app;"
        " `-` = stdout);\n"
        "                         in batch mode: aggregate over the"
        " simulated points\n"
        "  --trace-out FILE       write a Chrome trace-event JSON of"
        " the run (single app)\n"
        "  --trace-mask SPEC      trace categories: comma list of\n"
        "                         region,pb,rbt,wpq,mc,wb,path,crash,\n"
        "                         all|none, or a hex mask (0x..);"
        " default all\n"
        "  --sample-period N      sample occupancy/throughput gauges"
        " every N simulated\n"
        "                         cycles (single app; 0 = config-"
        "derived default).\n"
        "                         Series land in --stats-json"
        " (time_series) and as\n"
        "                         counter tracks in --trace-out\n"
        "  --dump-ir              print the compiled IR and exit\n"
        "N is decimal digits only: --rbt, --pb and --wpq take 1..1048576,"
        " --jobs and\n"
        "--crash-sweep 1..4294967295, :N 0..4294967295, --sample-period"
        " 0..2^64-1;\n"
        "GB is a positive finite number. Any other value exits 2 naming"
        " the flag.\n");
}

/**
 * Largest --rbt, --pb and --wpq: their rings are sized and allocated
 * up front from the entry count.
 */
constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 20;

const char *
arg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        usage();
        std::exit(2);
    }
    return argv[++i];
}

/** Write @p json_path ("-" = stdout) via @p emit. */
template <typename Emit>
void
writeJsonOutput(const std::string &json_path, Emit emit)
{
    if (json_path == "-") {
        emit(std::cout);
        return;
    }
    std::ofstream f(json_path);
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     json_path.c_str());
        std::exit(1);
    }
    emit(f);
}

/** Parallel suite/roster evaluation through the batch engine. */
int
runBatch(const std::vector<workloads::AppProfile> &apps,
         const std::string &scheme, const std::string &nvm,
         const core::SystemConfig &cfg,
         const core::SystemConfig &base_cfg, unsigned jobs,
         bool use_cache, const std::string &cache_dir,
         const std::string &stats_json)
{
    driver::BatchConfig bc;
    bc.jobs = jobs;
    bc.useDiskCache = use_cache;
    bc.cacheDir = cache_dir;
    driver::BatchRunner runner(bc);

    // Interleave (baseline, scheme) per app; results come back in
    // input order regardless of the worker count.
    std::vector<driver::DesignPoint> points;
    points.reserve(2 * apps.size());
    for (const auto &app : apps) {
        points.push_back(driver::DesignPoint{app, base_cfg});
        points.push_back(driver::DesignPoint{app, cfg});
    }
    auto results = runner.runAll(points);

    // With `--stats-json -` the JSON owns stdout; the human-readable
    // table moves to stderr so the stream stays parseable.
    std::FILE *out = stats_json == "-" ? stderr : stdout;
    std::fprintf(out, "%-12s %-8s %12s %12s %9s\n", "app", "suite",
                 "instrs", "cycles", "slowdown");
    double log_sum = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &base = results[2 * i];
        const auto &r = results[2 * i + 1];
        double s = static_cast<double>(r.cycles) /
                   static_cast<double>(base.cycles);
        log_sum += std::log(s);
        std::fprintf(out, "%-12s %-8s %12llu %12llu %8.3fx\n",
                     apps[i].name.c_str(), apps[i].suite.c_str(),
                     (unsigned long long)r.instructions,
                     (unsigned long long)r.cycles, s);
    }
    std::fprintf(out, "gmean slowdown of %s/%s over baseline: %.3fx\n",
                 scheme.c_str(), nvm.c_str(),
                 std::exp(log_sum /
                          static_cast<double>(apps.size())));

    auto st = runner.stats();
    std::fprintf(stderr,
                 "batch: %zu points, %llu simulated, %llu disk hits, "
                 "%llu memory hits, %llu compiles (%llu module-cache "
                 "hits), %llu streams recorded, %llu replayed, %llu "
                 "interpreted\n",
                 points.size(), (unsigned long long)st.simulated,
                 (unsigned long long)st.diskHits,
                 (unsigned long long)st.memoryHits,
                 (unsigned long long)st.modulesCompiled,
                 (unsigned long long)st.moduleCacheHits,
                 (unsigned long long)st.streamsRecorded,
                 (unsigned long long)st.replayedRuns,
                 (unsigned long long)st.interpretedRuns);

    if (!stats_json.empty()) {
        writeJsonOutput(stats_json, [&runner](std::ostream &os) {
            runner.exportAggregateJson(os);
        });
    }
    return 0;
}

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    std::string app_name;
    std::string suite;
    std::string scheme = "cwsp";
    std::string nvm = "pmem";
    std::string cache_dir;
    std::string stats_json;
    std::string trace_out;
    std::string trace_mask = "all";
    double bw = 4.0;
    unsigned rbt = 16, pb = 50, wpq = 24;
    unsigned jobs = 0;
    double crash_frac = -1.0;
    std::size_t crash_sweep = 0;
    bool fork_sweep = true;
    std::optional<fault::CrashPointKind> crash_kind;
    std::string crash_kind_name;
    std::size_t crash_index = 0;
    std::optional<Tick> sample_period; ///< none: off; 0: default
    bool stats = false, dump_ir = false, use_cache = true;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list") {
            for (const auto &app : workloads::appTable()) {
                std::printf("%-12s %-8s%s\n", app.name.c_str(),
                            app.suite.c_str(),
                            app.memIntensive ? "  [memory-intensive]"
                                             : "");
            }
            return 0;
        } else if (a == "--app") {
            app_name = arg(argc, argv, i);
        } else if (a == "--all") {
            app_name = "all";
        } else if (a == "--suite") {
            suite = arg(argc, argv, i);
        } else if (a == "--scheme") {
            scheme = arg(argc, argv, i);
        } else if (a == "--nvm") {
            nvm = arg(argc, argv, i);
        } else if (a == "--bw") {
            auto v = cli::parsePositiveReal(a, arg(argc, argv, i));
            if (!v)
                return 2;
            bw = *v;
        } else if (a == "--rbt" || a == "--pb" || a == "--wpq") {
            unsigned &entries = a == "--rbt" ? rbt : a == "--pb" ? pb : wpq;
            auto n = cli::parsePositive(a, arg(argc, argv, i),
                                        kMaxEntries);
            if (!n)
                return 2;
            entries = static_cast<unsigned>(*n);
        } else if (a == "--jobs") {
            auto n = cli::parsePositive(a, arg(argc, argv, i),
                                        cli::kMaxU32);
            if (!n)
                return 2;
            jobs = static_cast<unsigned>(*n);
        } else if (a == "--cache-dir") {
            cache_dir = arg(argc, argv, i);
        } else if (a == "--no-cache") {
            use_cache = false;
        } else if (a == "--crash") {
            const char *v = arg(argc, argv, i);
            char *end = nullptr;
            crash_frac = std::strtod(v, &end);
            if (end == v || *end != '\0' ||
                !std::isfinite(crash_frac) || crash_frac < 0.0 ||
                crash_frac > 1.0) {
                std::fprintf(stderr,
                             "--crash expects a fraction in [0, 1], "
                             "got '%s'\n",
                             v);
                return 2;
            }
        } else if (a == "--crash-sweep") {
            auto n = cli::parsePositive(a, arg(argc, argv, i),
                                        cli::kMaxU32);
            if (!n)
                return 2;
            crash_sweep = static_cast<std::size_t>(*n);
        } else if (a == "--crash-at-event") {
            // KIND or KIND:N, N counting from 0.
            const std::string v = arg(argc, argv, i);
            const auto colon = v.find(':');
            crash_kind_name = v.substr(0, colon);
            fault::CrashPointKind kind;
            std::optional<std::uint64_t> n = 0;
            if (colon != std::string::npos) {
                n = cli::toInteger(std::string_view(v).substr(colon + 1),
                                   0, cli::kMaxU32);
            }
            if (!fault::parseCrashPointKind(crash_kind_name, kind) || !n) {
                cli::reject(a,
                            "KIND[:N] with KIND a crash-point kind and N " +
                                cli::integerIn(0, cli::kMaxU32),
                            v);
                return 2;
            }
            crash_kind = kind;
            crash_index = static_cast<std::size_t>(*n);
        } else if (a == "--no-fork") {
            fork_sweep = false;
        } else if (a == "--stats") {
            stats = true;
        } else if (a == "--stats-json") {
            stats_json = arg(argc, argv, i);
        } else if (a == "--trace-out") {
            trace_out = arg(argc, argv, i);
        } else if (a == "--trace-mask") {
            trace_mask = arg(argc, argv, i);
        } else if (a == "--sample-period") {
            sample_period = cli::parseInteger(a, arg(argc, argv, i), 0,
                                              cli::kMaxU64);
            if (!sample_period)
                return 2;
        } else if (a == "--dump-ir") {
            dump_ir = true;
        } else {
            usage();
            return 2;
        }
    }
    if (app_name.empty() && suite.empty()) {
        usage();
        return 2;
    }

    auto cfg = core::makeSystemConfig(scheme);
    cfg.scheme.path.bandwidthGBs = bw;
    cfg.scheme.rbtCapacity = rbt;
    cfg.scheme.pbCapacity = pb;
    cfg.hierarchy.wpqCapacity = wpq;
    cfg.hierarchy.tech = mem::nvmTechByName(nvm);

    auto base_cfg = core::makeSystemConfig("baseline");
    base_cfg.hierarchy.tech = cfg.hierarchy.tech;

    // Batch mode: every roster app or one suite, in parallel.
    if (app_name == "all" || !suite.empty()) {
        std::vector<workloads::AppProfile> apps =
            suite.empty() ? workloads::appTable()
                          : workloads::appsBySuite(suite);
        if (apps.empty()) {
            std::fprintf(stderr, "no applications in suite '%s'\n",
                         suite.c_str());
            return 2;
        }
        return runBatch(apps, scheme, nvm, cfg, base_cfg, jobs,
                        use_cache, cache_dir, stats_json);
    }

    const auto &app = workloads::appByName(app_name);
    auto mod = workloads::buildApp(app, cfg.compiler);
    if (dump_ir) {
        ir::print(std::cout, *mod);
        return 0;
    }

    // Single-app measurement runs also go through the batch engine
    // (the baseline/scheme pair in parallel, both persistently
    // cached); --stats, --stats-json, --trace-out and --crash need
    // the live simulator state and take the direct path below.
    if (!stats && crash_frac < 0.0 && crash_sweep == 0 && !crash_kind &&
        stats_json.empty() && trace_out.empty() && !sample_period) {
        driver::BatchConfig bc;
        bc.jobs = jobs;
        bc.useDiskCache = use_cache;
        bc.cacheDir = cache_dir;
        driver::BatchRunner runner(bc);
        auto results =
            runner.runAll({driver::DesignPoint{app, base_cfg},
                           driver::DesignPoint{app, cfg}});
        const auto &base = results[0];
        const auto &r = results[1];
        std::printf("%s on %s/%s: %llu instrs, %llu cycles "
                    "(slowdown %.3fx), region %.1f instrs, "
                    "PB stalls %llu, RBT stalls %llu\n",
                    app.name.c_str(), scheme.c_str(), nvm.c_str(),
                    (unsigned long long)r.instructions,
                    (unsigned long long)r.cycles,
                    static_cast<double>(r.cycles) /
                        static_cast<double>(base.cycles),
                    r.meanRegionInstrs,
                    (unsigned long long)r.pbFullStalls,
                    (unsigned long long)r.rbtFullStalls);
        return 0;
    }

    // Baseline reference for the slowdown column.
    auto base_mod = workloads::buildApp(app, base_cfg.compiler);
    core::WholeSystemSim base_sim(*base_mod, base_cfg);
    auto base = base_sim.run("main");

    core::WholeSystemSim sim(*mod, cfg);
    sim.setExpectedInstrs(workloads::estimatedInstrs(app));
    // Size the trace ring for the run: a few events per instruction,
    // clamped to a sane window (the ring keeps the newest events).
    sim::TraceBuffer trace(
        std::min<std::size_t>(
            std::max<std::size_t>(
                std::bit_ceil(workloads::estimatedInstrs(app) / 4),
                1 << 12),
            1 << 20),
        sim::parseTraceMask(trace_mask));
    if (!trace_out.empty())
        sim.attachTrace(&trace);
    // Periodic gauge sampling: every track probes component state at
    // scheduled tick boundaries, so the series is identical however
    // the run is driven (interpreted, replayed, or forked).
    sim::CounterSampler sampler(
        sample_period.value_or(0) > 0 ? *sample_period
                                      : core::defaultSamplePeriod(cfg));
    const bool sampling = sample_period.has_value();
    if (sampling)
        sim.attachSampler(&sampler);
    auto r = sim.run("main");

    // With `--stats-json -` the JSON owns stdout (see runBatch).
    std::fprintf(stats_json == "-" ? stderr : stdout,
                 "%s on %s/%s: %llu instrs, %llu cycles "
                 "(slowdown %.3fx), region %.1f instrs, "
                 "PB stalls %llu, RBT stalls %llu\n",
                 app.name.c_str(), scheme.c_str(), nvm.c_str(),
                 (unsigned long long)r.instructions,
                 (unsigned long long)r.cycles,
                 static_cast<double>(r.cycles) /
                     static_cast<double>(base.cycles),
                 r.meanRegionInstrs,
                 (unsigned long long)r.pbFullStalls,
                 (unsigned long long)r.rbtFullStalls);

    if (stats)
        sim.dumpStats(std::cout);
    if (!stats_json.empty()) {
        writeJsonOutput(stats_json, [&sim](std::ostream &os) {
            sim.exportStatsJson(os);
        });
    }

    if (crash_sweep > 0 || crash_kind) {
        // One budget for every pass of the sweep: preparation, capture
        // and each point's crash run.
        constexpr std::uint64_t kSweepMaxInstrs = 200'000'000;
        // One interpreted pass prepares the sweep: recording the
        // commit stream, with this config's cache outcomes, yields the
        // golden facts; replaying it yields the crash points; and every
        // sweep point replays its pristine epochs from it instead of
        // re-interpreting the prefix.
        const fault::GoldenRun golden =
            fault::prepareGoldenRun(*mod, cfg, crash_sweep, kSweepMaxInstrs);
        const fault::CrashPointSet &set = golden.points;

        std::vector<fault::CrashPoint> chosen;
        if (crash_kind) {
            std::vector<fault::CrashPoint> of_kind;
            for (const auto &p : set.points)
                if (p.kind == *crash_kind)
                    of_kind.push_back(p);
            if (crash_index >= of_kind.size()) {
                std::fprintf(stderr,
                             "only %zu %s point(s) in this run\n",
                             of_kind.size(), crash_kind_name.c_str());
                return 2;
            }
            chosen.push_back(of_kind[crash_index]);
        } else {
            chosen = set.points;
            // Evenly subsample the merged list down to N points.
            const std::size_t want = crash_sweep;
            if (chosen.size() > want) {
                std::vector<fault::CrashPoint> picked;
                for (std::size_t i = 0; i < want; ++i) {
                    picked.push_back(
                        chosen[i * (chosen.size() - 1) /
                               (want - 1 ? want - 1 : 1)]);
                }
                chosen = std::move(picked);
            }
        }
        if (chosen.empty()) {
            std::fprintf(stderr,
                         "no interesting crash points found\n");
            return 2;
        }

        fault::GoldenRef g;
        g.module = mod.get();
        g.config = &cfg;
        g.result = golden.result;
        g.memory = &golden.memory;
        g.ioStream = &golden.io;
        g.stream = &golden.stream;
        // Capture a checkpoint at every sweep tick in one pass; each
        // point then forks from its checkpoint and simulates only
        // crash + recovery + tail (identical verdicts either way).
        core::CheckpointCache ckpts;
        if (fork_sweep) {
            std::vector<Tick> ticks;
            for (const auto &p : chosen)
                ticks.push_back(p.tick);
            std::sort(ticks.begin(), ticks.end());
            ticks.erase(std::unique(ticks.begin(), ticks.end()),
                        ticks.end());
            core::WholeSystemSim capture_sim(*mod, cfg);
            auto cr = capture_sim.captureCheckpoints(
                {core::ThreadSpec{}}, ticks, kSweepMaxInstrs, g.stream);
            for (auto &ck : cr.checkpoints)
                ckpts.insert(app.name + "|" + scheme + ":" +
                                 std::to_string(ck->crashTick),
                             ck);
            g.ckptCache = &ckpts;
            g.ckptKeyBase = app.name + "|" + scheme;
        }
        int failures = 0;
        for (const auto &p : chosen) {
            fault::CampaignCase c;
            c.app = app.name;
            c.scheme = scheme;
            c.pointKind = p.kind;
            c.schedule = fault::CrashSchedule{p.tick};
            auto res = fault::runCase(c, g, kSweepMaxInstrs);
            if (!res.pass)
                ++failures;
            std::printf(
                "crash @%-8llu %-14s replay passes %llu -> %s%s%s\n",
                (unsigned long long)p.tick,
                fault::crashPointKindName(p.kind),
                (unsigned long long)res.faults.undoReplayPasses,
                res.pass ? "CONSISTENT" : "CORRUPT",
                res.detail.empty() ? "" : ": ",
                res.detail.c_str());
        }
        std::printf("%zu crash point(s), %d failure(s)\n",
                    chosen.size(), failures);
        if (fork_sweep) {
            auto cs = ckpts.stats();
            std::printf("checkpoint cache: %llu captured, %llu "
                        "forks, %llu fallbacks (%s), %.1f MB "
                        "resident (%.1f MB shared logs)\n",
                        (unsigned long long)cs.captures,
                        (unsigned long long)cs.forks,
                        (unsigned long long)cs.fallbacks,
                        cs.fallbackCauses.describe().c_str(),
                        (double)cs.bytesResident / (1024.0 * 1024.0),
                        (double)cs.logBytesResident /
                            (1024.0 * 1024.0));
        }
        return failures == 0 ? 0 : 1;
    }

    if (crash_frac >= 0.0) {
        interp::SparseMemory golden_mem;
        Word golden =
            interp::runToCompletion(*mod, golden_mem, "main", {});
        auto crash = static_cast<Tick>(r.cycles * crash_frac);
        auto out = sim.runWithCrash({core::ThreadSpec{}}, crash);
        auto check =
            core::checkGlobals(*mod, golden_mem, sim.memory());
        bool ok = check.consistent &&
                  out.result.returnValues[0] == golden;
        std::printf("crash @%llu: %llu persisted, %llu reverted, "
                    "%llu re-executed, resume region %llu -> %s\n",
                    (unsigned long long)out.crashTick,
                    (unsigned long long)out.persistedStores,
                    (unsigned long long)out.revertedStores,
                    (unsigned long long)out.reexecutedInstrs,
                    (unsigned long long)out.resumeRegions[0],
                    ok ? "CONSISTENT" : "CORRUPT");
        if (!trace_out.empty()) {
            writeJsonOutput(
                trace_out,
                [&trace, &sampler, sampling](std::ostream &os) {
                    trace.exportChromeJson(
                        os, sampling ? &sampler : nullptr);
                });
        }
        return ok ? 0 : 1;
    }

    if (!trace_out.empty()) {
        writeJsonOutput(
            trace_out,
            [&trace, &sampler, sampling](std::ostream &os) {
                trace.exportChromeJson(os,
                                       sampling ? &sampler : nullptr);
            });
        std::fprintf(stderr,
                     "trace: %llu events recorded (%llu dropped) -> "
                     "%s\n",
                     (unsigned long long)trace.recorded(),
                     (unsigned long long)trace.dropped(),
                     trace_out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // cwsp_fatal throws; surface the message without a terminate().
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
