#include "figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>

#include "compiler/pass_manager.hh"
#include "mem/hierarchy.hh"
#include "mem/nvm_device.hh"
#include "sim/logging.hh"
#include "workloads/kernels.hh"

namespace cwsp::bench {

namespace {

double
slowdownOver(const core::RunResult &run, const core::RunResult &base)
{
    return static_cast<double>(run.cycles) /
           static_cast<double>(base.cycles);
}

/** Only called on a group with bars; summed in bar order. */
double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

core::SystemConfig
cwspWith(const std::function<void(core::SystemConfig &)> &tweak)
{
    auto cfg = core::makeSystemConfig("cwsp");
    tweak(cfg);
    return cfg;
}

/**
 * Cycles of @p workers threads, one per core, each running "worker"
 * of @p mod with its thread index as argument.
 */
Tick
multicoreCycles(std::unique_ptr<ir::Module> mod, core::SystemConfig cfg,
                std::uint32_t workers)
{
    cfg.numCores = workers;
    compiler::compileForWsp(*mod, cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    std::vector<core::ThreadSpec> threads;
    for (std::uint32_t t = 0; t < workers; ++t)
        threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
    return sim.run(threads).cycles;
}

/** The series rows of a data figure, with its summaries. */
FigureCode
seriesCode(const Figure &fig,
           const std::vector<workloads::AppProfile> &roster)
{
    std::vector<workloads::AppProfile> apps;
    for (const auto &app : roster)
        if (fig.apps == AppSet::Roster || app.memIntensive)
            apps.push_back(app);

    FigureCode code;
    for (const auto &s : fig.series) {
        for (const auto &app : apps) {
            code.points.push_back(driver::DesignPoint{app, s.config});
            if (!fig.field)
                code.points.push_back(driver::DesignPoint{
                    app, s.baseline.value_or(fig.baseline)});
        }
    }
    code.rows = [&fig, apps](const RunLookup &run,
                             const std::vector<double> &) {
        std::vector<FigureRow> rows;
        for (const auto &s : fig.series) {
            const std::string prefix = fig.name + "/" + s.label + "/";
            const auto &base = s.baseline.value_or(fig.baseline);
            std::vector<double> bars;
            for (const auto &app : apps) {
                const auto &r = run(app, s.config);
                double v = fig.field ? fig.field(r)
                                     : slowdownOver(r, run(app, base));
                rows.push_back(FigureRow{
                    prefix + app.suite + "/" + app.name, fig.metric, v});
                bars.push_back(v);
            }
            // A summary row only for a group that has bars.
            if (bars.empty())
                continue;
            switch (fig.summary) {
              case Summary::SuiteGmeans:
                for (const auto &suite : workloads::suiteNames()) {
                    std::vector<double> group;
                    for (std::size_t i = 0; i < apps.size(); ++i)
                        if (apps[i].suite == suite)
                            group.push_back(bars[i]);
                    if (!group.empty())
                        rows.push_back(FigureRow{prefix + "gmean/" + suite,
                                                 fig.metric, gmean(group)});
                }
                rows.push_back(FigureRow{prefix + "gmean/all", fig.metric,
                                         gmean(bars)});
                break;
              case Summary::Gmean:
                rows.push_back(
                    FigureRow{prefix + "gmean", fig.metric, gmean(bars)});
                break;
              case Summary::Mean:
                rows.push_back(
                    FigureRow{prefix + "mean", fig.metric, mean(bars)});
                break;
              case Summary::None:
                break;
            }
        }
        return rows;
    };
    return code;
}

/**
 * Fig. 26's shared-WPQ contention: eight cores hammering the two
 * shared memory controllers, the paper's setup, where WPQ capacity
 * actually matters. Normalized to the largest queue.
 */
FigureCode
eightCoreContention()
{
    static constexpr std::uint32_t kEntries[] = {2, 4, 8, 16, 24, 32};
    FigureCode code;
    for (std::uint32_t entries : kEntries) {
        code.tasks.push_back([entries] {
            workloads::ParallelParams pp;
            pp.numWorkers = 8;
            pp.itersPerWorker = 1'500;
            pp.wordsPerWorker = 1 << 12;
            pp.storesPerBurst = 6;
            pp.computeOps = 24;
            pp.atomicEvery = 64;
            auto cfg = core::makeSystemConfig("cwsp");
            cfg.hierarchy.wpqCapacity = entries;
            return static_cast<double>(multicoreCycles(
                workloads::buildParallelKernel(pp), cfg, pp.numWorkers));
        });
    }
    code.rows = [](const RunLookup &, const std::vector<double> &cycles) {
        std::vector<FigureRow> rows;
        for (std::size_t i = 0; i < std::size(kEntries); ++i)
            rows.push_back(FigureRow{
                "fig26/8core-contention/wpq" + std::to_string(kEntries[i]),
                "slowdown_vs_wpq32", cycles[i] / cycles.back()});
        return rows;
    };
    return code;
}

/**
 * Multicore scaling (beyond the paper's single aggregate): cWSP's
 * overhead as 1 to 8 cores share the two memory controllers and
 * their WPQs. The paper's design goal is that MC speculation keeps
 * boundaries stall-free under 8-core persist traffic; a
 * SPLASH3-class shared-read / partitioned-write mix, a store-burst
 * kernel and a compute-heavy kernel quantify it per core count.
 */
FigureCode
multicoreScaling()
{
    using Build = std::function<std::unique_ptr<ir::Module>()>;
    auto parallel = [](std::uint32_t workers, std::uint32_t stores,
                       std::uint32_t compute, std::uint32_t atomic) {
        workloads::ParallelParams pp;
        pp.numWorkers = workers;
        pp.itersPerWorker = 2'000;
        pp.wordsPerWorker = 1 << 12;
        pp.storesPerBurst = stores;
        pp.computeOps = compute;
        pp.atomicEvery = atomic;
        return Build([pp] { return workloads::buildParallelKernel(pp); });
    };

    FigureCode code;
    std::vector<std::string> names;
    auto add = [&](const std::string &name, std::uint32_t workers,
                   const Build &build) {
        names.push_back("multicore/" + name + "/cores" +
                        std::to_string(workers));
        for (const char *scheme : {"cwsp", "baseline"})
            code.tasks.push_back([build, scheme, workers] {
                return static_cast<double>(multicoreCycles(
                    build(), core::makeSystemConfig(scheme), workers));
            });
    };
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        add("splash-mix", workers, [workers] {
            workloads::MixParams mp = workloads::appByName("ocg").mix;
            mp.iterations = 2'500;
            return workloads::buildMixKernel(mp, workers);
        });
    }
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        add("store-heavy", workers, parallel(workers, 4, 8, 64));
        add("compute-heavy", workers, parallel(workers, 1, 40, 256));
    }
    code.rows = [names](const RunLookup &,
                        const std::vector<double> &cycles) {
        std::vector<FigureRow> rows;
        for (std::size_t i = 0; i < names.size(); ++i)
            rows.push_back(FigureRow{names[i], "slowdown",
                                     cycles[2 * i] / cycles[2 * i + 1]});
        return rows;
    };
    return code;
}

double
ratioOrZero(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/**
 * Compiler-side ablations beyond the paper's figures (DESIGN.md
 * §7): checkpoint pruning (static checkpoints removed, and the
 * run-time difference), the cost of cutting register WAR hazards in
 * the compiler instead of relying on cWSP's always-logged checkpoint
 * stores, and region-length capping (Capri's 29-instruction bound).
 */
FigureCode
compilerAblation()
{
    auto baseline = core::makeSystemConfig("baseline");
    auto cwsp = core::makeSystemConfig("cwsp");
    auto unpruned = cwspWith(
        [](auto &c) { c.compiler.pruneCheckpoints = false; });
    auto cuts = cwspWith(
        [](auto &c) { c.compiler.cutRegisterAntideps = true; });

    std::vector<workloads::AppProfile> apps;
    for (const char *name : {"lulesh", "water-ns", "radix", "tpcc"})
        apps.push_back(workloads::appByName(name));

    FigureCode code;
    for (const auto &app : apps) {
        for (const auto *cfg : {&baseline, &cwsp, &unpruned, &cuts})
            code.points.push_back(driver::DesignPoint{app, *cfg});
        code.tasks.push_back([app] {
            compiler::CompileStats stats;
            workloads::buildApp(app, compiler::cwspOptions(), &stats);
            return ratioOrZero(stats.checkpointsPruned,
                               stats.checkpointsInserted);
        });
        code.tasks.push_back([app] {
            compiler::CompileStats capped, natural;
            workloads::buildApp(app, compiler::capriOptions(), &capped);
            workloads::buildApp(app, compiler::cwspOptions(), &natural);
            return ratioOrZero(capped.boundaries, natural.boundaries);
        });
    }
    code.rows = [=](const RunLookup &run,
                    const std::vector<double> &stats) {
        std::vector<FigureRow> rows;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const auto &app = apps[i];
            auto slowdown = [&](const core::SystemConfig &cfg) {
                return slowdownOver(run(app, cfg), run(app, baseline));
            };
            const std::string &n = app.name;
            rows.push_back(
                FigureRow{"ablation/pruned-checkpoint-fraction/" + n,
                          "fraction", stats[2 * i]});
            rows.push_back(FigureRow{"ablation/pruning-speedup/" + n,
                                     "speedup",
                                     slowdown(unpruned) / slowdown(cwsp)});
            rows.push_back(FigureRow{
                "ablation/register-war-cuts-overhead/" + n, "slowdown_ratio",
                slowdown(cuts) / slowdown(cwsp)});
            rows.push_back(FigureRow{"ablation/capri-region-cap-regions/" + n,
                                     "boundary_ratio", stats[2 * i + 1]});
        }
        return rows;
    };
    return code;
}

/** @p scheme with its persist path at @p bw GB/s. */
core::SystemConfig
atBandwidth(const std::string &scheme, double bw)
{
    auto cfg = core::makeSystemConfig(scheme);
    cfg.scheme.path.bandwidthGBs = bw;
    return cfg;
}

/** Fig. 15's six cumulative optimization steps. */
core::SystemConfig
optimizationStep(int step)
{
    auto cfg = core::makeSystemConfig("cwsp");
    // Steps 1..5 run without checkpoint pruning (it is added last).
    if (step < 6)
        cfg.compiler.pruneCheckpoints = false;
    cfg.scheme.features.persistPath = step >= 2;
    cfg.scheme.features.mcSpeculation = step >= 3;
    cfg.scheme.features.wbDelay = step >= 4;
    cfg.scheme.features.wpqDelay = step >= 5;
    core::syncFeatureFlags(cfg);
    return cfg;
}

std::vector<Figure>
buildTable()
{
    std::vector<Figure> t;
    auto cwsp = core::makeSystemConfig("cwsp");
    auto baseline = core::makeSystemConfig("baseline");

    // Fig. 1: CXL-PMEM over CXL-DRAM main memory (no persistence) as
    // the hierarchy deepens from 2 to 5 levels. The paper reports
    // the penalty shrinking from ~2.1x to ~1.34x: the motivation for
    // WSP on deep hierarchies.
    {
        Figure f{.name = "fig01", .metric = "pmem_over_dram",
                 .apps = AppSet::MemIntensive, .summary = Summary::Gmean};
        for (unsigned levels = 2; levels <= 5; ++levels) {
            auto dram = baseline;
            dram.hierarchy = mem::figure1Hierarchy(levels);
            dram.hierarchy.tech = mem::cxlDram();
            auto pmem = dram;
            pmem.hierarchy.tech = mem::cxlD();
            f.series.push_back(
                Series{"levels" + std::to_string(levels), pmem, dram});
        }
        t.push_back(std::move(f));
    }

    // Fig. 6: mean L1D write-buffer occupancy, baseline vs cWSP,
    // whose stale-read rule may delay writebacks. The paper reports
    // ~0.39 entries for both: the persist path outruns the regular
    // path, so the delay is free.
    t.push_back(Figure{
        .name = "fig06", .metric = "wb_occupancy",
        .field = [](const core::RunResult &r) { return r.meanWbOccupancy; },
        .summary = Summary::None,
        .series = {Series{"baseline", baseline}, Series{"cwsp", cwsp}}});

    // Fig. 8: loads hitting an in-flight WPQ entry per million
    // instructions under cWSP. The paper reports ~1, which is why
    // delaying such loads (Section V-A2) costs nothing.
    t.push_back(Figure{
        .name = "fig08", .metric = "wpq_hpmi",
        .field = [](const core::RunResult &r) { return r.wpqHitsPerMi(); },
        .summary = Summary::Mean,
        .series = {Series{"cwsp", cwsp}}});

    // Fig. 13: cWSP over the baseline at the default 4 GB/s persist
    // path. The paper reports a ~6 % gmean, SPLASH3 the worst suite.
    t.push_back(Figure{.name = "fig13", .series = {Series{"cwsp", cwsp}}});

    // Fig. 14: cWSP against ReplayCache and Capri at 4 GB/s
    // (practical) and 32 GB/s (ideal) persist paths. The paper
    // reports ReplayCache ~4.3x, Capri-4GB ~1.27x, cWSP ~1.06x; Capri
    // matches cWSP only at the ideal bandwidth, since its 64-byte
    // entries saturate the practical path.
    t.push_back(Figure{
        .name = "fig14",
        .series = {Series{"replaycache", atBandwidth("replaycache", 4.0)},
                   Series{"capri-4GB", atBandwidth("capri", 4.0)},
                   Series{"capri-32GB", atBandwidth("capri", 32.0)},
                   Series{"cwsp-4GB", atBandwidth("cwsp", 4.0)},
                   Series{"cwsp-32GB", atBandwidth("cwsp", 32.0)}}});

    // Fig. 15: the cumulative impact of each cWSP optimization. The
    // paper: region formation alone ~4 %, adding the persist path
    // ~10 %, MC speculation / WB delaying / WPQ delaying ~free, and
    // checkpoint pruning brings the total down to ~6 %.
    {
        Figure f{.name = "fig15", .summary = Summary::Gmean};
        const char *steps[] = {"region-formation", "persist-path",
                               "mc-speculation",   "wb-delaying",
                               "wpq-delaying",     "pruning"};
        for (int step = 1; step <= 6; ++step)
            f.series.push_back(Series{"step" + std::to_string(step) + "-" +
                                          steps[step - 1],
                                      optimizationStep(step)});
        t.push_back(std::move(f));
    }

    // Table I + Fig. 17: cWSP on the four CXL memory devices, each
    // normalized to the baseline on the same device. The paper
    // reports ~4 % regardless of device speed, slightly higher on
    // the faster devices (cWSP gains less from fast memory than the
    // baseline does).
    {
        Figure f{.name = "fig17", .apps = AppSet::MemIntensive,
                 .summary = Summary::Gmean};
        for (const char *dev : {"cxl-a", "cxl-b", "cxl-c", "cxl-d"}) {
            auto cw = cwsp;
            cw.hierarchy.tech = mem::nvmTechByName(dev);
            auto base = baseline;
            base.hierarchy.tech = mem::nvmTechByName(dev);
            f.series.push_back(Series{dev, cw, base});
        }
        t.push_back(std::move(f));
    }

    // Fig. 18: cWSP (DRAM cache enabled by WSP) against ideal
    // partial-system persistence (BBB/eADR/LightPC: free persistence,
    // no DRAM cache). The paper reports ~3 % vs ~52 % on the
    // memory-intensive subset: the argument for whole-system
    // persistence.
    t.push_back(Figure{
        .name = "fig18", .apps = AppSet::MemIntensive,
        .summary = Summary::Gmean,
        .series = {Series{"cwsp", cwsp},
                   Series{"psp", core::makeSystemConfig("psp")}}});

    // Fig. 19: dynamic instructions per recoverable region under
    // cWSP. The paper reports 38.15 on average: short enough for fast
    // recovery, long enough to overlap the persist latency through a
    // 16-entry RBT.
    t.push_back(Figure{
        .name = "fig19", .metric = "instrs_per_region",
        .field = [](const core::RunResult &r) { return r.meanRegionInstrs; },
        .summary = Summary::Mean,
        .series = {Series{"cwsp", cwsp}}});

    // Fig. 20: cWSP on a 3-level SRAM hierarchy (private L2 + shared
    // L3 above the DRAM cache). The paper reports ~8 %: asynchronous
    // persistence keeps working as the hierarchy deepens.
    {
        auto base = baseline;
        base.hierarchy = mem::threeLevelHierarchy();
        auto cw = cwsp;
        cw.hierarchy = mem::threeLevelHierarchy();
        cw.hierarchy.dropLlcDirtyEvictions =
            cwsp.hierarchy.dropLlcDirtyEvictions;
        core::syncFeatureFlags(cw);
        t.push_back(Figure{.name = "fig20", .summary = Summary::Gmean,
                           .baseline = base,
                           .series = {Series{"cwsp", cw}}});
    }

    // Fig. 21: persist-path bandwidth from 1 to 32 GB/s. Overhead
    // falls with bandwidth and flattens beyond ~10 GB/s thanks to the
    // 8-byte persist granularity.
    {
        Figure f{.name = "fig21"};
        for (double bw : {1.0, 2.0, 4.0, 10.0, 20.0, 32.0})
            f.series.push_back(
                Series{"bw" + std::to_string(static_cast<int>(bw)) + "GB",
                       atBandwidth("cwsp", bw)});
        t.push_back(std::move(f));
    }

    // Fig. 22: region boundary table entries. Small RBTs stall
    // short-region suites (SPLASH3); the paper reports ~11 % at 8
    // entries and ~4 % at 32. Its knee sits at 8 entries under 8-core
    // contention; single-core runs persist faster, shifting the knee
    // to ~2-4 entries, so the sweep extends downward to expose it.
    {
        Figure f{.name = "fig22"};
        for (std::uint32_t entries : {2u, 4u, 8u, 16u, 32u})
            f.series.push_back(Series{
                "rbt" + std::to_string(entries),
                cwspWith([&](auto &c) { c.scheme.rbtCapacity = entries; })});
        t.push_back(std::move(f));
    }

    // Fig. 23: persist-path round trip from 10 to 40 ns. The RBT
    // overlaps the latency with region execution, so the paper sees
    // almost no sensitivity.
    {
        Figure f{.name = "fig23"};
        for (unsigned ns : {10u, 20u, 30u, 40u}) {
            // One way = ns/2 at 2 GHz = ns cycles.
            f.series.push_back(Series{
                "lat" + std::to_string(ns) + "ns",
                cwspWith([&](auto &c) { c.scheme.path.oneWayLatency = ns; })});
        }
        t.push_back(std::move(f));
    }

    // Fig. 24: L1D write-buffer entries. The paper reports no
    // sensitivity: the persist path outruns the regular path, so the
    // stale-read writeback delay never backs the WB up.
    {
        Figure f{.name = "fig24"};
        for (std::uint32_t entries : {8u, 16u, 32u})
            f.series.push_back(Series{
                "wb" + std::to_string(entries),
                cwspWith([&](auto &c) { c.hierarchy.wbCapacity = entries; })});
        t.push_back(std::move(f));
    }

    // Fig. 25: persist-buffer entries (default 50). The paper reports
    // near-insensitivity (~7 % at 20) thanks to asynchronous store
    // persistence.
    {
        Figure f{.name = "fig25"};
        for (std::uint32_t entries : {20u, 40u, 50u, 60u})
            f.series.push_back(Series{
                "pb" + std::to_string(entries),
                cwspWith([&](auto &c) { c.scheme.pbCapacity = entries; })});
        t.push_back(std::move(f));
    }

    // Fig. 26: NVM write pending queue entries (default 24). The
    // paper reports ~11 % at 8 (write-heavy SPLASH3 spikes to ~31 %)
    // and flat behaviour from 24. Single-core runs press the shared
    // WPQ less than the paper's 8 cores, so the sweep extends below 8
    // entries, and an 8-core series follows.
    {
        Figure f{.name = "fig26", .code = eightCoreContention};
        for (std::uint32_t entries : {2u, 4u, 8u, 16u, 24u, 32u})
            f.series.push_back(Series{
                "wpq" + std::to_string(entries),
                cwspWith(
                    [&](auto &c) { c.hierarchy.wpqCapacity = entries; })});
        t.push_back(std::move(f));
    }

    // Fig. 27: NVM technologies, each normalized to the baseline on
    // the same technology. The paper reports a steady ~8 %, slightly
    // higher on the faster technologies.
    {
        Figure f{.name = "fig27"};
        for (const char *tech : {"pmem", "sttram", "reram"}) {
            auto cw = cwsp;
            cw.hierarchy.tech = mem::nvmTechByName(tech);
            auto base = baseline;
            base.hierarchy.tech = mem::nvmTechByName(tech);
            f.series.push_back(Series{tech, cw, base});
        }
        t.push_back(std::move(f));
    }

    t.push_back(Figure{.name = "ablation", .code = compilerAblation});
    t.push_back(Figure{.name = "multicore", .code = multicoreScaling});
    return t;
}

} // namespace

const std::vector<Figure> &
figureTable()
{
    static const std::vector<Figure> table = buildTable();
    return table;
}

double
gmean(const std::vector<double> &values)
{
    if (values.empty()) {
        cwsp_warn("gmean over an empty bucket — misconfigured sweep "
                  "or bar cases filtered out; reporting NaN");
        return std::numeric_limits<double>::quiet_NaN();
    }
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

FigureReport
evaluateFigures(driver::BatchRunner &runner,
                const std::vector<workloads::AppProfile> &roster)
{
    const auto &table = figureTable();
    std::vector<FigureCode> codes;
    std::vector<std::size_t> owner;
    for (std::size_t f = 0; f < table.size(); ++f) {
        if (!table[f].series.empty()) {
            codes.push_back(seriesCode(table[f], roster));
            owner.push_back(f);
        }
        if (table[f].code) {
            codes.push_back(table[f].code());
            owner.push_back(f);
        }
    }

    std::vector<driver::DesignPoint> points;
    for (const auto &c : codes)
        points.insert(points.end(), c.points.begin(), c.points.end());
    // App-major: each app's streams are recorded, replayed by all its
    // points and then evicted. In figure order a stream's users are a
    // whole figure apart, and the LRU stream cache evicts it between
    // them (1,317 recordings of 114 streams on the full roster).
    std::map<std::string, std::size_t> appRank;
    for (const auto &p : points)
        appRank.emplace(p.app.name, appRank.size());
    std::stable_sort(points.begin(), points.end(),
                     [&](const auto &a, const auto &b) {
                         return appRank.at(a.app.name) <
                                appRank.at(b.app.name);
                     });
    auto results = runner.runAll(points);
    std::map<std::string, const core::RunResult *> byKey;
    for (std::size_t i = 0; i < points.size(); ++i)
        byKey.emplace(driver::BatchRunner::pointKey(points[i]), &results[i]);
    RunLookup run = [&byKey](const workloads::AppProfile &app,
                             const core::SystemConfig &cfg)
        -> const core::RunResult & {
        auto it = byKey.find(
            driver::BatchRunner::pointKey(driver::DesignPoint{app, cfg}));
        cwsp_assert(it != byKey.end(), "figure reads ", app.name,
                    " at a point it did not put in the batch");
        return *it->second;
    };

    std::vector<std::vector<double>> values(codes.size());
    std::vector<std::function<void()>> tasks;
    for (std::size_t c = 0; c < codes.size(); ++c) {
        values[c].resize(codes[c].tasks.size());
        for (std::size_t i = 0; i < codes[c].tasks.size(); ++i)
            tasks.push_back(
                [&, c, i] { values[c][i] = codes[c].tasks[i](); });
    }
    runner.runTasks(tasks);

    FigureReport report;
    report.points = points.size();
    report.batch = runner.stats();
    for (std::size_t c = 0; c < codes.size(); ++c) {
        const std::string &name = table[owner[c]].name;
        if (report.figures.empty() || report.figures.back().name != name)
            report.figures.push_back(FigureReport::Entry{name, {}});
        auto rows = codes[c].rows(run, values[c]);
        auto &dst = report.figures.back().rows;
        dst.insert(dst.end(), rows.begin(), rows.end());
    }
    return report;
}

void
printFigures(std::ostream &os, const FigureReport &report)
{
    char line[256];
    for (const auto &fig : report.figures) {
        for (const auto &row : fig.rows) {
            std::snprintf(line, sizeof line, "%-48s %-18s %.6g\n",
                          row.name.c_str(), row.metric.c_str(), row.value);
            os << line;
        }
    }
}

void
writeFiguresJson(std::ostream &os, const FigureReport &report)
{
    const auto &b = report.batch;
    os << "{\n \"batch\": {\"points\": " << report.points
       << ", \"simulated\": " << b.simulated
       << ", \"disk_hits\": " << b.diskHits
       << ", \"memory_hits\": " << b.memoryHits
       << ", \"compiles\": " << b.modulesCompiled
       << ", \"module_cache_hits\": " << b.moduleCacheHits
       << ", \"streams_recorded\": " << b.streamsRecorded
       << ", \"replayed\": " << b.replayedRuns
       << ", \"interpreted\": " << b.interpretedRuns << "},\n"
       << " \"figures\": [";
    char value[64];
    for (std::size_t f = 0; f < report.figures.size(); ++f) {
        const auto &fig = report.figures[f];
        os << (f ? ",\n" : "\n") << "  {\"name\": \"" << fig.name
           << "\", \"rows\": [";
        for (std::size_t r = 0; r < fig.rows.size(); ++r) {
            const auto &row = fig.rows[r];
            // 17 significant digits: the value round-trips exactly.
            std::snprintf(value, sizeof value, "%.17g", row.value);
            os << (r ? ",\n" : "\n") << "   {\"name\": \"" << row.name
               << "\", \"" << row.metric << "\": "
               << (std::isfinite(row.value) ? value : "null") << "}";
        }
        os << "\n  ]}";
    }
    os << "\n ]\n}\n";
}

} // namespace cwsp::bench
