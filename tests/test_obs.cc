/**
 * @file
 * Observability-layer tests: span reconstruction, exact-sum stall
 * attribution, the online invariant monitor (clean on every scheme,
 * loud on corrupted streams), trace determinism, and the baseline
 * differ.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "obs/baseline_diff.hh"
#include "obs/invariant_monitor.hh"
#include "obs/span_builder.hh"
#include "obs/stall_attribution.hh"
#include "sim/trace.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

/** Run @p app under @p cfg with a full-mask trace; return snapshot. */
std::vector<sim::TraceEvent>
traceRun(const std::string &app, const core::SystemConfig &cfg,
         core::RunResult *result_out = nullptr)
{
    auto mod = workloads::buildApp(workloads::appByName(app),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim::TraceBuffer trace(1u << 20, sim::kTraceAll);
    sim.attachTrace(&trace);
    auto r = sim.run("main");
    if (result_out)
        *result_out = r;
    return trace.snapshot();
}

/** A cwsp config with every persist-side resource squeezed. */
core::SystemConfig
pressuredCwspConfig()
{
    auto cfg = core::makeSystemConfig("cwsp");
    cfg.scheme.pbCapacity = 2;
    cfg.scheme.rbtCapacity = 2;
    cfg.scheme.path.bandwidthGBs = 0.25;
    cfg.hierarchy.wpqCapacity = 2;
    return cfg;
}

sim::TraceEvent
mkEvent(sim::TraceEventKind kind, std::uint16_t lane, Tick tick,
        Tick duration = 0, std::uint64_t arg0 = 0,
        std::uint64_t arg1 = 0)
{
    sim::TraceEvent ev;
    ev.kind = kind;
    ev.lane = lane;
    ev.tick = tick;
    ev.duration = duration;
    ev.arg0 = arg0;
    ev.arg1 = arg1;
    return ev;
}

// ---------------------------------------------------------------
// Span reconstruction
// ---------------------------------------------------------------

TEST(SpanBuilder, ReconstructsPhasesFromPointEvents)
{
    using sim::TraceEventKind;
    std::vector<sim::TraceEvent> events = {
        mkEvent(TraceEventKind::RegionBegin, 0, 10, 0, 1, 7),
        mkEvent(TraceEventKind::RegionEnd, 0, 50, 0, 1),
        // Own stores ack at 65; RBT releases the entry at 80.
        mkEvent(TraceEventKind::RegionPersist, 0, 80, 0, 1, 65),
    };
    auto spans = obs::buildSpans(events);
    ASSERT_EQ(spans.size(), 1u);
    const auto &s = spans[0];
    EXPECT_EQ(s.region, 1u);
    EXPECT_EQ(s.staticRegion, 7u);
    EXPECT_TRUE(s.closed);
    EXPECT_TRUE(s.retired);
    EXPECT_EQ(s.executeCycles(), 40u);
    EXPECT_EQ(s.drainCycles(), 15u);    // 65 - 50
    EXPECT_EQ(s.orderWaitCycles(), 15u); // 80 - 65
}

TEST(SpanBuilder, InfersCloseWhenRegionEndMissing)
{
    using sim::TraceEventKind;
    std::vector<sim::TraceEvent> events = {
        mkEvent(TraceEventKind::RegionBegin, 0, 10, 0, 3, 0),
        mkEvent(TraceEventKind::RegionPersist, 0, 90, 0, 3, 70),
    };
    auto spans = obs::buildSpans(events);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_TRUE(spans[0].closed);
    EXPECT_EQ(spans[0].end, 70u); // best bound: own-persist max
    EXPECT_TRUE(spans[0].retired);
}

TEST(SpanBuilder, RealRunSpansAreWellFormed)
{
    core::RunResult result;
    auto events =
        traceRun("fft", core::makeSystemConfig("cwsp"), &result);
    auto spans = obs::buildSpans(events);
    auto summary = obs::summarizeSpans(spans);
    ASSERT_GT(summary.begun, 0u);
    EXPECT_GE(summary.begun, summary.closed);
    EXPECT_GE(summary.closed, summary.retired);
    EXPECT_GT(summary.retired, 0u);
    for (const auto &s : spans) {
        if (s.closed)
            EXPECT_GE(s.end, s.begin);
        if (s.retired) {
            EXPECT_GE(s.retire, s.end);
            // Each phase fits inside the region's total lifetime.
            EXPECT_EQ(s.executeCycles() + s.drainCycles() +
                          s.orderWaitCycles(),
                      s.retire - s.begin);
        }
    }
    // Spans come back ordered by begin tick.
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].begin, spans[i].begin);
}

// ---------------------------------------------------------------
// Stall attribution
// ---------------------------------------------------------------

TEST(StallAttribution, ChargesEachEventToItsCause)
{
    using sim::StallCause;
    using sim::TraceEventKind;
    std::vector<sim::TraceEvent> events = {
        mkEvent(TraceEventKind::PbStall, 0, 10, 10,
                static_cast<std::uint64_t>(StallCause::PbFull)),
        mkEvent(TraceEventKind::RbtStall, 0, 30, 5,
                static_cast<std::uint64_t>(StallCause::RbtFull)),
        mkEvent(TraceEventKind::SchemeDrain, 0, 40, 7, 3,
                static_cast<std::uint64_t>(
                    StallCause::PathBandwidth)),
        // MC-lane queue pressure: informative, not in the total.
        mkEvent(TraceEventKind::WpqFull, sim::mcLane(0), 50, 9,
                static_cast<std::uint64_t>(StallCause::WpqFull)),
    };
    auto attr = obs::attributeStalls(events);
    EXPECT_EQ(attr.totalStallCycles, 22u);
    EXPECT_EQ(attr.totalStallEvents, 3u);
    EXPECT_EQ(attr.cycles[static_cast<int>(StallCause::PbFull)], 10u);
    EXPECT_EQ(attr.cycles[static_cast<int>(StallCause::RbtFull)], 5u);
    EXPECT_EQ(
        attr.cycles[static_cast<int>(StallCause::PathBandwidth)], 7u);
    EXPECT_EQ(attr.mcQueueWaitCycles, 9u);
    EXPECT_TRUE(attr.sumsMatch());
}

TEST(StallAttribution, OutOfRangeCauseClampsKeepingExactSum)
{
    using sim::TraceEventKind;
    std::vector<sim::TraceEvent> events = {
        mkEvent(TraceEventKind::PbStall, 0, 10, 3, 99),
    };
    auto attr = obs::attributeStalls(events);
    EXPECT_EQ(attr.totalStallCycles, 3u);
    EXPECT_TRUE(attr.sumsMatch());
}

TEST(StallAttribution, PressuredRunSumsExactlyWithStalls)
{
    auto events = traceRun("fft", pressuredCwspConfig());
    auto attr = obs::attributeStalls(events);
    // The squeezed config must actually stall...
    ASSERT_GT(attr.totalStallCycles, 0u);
    // ...and the per-cause decomposition must sum to the total.
    EXPECT_TRUE(attr.sumsMatch());

    // Independent recomputation straight from the stream.
    std::uint64_t expected = 0;
    for (const auto &ev : events) {
        if (ev.kind == sim::TraceEventKind::PbStall ||
            ev.kind == sim::TraceEventKind::RbtStall ||
            ev.kind == sim::TraceEventKind::SchemeDrain)
            expected += ev.duration;
    }
    EXPECT_EQ(attr.totalStallCycles, expected);
}

TEST(StallAttribution, EverySchemeSumsExactly)
{
    for (const char *scheme :
         {"baseline", "cwsp", "capri", "ido", "replaycache", "psp"}) {
        auto events =
            traceRun("fft", core::makeSystemConfig(scheme));
        auto attr = obs::attributeStalls(events);
        EXPECT_TRUE(attr.sumsMatch()) << scheme;
    }
}

// ---------------------------------------------------------------
// Invariant monitor: clean streams
// ---------------------------------------------------------------

TEST(InvariantMonitor, CleanOnEverySchemeFullRun)
{
    for (const char *scheme :
         {"baseline", "cwsp", "capri", "ido", "replaycache", "psp"}) {
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        core::WholeSystemSim sim(*mod, cfg);
        obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
            cfg.hierarchy.wpqCapacity, 8, 16});
        sim.attachTraceSink(&monitor);
        sim.run("main");
        monitor.finish();
        // baseline and psp trace nothing (no persist-path hardware
        // to emit events); the persist-path schemes must.
        if (std::string(scheme) != "baseline" &&
            std::string(scheme) != "psp")
            EXPECT_GT(monitor.eventsChecked(), 0u) << scheme;
        EXPECT_TRUE(monitor.clean()) << scheme << ": "
            << (monitor.violations().empty()
                    ? ""
                    : monitor.violations()[0].invariant + " — " +
                          monitor.violations()[0].detail);
    }
}

TEST(InvariantMonitor, CleanAcrossCrashAndRecovery)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
        cfg.hierarchy.wpqCapacity, 8, 16});
    sim.attachTraceSink(&monitor);
    auto out = sim.runWithCrash({core::ThreadSpec{}}, 50'000);
    monitor.finish();
    ASSERT_TRUE(out.crashed);
    EXPECT_GT(monitor.eventsChecked(), 0u);
    EXPECT_TRUE(monitor.clean())
        << (monitor.violations().empty()
                ? ""
                : monitor.violations()[0].invariant + " — " +
                      monitor.violations()[0].detail);
}

// Multicore: several cores funneling into a single shared MC must
// still respect WPQ<=ADR (one shared ADR domain) and
// log-before-accept, both fault-free and across a crash, for the
// store-through (cwsp) and undo-logged (ido) persist paths. The
// concurrent queue supplies genuine cross-core CAS conflicts.
TEST(InvariantMonitor, CleanOnMulticoreSharedMc)
{
    const auto *app = workloads::findConcurrentApp("cqueue");
    ASSERT_NE(app, nullptr);
    for (const char *scheme : {"cwsp", "ido"}) {
        auto cfg = core::makeSystemConfig(scheme);
        cfg.numCores = app->params.numWorkers;
        cfg.hierarchy.numMcs = 1; // all cores share one WPQ/undo log
        auto mod = workloads::buildConcurrentApp(*app, cfg.compiler);
        std::vector<core::ThreadSpec> threads;
        for (std::uint32_t t = 0; t < app->params.numWorkers; ++t)
            threads.push_back(core::ThreadSpec{"worker", {Word{t}}});

        core::WholeSystemSim sim(*mod, cfg);
        obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
            cfg.hierarchy.wpqCapacity, 8, 16});
        sim.attachTraceSink(&monitor);
        Tick full = sim.run(threads).cycles;
        monitor.finish();
        ASSERT_GT(full, 0u) << scheme;
        EXPECT_GT(monitor.eventsChecked(), 0u) << scheme;
        EXPECT_TRUE(monitor.clean())
            << scheme << ": "
            << (monitor.violations().empty()
                    ? ""
                    : monitor.violations()[0].invariant + " — " +
                          monitor.violations()[0].detail);

        // Same hierarchy across a mid-run crash + recovery.
        core::WholeSystemSim crashSim(*mod, cfg);
        obs::InvariantMonitor crashMon(obs::InvariantMonitorConfig{
            cfg.hierarchy.wpqCapacity, 8, 16});
        crashSim.attachTraceSink(&crashMon);
        auto out = crashSim.runWithCrash(threads, full / 2);
        crashMon.finish();
        ASSERT_TRUE(out.crashed) << scheme;
        EXPECT_GT(crashMon.eventsChecked(), 0u) << scheme;
        EXPECT_TRUE(crashMon.clean())
            << scheme << ": "
            << (crashMon.violations().empty()
                    ? ""
                    : crashMon.violations()[0].invariant + " — " +
                          crashMon.violations()[0].detail);
    }
}

// ---------------------------------------------------------------
// Invariant monitor: corrupted streams
// ---------------------------------------------------------------

TEST(InvariantMonitor, FlagsLoggedAdmitWithoutUndoAppend)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::WpqAdmit, sim::mcLane(0), 100, 5,
                0x40, sim::wpqAdmitArg1(64, true)),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "undo-coverage");
    ASSERT_FALSE(violations[0].window.empty());
    EXPECT_EQ(violations[0].window.back().kind,
              TraceEventKind::WpqAdmit);
}

TEST(InvariantMonitor, AcceptsLogBeforeAcceptPair)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::UndoAppend, sim::mcLane(0), 100, 0,
                0x40),
        mkEvent(TraceEventKind::WpqAdmit, sim::mcLane(0), 100, 5,
                0x40, sim::wpqAdmitArg1(64, true)),
    });
    EXPECT_TRUE(violations.empty());
}

TEST(InvariantMonitor, FlagsOrphanedUndoAppendAtStreamEnd)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::UndoAppend, sim::mcLane(0), 100, 0,
                0x40),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "undo-coverage");
}

TEST(InvariantMonitor, FlagsWpqOccupancyOverflow)
{
    using sim::TraceEventKind;
    obs::InvariantMonitorConfig config;
    config.wpqCapacity = 2;
    // Three admissions in flight at once (drains far in the future).
    auto violations = obs::checkInvariants(
        {
            mkEvent(TraceEventKind::WpqAdmit, sim::mcLane(0), 10,
                    1000, 0x00, sim::wpqAdmitArg1(64, false)),
            mkEvent(TraceEventKind::WpqAdmit, sim::mcLane(0), 11,
                    1000, 0x40, sim::wpqAdmitArg1(64, false)),
            mkEvent(TraceEventKind::WpqAdmit, sim::mcLane(0), 12,
                    1000, 0x80, sim::wpqAdmitArg1(64, false)),
        },
        config);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "wpq-capacity");
}

TEST(InvariantMonitor, FlagsOutOfOrderRetirement)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::RbtRetire, 0, 100, 0, 5),
        mkEvent(TraceEventKind::RbtRetire, 0, 110, 0, 3),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "retire-order");
    EXPECT_EQ(violations[0].eventIndex, 1u);
}

TEST(InvariantMonitor, FlagsNonIncreasingRegionBegin)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::RegionBegin, 0, 100, 0, 7),
        mkEvent(TraceEventKind::RegionBegin, 1, 110, 0, 7),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "region-order");
}

TEST(InvariantMonitor, FlagsPersistActivityAfterCrash)
{
    using sim::TraceEventKind;
    auto violations = obs::checkInvariants({
        mkEvent(TraceEventKind::CrashInject, 0, 100),
        mkEvent(TraceEventKind::PbEnqueue, 0, 110, 0, 1),
    });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "crash-quiescence");

    // After the recovery slice replays, persist activity is legal.
    auto ok = obs::checkInvariants({
        mkEvent(TraceEventKind::CrashInject, 0, 100),
        mkEvent(TraceEventKind::RecoverySlice, 0, 120, 0, 4, 2),
        mkEvent(TraceEventKind::PbEnqueue, 0, 130, 0, 1),
    });
    EXPECT_TRUE(ok.empty());
}

TEST(InvariantMonitor, CountsPastTheReportingCap)
{
    using sim::TraceEventKind;
    obs::InvariantMonitorConfig config;
    config.maxViolations = 2;
    obs::InvariantMonitor monitor(config);
    for (int i = 5; i > 0; --i)
        monitor.onTraceEvent(
            mkEvent(TraceEventKind::RbtRetire, 0, 100,
                    0, static_cast<std::uint64_t>(i)));
    monitor.finish();
    EXPECT_EQ(monitor.violations().size(), 2u);
    EXPECT_EQ(monitor.violationCount(), 4u);
}

// ---------------------------------------------------------------
// Trace determinism (same seed + config => identical streams)
// ---------------------------------------------------------------

TEST(TraceDeterminism, IdenticalRunsProduceIdenticalStreams)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto runOnce = [&](std::string &chrome) {
        auto mod = workloads::buildApp(workloads::appByName("radix"),
                                       cfg.compiler);
        core::WholeSystemSim sim(*mod, cfg);
        sim::TraceBuffer trace(1u << 20, sim::kTraceAll);
        sim.attachTrace(&trace);
        sim.run("main");
        std::ostringstream os;
        trace.exportChromeJson(os);
        chrome = os.str();
        return trace.snapshot();
    };
    std::string chrome_a, chrome_b;
    auto a = runOnce(chrome_a);
    auto b = runOnce(chrome_b);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "event #" << i << " diverged";
    EXPECT_EQ(chrome_a, chrome_b);
}

TEST(TraceDeterminism, CrashRecoveryRunsAreReproducible)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto runOnce = [&]() {
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        core::WholeSystemSim sim(*mod, cfg);
        sim::TraceBuffer trace(1u << 20, sim::kTraceAll);
        sim.attachTrace(&trace);
        auto out = sim.runWithCrash({core::ThreadSpec{}}, 50'000);
        EXPECT_TRUE(out.crashed);
        return trace.snapshot();
    };
    auto a = runOnce();
    auto b = runOnce();
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "event #" << i << " diverged";
}

// ---------------------------------------------------------------
// Baseline differ
// ---------------------------------------------------------------

TEST(BaselineDiff, FlattensNestedObjectsAndNamedArrays)
{
    auto flat = obs::flattenMetricsJson(
        R"({"sim":{"cycles":100,"mc":{"reads":7}},)"
        R"("benchmarks":[{"name":"fig2/fft","cycles":42},)"
        R"({"iterations":3}]})");
    EXPECT_EQ(flat.at("sim.cycles"), 100.0);
    EXPECT_EQ(flat.at("sim.mc.reads"), 7.0);
    EXPECT_EQ(flat.at("benchmarks[fig2/fft].cycles"), 42.0);
    EXPECT_EQ(flat.at("benchmarks[1].iterations"), 3.0);
}

TEST(BaselineDiff, MalformedJsonThrows)
{
    EXPECT_THROW(obs::flattenMetricsJson("{\"a\":"),
                 std::runtime_error);
    EXPECT_THROW(obs::flattenMetricsJson("[1, 2"),
                 std::runtime_error);
}

TEST(BaselineDiff, SplitsRegressionsFromImprovements)
{
    obs::DiffOptions options;
    options.threshold = 0.05;
    auto result = obs::diffMetrics(
        R"({"cycles":1000,"stalls":100,"hits":50})",
        R"({"cycles":1200,"stalls":90,"hits":51})", options);
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].metric, "cycles");
    EXPECT_NEAR(result.regressions[0].ratio, 1.2, 1e-9);
    ASSERT_EQ(result.improvements.size(), 1u);
    EXPECT_EQ(result.improvements[0].metric, "stalls");
    // hits moved 2% < threshold.
    EXPECT_EQ(result.compared, 3u);
    EXPECT_TRUE(result.hasRegressions());
}

TEST(BaselineDiff, IgnoreListAndThresholdAreHonored)
{
    obs::DiffOptions options;
    options.threshold = 0.5;
    auto result = obs::diffMetrics(
        R"({"cycles":100,"real_time":10})",
        R"({"cycles":140,"real_time":90})", options);
    // real_time is ignored by default; cycles moved 40% < 50%.
    EXPECT_TRUE(result.regressions.empty());
    EXPECT_EQ(result.ignored, 1u);
    EXPECT_FALSE(result.hasRegressions());
}

TEST(BaselineDiff, HostSpeedCountersAreIgnoredByDefault)
{
    // Two bench summaries that differ only in bench_simspeed's host
    // timings: no regression. A simulated-cycle change still is one.
    const std::string before =
        R"({"binaries":[{"name":"bench_simspeed","benchmarks":[)"
        R"({"name":"replay/fft","iterations":40,"ns_per_instr":2.1,)"
        R"("sims_per_sec":310,"cycles":5000}]}]})";
    const std::string hostOnly =
        R"({"binaries":[{"name":"bench_simspeed","benchmarks":[)"
        R"({"name":"replay/fft","iterations":61,"ns_per_instr":3.2,)"
        R"("sims_per_sec":160,"cycles":5000}]}]})";
    const std::string cyclesToo =
        R"({"binaries":[{"name":"bench_simspeed","benchmarks":[)"
        R"({"name":"replay/fft","iterations":61,"ns_per_instr":3.2,)"
        R"("sims_per_sec":160,"cycles":5600}]}]})";

    auto quiet = obs::diffMetrics(before, hostOnly);
    EXPECT_EQ(quiet.regressions.size(), 0u);
    EXPECT_EQ(quiet.ignored, 3u);
    EXPECT_EQ(quiet.compared, 1u);

    auto moved = obs::diffMetrics(before, cyclesToo);
    ASSERT_EQ(moved.regressions.size(), 1u);
    EXPECT_EQ(moved.regressions[0].metric,
              "binaries[bench_simspeed].benchmarks[replay/fft].cycles");
}

TEST(BaselineDiff, ZeroToNonzeroIsAnInfiniteRegression)
{
    auto result = obs::diffMetrics(R"({"drops":0})",
                                   R"({"drops":5})");
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_FALSE(std::isfinite(result.regressions[0].ratio));
}

TEST(BaselineDiff, TracksAppearingAndDisappearingMetrics)
{
    auto result = obs::diffMetrics(R"({"old_only":1,"kept":2})",
                                   R"({"kept":2,"new_only":3})");
    ASSERT_EQ(result.onlyBefore.size(), 1u);
    EXPECT_EQ(result.onlyBefore[0], "old_only");
    ASSERT_EQ(result.onlyAfter.size(), 1u);
    EXPECT_EQ(result.onlyAfter[0], "new_only");
    EXPECT_EQ(result.compared, 1u);
}

/** Temp file that deletes itself; empty until written. */
struct TempFile
{
    std::string path;
    explicit TempFile(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
    void
    write(const std::string &text)
    {
        std::ofstream os(path, std::ios::trunc);
        os << text;
    }
    std::string
    read() const
    {
        std::ifstream is(path);
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
    }
};

TEST(Trajectory, AppendCreatesThenGrowsValidJsonArray)
{
    TempFile summary("traj_summary.json");
    TempFile traj("traj_out.json");
    summary.write(
        R"({"binaries":[{"binary":"bench_simspeed","benchmarks":)"
        R"([{"name":"simspeed/aggregate","sims_per_sec":140.0,)"
        R"("real_time":7.1}]}],"wall_clock_s":12,"total_cases":1,)"
        R"("fault_campaign":{"cases_run":24,"cases_passed":24}})");

    obs::TrajectoryOptions options;
    options.label = "pr6";
    options.date = "2026-08-08";
    std::string error;
    ASSERT_TRUE(obs::appendTrajectory(traj.path, summary.path,
                                      options, error))
        << error;
    options.label = "pr7";
    ASSERT_TRUE(obs::appendTrajectory(traj.path, summary.path,
                                      options, error))
        << error;

    // Both entries present, keep-filtered: sims_per_sec and the
    // campaign counters survive, real_time does not. Keys are
    // normalized on append: the binaries[<name>] container prefix is
    // dropped so the same metric keys the same entry across PRs.
    auto metrics = obs::flattenMetricsJson(traj.read());
    EXPECT_EQ(metrics.count("[pr6].metrics.benchmarks"
                            "[simspeed/aggregate].sims_per_sec"),
              1u);
    EXPECT_EQ(metrics.count("[pr7].metrics.benchmarks"
                            "[simspeed/aggregate].sims_per_sec"),
              1u);
    EXPECT_EQ(
        metrics.count("[pr6].metrics.fault_campaign.cases_passed"),
        1u);
    for (const auto &[name, value] : metrics) {
        (void)value;
        EXPECT_EQ(name.find("real_time"), std::string::npos) << name;
    }
}

TEST(Trajectory, RefusesToAppendToNonArrayFile)
{
    TempFile summary("traj_summary2.json");
    TempFile traj("traj_out2.json");
    summary.write(R"({"total_cases":3})");
    traj.write(R"({"not":"an array"})");
    std::string error;
    obs::TrajectoryOptions options;
    EXPECT_FALSE(obs::appendTrajectory(traj.path, summary.path,
                                       options, error));
    EXPECT_NE(error.find("not a JSON array"), std::string::npos);
    // The existing file is untouched.
    EXPECT_EQ(traj.read(), R"({"not":"an array"})");
}

} // namespace
