/**
 * @file
 * Replay-equivalence suite: a timed run driven from a compiled commit
 * stream (WholeSystemSim::runReplay / the runWithCrashes replay path)
 * must be bit-identical to the interpreted run it was recorded from —
 * every RunResult field, the exported statistics JSON, the trace
 * stream, and (for crash sweeps) the full CrashRunResult — whether
 * replay applies the stream's recorded cache outcomes (same tag
 * geometry) or walks the tags live (another geometry).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/commit_stream.hh"
#include "core/whole_system_sim.hh"
#include "mem/hierarchy.hh"
#include "sim/hash.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

const std::vector<std::string> kSchemes = {
    "baseline", "cwsp", "capri", "ido", "replaycache", "psp",
};

/** Collects every trace event into a flat vector. */
class CollectSink final : public sim::TraceSink
{
  public:
    void
    onTraceEvent(const sim::TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<sim::TraceEvent> events;
};

void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.returnValues, b.returnValues);
    EXPECT_EQ(a.meanRegionInstrs, b.meanRegionInstrs);
    EXPECT_EQ(a.meanWbOccupancy, b.meanWbOccupancy);
    EXPECT_EQ(a.wpqHits, b.wpqHits);
    EXPECT_EQ(a.nvmReads, b.nvmReads);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pbFullStalls, b.pbFullStalls);
    EXPECT_EQ(a.rbtFullStalls, b.rbtFullStalls);
    EXPECT_EQ(a.wbPersistDelays, b.wbPersistDelays);
}

std::string
statsJson(core::WholeSystemSim &sim)
{
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/**
 * Every (app, scheme) pair: interpret once, replay the recorded
 * stream once, and compare results and statistics bit-for-bit. The
 * stream is recorded per pair because the compiled module depends on
 * the scheme's compiler options.
 */
TEST(ReplayEquiv, AllAppsAllSchemes)
{
    for (const auto &app : workloads::appTable()) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(app.name + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(app, cfg.compiler);
            auto stream = core::recordCommitStream(*mod, "main", {});

            core::WholeSystemSim interp(*mod, cfg);
            core::RunResult ref = interp.run("main");
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            core::RunResult got = replay.runReplay(stream);
            expectSameResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/** Trace streams must match event-for-event, batching included. */
TEST(ReplayEquiv, TraceStreamsIdentical)
{
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        CollectSink refSink;
        core::WholeSystemSim interp(*mod, cfg);
        interp.attachTraceSink(&refSink);
        interp.run("main");

        CollectSink gotSink;
        core::WholeSystemSim replay(*mod, cfg);
        replay.attachTraceSink(&gotSink);
        replay.runReplay(stream);

        ASSERT_EQ(refSink.events.size(), gotSink.events.size());
        for (std::size_t i = 0; i < refSink.events.size(); ++i)
            EXPECT_TRUE(refSink.events[i] == gotSink.events[i])
                << "event " << i << " differs";
    }
}

void
expectSameCrashResult(const core::CrashRunResult &a,
                      const core::CrashRunResult &b)
{
    expectSameResult(a.result, b.result);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.persistedStores, b.persistedStores);
    EXPECT_EQ(a.revertedStores, b.revertedStores);
    EXPECT_EQ(a.reexecutedInstrs, b.reexecutedInstrs);
    EXPECT_EQ(a.lostWork, b.lostWork);
    EXPECT_EQ(a.resumeRegions, b.resumeRegions);
    ASSERT_EQ(a.ioStream.size(), b.ioStream.size());
    for (std::size_t i = 0; i < a.ioStream.size(); ++i) {
        EXPECT_EQ(a.ioStream[i].device, b.ioStream[i].device);
        EXPECT_EQ(a.ioStream[i].payload, b.ioStream[i].payload);
    }
    EXPECT_EQ(a.recoveryWindows, b.recoveryWindows);
}

/**
 * Crash sweep: the replay-accelerated path must reproduce the
 * interpreted sweep exactly across the whole run length, including
 * the crash-instant state, recovery accounting, and the stats of the
 * post-recovery completion.
 */
TEST(ReplayEquiv, CrashSweepIdentical)
{
    for (const auto &scheme :
         {std::string("cwsp"), std::string("ido"),
          std::string("replaycache")}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        core::RunResult whole = probe.run("main");

        std::vector<core::ThreadSpec> threads(1);
        const Tick points[] = {whole.cycles / 7, whole.cycles / 3,
                               whole.cycles / 2,
                               (whole.cycles * 9) / 10};
        for (Tick t : points) {
            SCOPED_TRACE("crash@" + std::to_string(t));
            fault::CrashSchedule schedule{t};

            core::WholeSystemSim interp(*mod, cfg);
            auto ref = interp.runWithCrashes(threads, schedule);
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            auto got = replay.runWithCrashes(threads, schedule, {},
                                             200'000'000, &stream);
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/**
 * Folds every trace event into a count and an FNV-1a digest, so a
 * whole run's event stream compares in constant memory.
 */
class DigestSink final : public sim::TraceSink
{
  public:
    void
    onTraceEvent(const sim::TraceEvent &e) override
    {
        const std::uint64_t fields[] = {
            e.tick, e.duration, e.arg0, e.arg1,
            static_cast<std::uint64_t>(e.kind), e.lane};
        digest = fnv1a64(reinterpret_cast<const char *>(fields),
                         sizeof(fields), digest);
        ++count;
    }

    std::uint64_t count = 0;
    std::uint64_t digest = 0;
};

/** The geometry a stream is recorded for when it must not match
 *  @p cfg's: psp's no-DRAM-cache hierarchy against the default. */
mem::HierarchyConfig
otherGeometry(const core::SystemConfig &cfg)
{
    return cfg.hierarchy.hasDramCache
               ? core::makeSystemConfig("psp").hierarchy
               : mem::defaultHierarchy();
}

/**
 * Replay @p stream under @p cfg — plain and crashed at @p crash —
 * and compare result, stats JSON, trace digest and crash result with
 * the interpreted references.
 */
void
expectReplayMatches(const ir::Module &mod, const core::SystemConfig &cfg,
                    const core::CommitStream &stream,
                    const core::RunResult &ref, const std::string &refJson,
                    const DigestSink &refTrace, Tick crash,
                    const core::CrashRunResult &refCrash,
                    const std::string &refCrashJson)
{
    DigestSink trace;
    core::WholeSystemSim replay(mod, cfg);
    replay.attachTraceSink(&trace);
    expectSameResult(ref, replay.runReplay(stream));
    EXPECT_EQ(refJson, statsJson(replay));
    EXPECT_EQ(refTrace.count, trace.count);
    EXPECT_EQ(refTrace.digest, trace.digest);

    core::WholeSystemSim crashed(mod, cfg);
    auto got = crashed.runWithCrashes({core::ThreadSpec{}},
                                      fault::CrashSchedule{crash}, {},
                                      200'000'000, &stream);
    expectSameCrashResult(refCrash, got);
    EXPECT_EQ(refCrashJson, statsJson(crashed));
}

/**
 * Both outcome sources, for every (app, scheme) pair: a stream
 * recorded for the scheme's own tag geometry replays its cache
 * outcomes, one recorded for another geometry (default against psp's)
 * walks the tags live. Each must match interpretation in the
 * RunResult, the stats JSON, the trace stream, and a crash run.
 */
TEST(ReplayEquiv, BothOutcomeSourcesAllAppsAllSchemes)
{
    for (const auto &app : workloads::appTable()) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(app.name + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(app, cfg.compiler);
            auto own =
                core::recordCommitStream(*mod, "main", {}, cfg.hierarchy);
            auto other = core::recordCommitStream(*mod, "main", {},
                                                  otherGeometry(cfg));
            ASSERT_EQ(own.geometry, mem::tagGeometryKey(cfg.hierarchy));
            ASSERT_NE(own.geometry, other.geometry);

            DigestSink refTrace;
            core::WholeSystemSim interp(*mod, cfg);
            interp.attachTraceSink(&refTrace);
            core::RunResult ref = interp.run("main");
            const std::string refJson = statsJson(interp);

            const Tick crash = ref.cycles / 2;
            core::WholeSystemSim interpCrash(*mod, cfg);
            auto refCrash = interpCrash.runWithCrashes(
                {core::ThreadSpec{}}, fault::CrashSchedule{crash});
            const std::string refCrashJson = statsJson(interpCrash);

            for (const core::CommitStream *stream : {&own, &other}) {
                SCOPED_TRACE(stream == &own ? "own geometry"
                                            : "other geometry");
                expectReplayMatches(*mod, cfg, *stream, ref, refJson,
                                    refTrace, crash, refCrash,
                                    refCrashJson);
            }
        }
    }
}

/**
 * One module under every deeper geometry the figures sweep
 * (figure1Hierarchy(2..5) and threeLevelHierarchy()), one stream per
 * geometry: replayed outcomes of 2 to 4 SRAM levels, with and without
 * a DRAM cache, match interpretation.
 */
TEST(ReplayEquiv, OutcomesOfEveryFigureGeometry)
{
    std::vector<mem::HierarchyConfig> geometries;
    for (unsigned levels = 2; levels <= 5; ++levels)
        geometries.push_back(mem::figure1Hierarchy(levels));
    geometries.push_back(mem::threeLevelHierarchy());

    const auto base = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("bzip2"),
                                   base.compiler);
    std::vector<std::string> keys;
    for (const auto &geometry : geometries) {
        auto cfg = base;
        cfg.hierarchy = geometry;
        cfg.hierarchy.dropLlcDirtyEvictions =
            base.hierarchy.dropLlcDirtyEvictions;
        core::syncFeatureFlags(cfg);
        const std::string key = mem::tagGeometryKey(geometry);
        SCOPED_TRACE(key);
        keys.push_back(key);

        auto stream = core::recordCommitStream(*mod, "main", {}, geometry);
        ASSERT_EQ(stream.geometry, key);

        DigestSink refTrace;
        core::WholeSystemSim interp(*mod, cfg);
        interp.attachTraceSink(&refTrace);
        core::RunResult ref = interp.run("main");
        const std::string refJson = statsJson(interp);

        const Tick crash = ref.cycles / 3;
        core::WholeSystemSim interpCrash(*mod, cfg);
        auto refCrash = interpCrash.runWithCrashes(
            {core::ThreadSpec{}}, fault::CrashSchedule{crash});
        expectReplayMatches(*mod, cfg, stream, ref, refJson, refTrace,
                            crash, refCrash, statsJson(interpCrash));
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end())
        << "each geometry must have its own stream identity";
}

/** A stream for a different program must be ignored, not misapplied. */
TEST(ReplayEquiv, MismatchedStreamFallsBack)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto other = workloads::buildApp(workloads::appByName("astar"),
                                     cfg.compiler);
    auto stream = core::recordCommitStream(*other, "main", {});

    std::vector<core::ThreadSpec> threads(1);
    core::WholeSystemSim interp(*mod, cfg);
    auto ref = interp.runWithCrashes(threads, fault::CrashSchedule{500});

    core::WholeSystemSim replay(*mod, cfg);
    auto got = replay.runWithCrashes(threads, fault::CrashSchedule{500},
                                     {}, 200'000'000, &stream);
    expectSameCrashResult(ref, got);
    EXPECT_EQ(got.source, core::ExecSource::Interpret);
    EXPECT_EQ(got.refusal, core::SourceRefusal::Module);
}

} // namespace
} // namespace cwsp
